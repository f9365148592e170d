"""Span-based tracing: the measurement substrate for the whole reproduction.

The paper's method is *attribution* — DRAM transactions, L2 hit rates and
transform overheads pinned to individual layers and planner decisions.  This
module gives every subsystem one shared way to record where time went:

* :class:`Span` — one timed region (name, category, wall-clock interval,
  process/thread ids, free-form attributes, parent link for nesting);
* :class:`TraceEvent` — an instant marker (planner decisions, cache merges);
* :class:`Tracer` — the per-process collector.  ``tracer.span(...)`` is a
  context manager; spans opened inside it become children via a
  thread-local stack, so concurrent threads never cross-link parents.

Tracing is strictly *observational*: every instrumented code path computes
exactly the same results whether a tracer is installed or not (the byte
identity is asserted by ``tests/obs/test_determinism.py``).  When no tracer
is installed the module-level :func:`span` helper costs one global read.

Timestamps are wall-clock microseconds anchored once per tracer
(``time.time`` origin advanced by ``time.perf_counter`` deltas), so spans
recorded by worker processes line up with the parent's on a common axis
when their streams are folded back with :meth:`Tracer.absorb` — the tracing
analog of the simulator's ``export_delta``/``absorb`` cache merge.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "install_tracer",
    "span",
    "tracing_enabled",
    "uninstall_tracer",
]


@dataclass
class Span:
    """One completed timed region.

    ``span_id`` is unique within the recording process; the pair
    ``(pid, span_id)`` is unique across a whole merged trace.  ``attrs``
    must hold JSON-safe values (they become Chrome-trace ``args``).
    """

    name: str
    category: str
    start_us: float
    duration_us: float
    pid: int
    tid: int
    span_id: int
    parent_id: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    @property
    def duration_ms(self) -> float:
        return self.duration_us / 1e3


@dataclass
class TraceEvent:
    """An instant (zero-duration) marker on the trace timeline."""

    name: str
    category: str
    timestamp_us: float
    pid: int
    tid: int
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects spans and instant events for one process.

    Thread-safe: span ids and the completed-span list are guarded by a
    lock, while the open-span stack that provides parent links is
    thread-local.  Spans are appended on *completion*, so the recorded
    order is completion order; exporters re-sort by start time.
    """

    def __init__(self, process_name: str = "repro") -> None:
        self.process_name = process_name
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._events: list[TraceEvent] = []
        self._next_id = 1
        self._local = threading.local()
        self._t0_wall = time.time()
        self._t0_perf = time.perf_counter()

    # -- clock --------------------------------------------------------------
    def now_us(self) -> float:
        """Wall-clock microseconds, monotonic within this tracer."""
        return (self._t0_wall + (time.perf_counter() - self._t0_perf)) * 1e6

    # -- recording ----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    @contextmanager
    def span(
        self, name: str, category: str = "repro", **attrs: Any
    ) -> Iterator[Span]:
        """Record one timed region; yields the live :class:`Span` so the
        body can attach attributes discovered mid-flight."""
        stack = self._stack()
        sp = Span(
            name=name,
            category=category,
            start_us=self.now_us(),
            duration_us=0.0,
            pid=os.getpid(),
            tid=threading.get_ident(),
            span_id=self._allocate_id(),
            parent_id=stack[-1] if stack else None,
            attrs=dict(attrs),
        )
        stack.append(sp.span_id)
        try:
            yield sp
        finally:
            stack.pop()
            sp.duration_us = self.now_us() - sp.start_us
            with self._lock:
                self._spans.append(sp)

    def record(
        self, name: str, category: str, duration_us: float, **attrs: Any
    ) -> Span:
        """Append an already-measured region ending now (for hot paths that
        time themselves and only report when a tracer is active)."""
        end = self.now_us()
        stack = self._stack()
        sp = Span(
            name=name,
            category=category,
            start_us=end - duration_us,
            duration_us=duration_us,
            pid=os.getpid(),
            tid=threading.get_ident(),
            span_id=self._allocate_id(),
            parent_id=stack[-1] if stack else None,
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(sp)
        return sp

    def event(self, name: str, category: str = "repro", **attrs: Any) -> TraceEvent:
        """Record an instant marker at the current time."""
        ev = TraceEvent(
            name=name,
            category=category,
            timestamp_us=self.now_us(),
            pid=os.getpid(),
            tid=threading.get_ident(),
            attrs=dict(attrs),
        )
        with self._lock:
            self._events.append(ev)
        return ev

    # -- access + merging ---------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        with self._lock:
            return tuple(self._spans)

    def events(self) -> tuple[TraceEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def absorb(
        self, spans: Sequence[Span], events: Sequence[TraceEvent] = ()
    ) -> int:
        """Fold a worker process's span/event streams into this tracer.

        Worker spans keep their own pid/tid/span ids — ids are only unique
        per process, and exporters key rows on ``(pid, tid)`` — so the
        merge is a plain extend.  Returns the number of spans absorbed.
        """
        with self._lock:
            self._spans.extend(spans)
            self._events.extend(events)
        return len(spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._events.clear()


# ---------------------------------------------------------------------------
# The process-wide active tracer
# ---------------------------------------------------------------------------

_ACTIVE: Tracer | None = None


def install_tracer(tracer: Tracer | None = None) -> Tracer:
    """Make ``tracer`` (or a fresh one) the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def uninstall_tracer() -> Tracer | None:
    """Remove and return the active tracer (tracing becomes a no-op)."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def active_tracer() -> Tracer | None:
    """The installed tracer, or None when tracing is off."""
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE is not None


class _NullSpan:
    """Context manager yielded by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


def span(name: str, category: str = "repro", **attrs: Any) -> Any:
    """Record a span on the active tracer, or do nothing when tracing is
    off.  Yields the live :class:`Span` (or ``None`` when disabled), so
    callers attaching attributes must guard: ``if sp is not None: ...``."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **attrs)
