"""Trace and metrics exporters.

Three output formats, all plain JSON with zero dependencies:

* **Chrome trace** (:func:`chrome_trace` / :func:`write_chrome_trace`) —
  the ``chrome://tracing`` / Perfetto "JSON Array Format": one ``"X"``
  (complete) event per span, ``"i"`` (instant) events for markers, and
  ``"M"`` metadata rows naming each process.  Load the file in
  https://ui.perfetto.dev or ``chrome://tracing`` to get the flame view.
* **JSONL** (:func:`write_jsonl`) — one self-describing JSON object per
  line (``{"type": "span", ...}`` / ``{"type": "event", ...}``), the
  grep-and-jq-friendly event log.
* **Metrics JSON** (:func:`write_metrics`) — the flat
  name → value/summary snapshot of a
  :class:`~repro.obs.metrics.MetricsRegistry`, consumed by benchmarks.

:func:`validate_chrome_trace` is the small schema checker used by tests
and the CI smoke job (via ``python -m repro.obs.check``): it verifies the
invariants Perfetto actually relies on, not the full trace-event spec.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

from .metrics import MetricsRegistry, aggregate_metrics
from .tracer import Span, TraceEvent, Tracer, json_safe

__all__ = [
    "chrome_trace",
    "summarize_spans",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
]

_TRACE_VERSION = 1


def chrome_trace(
    spans: Sequence[Span],
    events: Sequence[TraceEvent] = (),
    process_names: dict[int, str] | None = None,
) -> dict[str, Any]:
    """Build the ``chrome://tracing`` JSON payload for a span stream.

    Events are emitted in (start time, span id) order so the payload is
    deterministic for a deterministic workload.  ``process_names`` maps
    pid → display name; unnamed worker pids get ``worker-<pid>``.
    """
    trace_events: list[dict[str, Any]] = []
    pids = sorted({s.pid for s in spans} | {e.pid for e in events})
    names = process_names or {}
    for index, pid in enumerate(pids):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": names.get(pid, f"worker-{pid}")},
            }
        )
        trace_events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": index},
            }
        )
    for s in sorted(spans, key=lambda s: (s.start_us, s.pid, s.span_id)):
        trace_events.append(
            {
                "name": s.name,
                "cat": s.category,
                "ph": "X",
                "ts": round(s.start_us, 3),
                "dur": round(s.duration_us, 3),
                "pid": s.pid,
                "tid": s.tid,
                "args": json_safe(
                    {**s.attrs, "span_id": s.span_id, "parent_id": s.parent_id}
                ),
            }
        )
    for e in sorted(events, key=lambda e: (e.timestamp_us, e.pid)):
        trace_events.append(
            {
                "name": e.name,
                "cat": e.category,
                "ph": "i",
                "ts": round(e.timestamp_us, 3),
                "pid": e.pid,
                "tid": e.tid,
                "s": "t",  # thread-scoped instant
                "args": json_safe(e.attrs),
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", "version": _TRACE_VERSION},
    }


def write_chrome_trace(
    path: str | Path,
    tracer: Tracer,
    process_names: dict[int, str] | None = None,
) -> Path:
    """Serialize a tracer's streams as a Chrome-trace JSON file."""
    import os

    names = {os.getpid(): tracer.process_name}
    if process_names:
        names.update(process_names)
    payload = chrome_trace(tracer.spans(), tracer.events(), names)
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=1))
    return target


def write_jsonl(path: str | Path, tracer: Tracer) -> Path:
    """Serialize a tracer's streams as one JSON object per line."""
    records: list[dict[str, Any]] = []
    for s in sorted(tracer.spans(), key=lambda s: (s.start_us, s.pid, s.span_id)):
        records.append(
            {
                "type": "span",
                "name": s.name,
                "category": s.category,
                "start_us": s.start_us,
                "duration_us": s.duration_us,
                "pid": s.pid,
                "tid": s.tid,
                "span_id": s.span_id,
                "parent_id": s.parent_id,
                "attrs": json_safe(s.attrs),
            }
        )
    for e in sorted(tracer.events(), key=lambda e: (e.timestamp_us, e.pid)):
        records.append(
            {
                "type": "event",
                "name": e.name,
                "category": e.category,
                "timestamp_us": e.timestamp_us,
                "pid": e.pid,
                "tid": e.tid,
                "attrs": json_safe(e.attrs),
            }
        )
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("".join(json.dumps(r) + "\n" for r in records))
    return target


def write_metrics(path: str | Path, registry: MetricsRegistry | None = None) -> Path:
    """Serialize a registry snapshot (the full process aggregate by
    default) as flat metrics JSON."""
    snap = (registry or aggregate_metrics()).snapshot()
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps({"version": 1, "metrics": snap}, indent=1, sort_keys=True))
    return target


# ---------------------------------------------------------------------------
# Validation (tests + CI smoke job)
# ---------------------------------------------------------------------------

_PHASES = {"X", "M", "i"}


def validate_chrome_trace(payload: Any) -> list[str]:
    """Check a Chrome-trace payload; returns a list of problems (empty =
    valid).  Covers the invariants Perfetto's JSON importer relies on:
    the ``traceEvents`` array, per-event name/ph/pid/tid, non-negative
    ``ts``/``dur`` on complete events, and JSON-serializable ``args``."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["payload lacks a 'traceEvents' array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}: missing or empty 'name'")
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: 'ph' must be one of {sorted(_PHASES)}, got {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: '{key}' must be an integer")
        if ph in ("X", "i"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'dur' must be a non-negative number")
        if ph == "i" and not isinstance(ev.get("cat"), str):
            problems.append(f"{where}: instant events need a 'cat' string")
        args = ev.get("args")
        if args is not None:
            if not isinstance(args, dict):
                problems.append(f"{where}: 'args' must be an object")
            else:
                try:
                    json.dumps(args)
                except (TypeError, ValueError) as exc:
                    problems.append(f"{where}: 'args' not JSON-serializable ({exc})")
    return problems


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def summarize_spans(spans: Sequence[Span], top: int = 10) -> str:
    """A printable two-part digest: per-category totals, then the longest
    individual spans (the ``repro profile`` summary table)."""
    if not spans:
        return "no spans recorded"
    by_category: dict[str, tuple[int, float]] = {}
    for s in spans:
        count, total = by_category.get(s.category, (0, 0.0))
        by_category[s.category] = (count + 1, total + s.duration_ms)
    lines = ["span summary by category:"]
    lines.append(f"  {'category':20s} {'count':>7s} {'total ms':>10s}")
    for cat in sorted(by_category, key=lambda c: -by_category[c][1]):
        count, total = by_category[cat]
        lines.append(f"  {cat:20s} {count:7d} {total:10.3f}")
    lines.append(f"top {top} spans by duration:")
    lines.append(f"  {'span':36s} {'category':18s} {'ms':>9s}")
    ranked = sorted(spans, key=lambda s: -s.duration_us)[:top]
    for s in ranked:
        lines.append(f"  {s.name:36s} {s.category:18s} {s.duration_ms:9.3f}")
    return "\n".join(lines)
