"""Deterministic parallel execution of independent simulation tasks.

The sweeps, the autotuner, and the calibration search all evaluate many
independent kernel candidates; this module fans those evaluations out over
worker processes while keeping the *results byte-identical to a serial run*:

* tasks are split into at most ``jobs`` contiguous chunks and submitted in
  order; results are reassembled by iterating the futures in submission
  order, so the output list order never depends on scheduling;
* each chunk runs against a fresh per-worker
  :class:`~repro.gpusim.session.SimulationContext` (the simulation is
  deterministic, so a worker computes exactly what the serial path would);
* on join, every worker's structural timing cache and counters are folded
  back into the parent context via
  :meth:`~repro.gpusim.session.SimulationContext.absorb`, so later serial
  work still benefits from what the workers simulated;
* observability merges back the same way: when the parent has a tracer
  installed, each worker records its chunk under a fresh
  :class:`~repro.obs.tracer.Tracer` and ships the span/event streams home
  (worker pids keep Chrome-trace process rows separate), and the worker's
  process-global metrics fold into the parent's global registry.

``fn`` must be a module-level (picklable) callable of signature
``fn(context, item) -> result`` and must not rely on shared mutable state;
expected per-item failures should be caught inside ``fn`` and encoded in its
result (exceptions escaping a worker abort the whole map, exactly like the
serial loop).
"""

from __future__ import annotations

import os
from concurrent.futures import Future
from math import ceil
from typing import Any, Callable, Sequence, TypeVar

from ..obs.metrics import MetricsRegistry, global_registry, reset_global_registry
from ..obs.tracer import (
    Span,
    TraceEvent,
    Tracer,
    active_tracer,
    install_tracer,
    uninstall_tracer,
)
from .device import DeviceSpec
from .session import SimStats, SimulationContext

T = TypeVar("T")

TaskFn = Callable[[SimulationContext, Any], Any]

#: What one worker ships back: results, timing-cache entries, session
#: counters, span/event streams, and the worker's process-global metrics.
ChunkResult = tuple[
    list[Any],
    dict[str, Any],
    SimStats,
    tuple[Span, ...],
    tuple[TraceEvent, ...],
    MetricsRegistry,
]


#: Smallest default chunk: a worker process costs a fork plus a result
#: pickle round-trip, so shipping it fewer items than this loses to just
#: evaluating them in an existing chunk (singleton chunks on small grids
#: were pure IPC overhead).
DEFAULT_MIN_CHUNK = 4


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``--jobs`` value: None/0/1 mean serial, ``"auto"`` and
    negative values mean one worker per available CPU.

    Requests beyond ``os.cpu_count()`` clamp to the CPU count — the
    simulation is pure CPU work, so oversubscribing only adds process
    spawn and scheduling overhead (the shipped ``BENCH_planner.json`` once
    ran ``--jobs 4`` on a 1-CPU box and *lost* 35% end to end).  A clamp
    bumps the ``exec.jobs.clamped`` counter so ``--metrics`` surfaces it.
    """
    cpus = os.cpu_count() or 1
    if jobs is None:
        return 1
    if isinstance(jobs, str):
        if jobs.strip().lower() == "auto":
            return cpus
        jobs = int(jobs)
    if jobs == 0:
        return 1
    if jobs < 0:
        return cpus
    if jobs > cpus:
        global_registry().counter("exec.jobs.clamped").inc()
        return cpus
    return jobs


def chunk_items(items: Sequence[T], jobs: int, chunk_size: int | None = None) -> list[list[T]]:
    """Split ``items`` into contiguous chunks, at most ``jobs`` of them by
    default (one per worker, so each worker context serves a maximal share
    of structurally-similar tasks).

    The default size has a floor of :data:`DEFAULT_MIN_CHUNK`: on a grid
    smaller than ``jobs * DEFAULT_MIN_CHUNK`` the split yields *fewer*
    chunks than workers rather than singleton chunks, trading idle workers
    (cheap — they were going to finish instantly anyway) for fewer
    fork/pickle round-trips (the actual cost on small grids).
    """
    n = len(items)
    if n == 0:
        return []
    if chunk_size is not None:
        size = chunk_size
        if size <= 0:
            raise ValueError("chunk_size must be positive")
    else:
        size = max(ceil(n / max(1, jobs)), min(n, DEFAULT_MIN_CHUNK))
    return [list(items[i : i + size]) for i in range(0, n, size)]


def _run_chunk(
    device: DeviceSpec,
    check_memory: bool,
    fn: TaskFn,
    chunk: list[Any],
    trace: bool,
) -> ChunkResult:
    """Worker body: evaluate one chunk against a fresh context and ship the
    results plus the context's cache/counters (and, when tracing, the span
    stream) back for merging.

    Pool workers are reused across chunks, so the worker's process-global
    metrics are zeroed on entry — each shipment covers exactly one chunk.
    """
    reset_global_registry()
    tracer = install_tracer(Tracer(f"worker-{os.getpid()}")) if trace else None
    try:
        ctx = SimulationContext(device, check_memory=check_memory)
        if tracer is None:
            results = [fn(ctx, item) for item in chunk]
        else:
            with tracer.span("chunk", "parallel", items=len(chunk)):
                results = [fn(ctx, item) for item in chunk]
    finally:
        if trace:
            uninstall_tracer()
    cache, stats = ctx.export_state()
    spans = tracer.spans() if tracer is not None else ()
    events = tracer.events() if tracer is not None else ()
    return results, cache, stats, spans, events, global_registry()


def parallel_map(
    fn: TaskFn,
    items: Sequence[Any],
    context: SimulationContext,
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> list[Any]:
    """Evaluate ``fn(context, item)`` for every item, in item order.

    With ``jobs`` <= 1 this is exactly the serial loop on the caller's
    context.  Otherwise chunks run in worker processes and the workers'
    timing caches, stats, metrics, and (when tracing) span streams are
    absorbed into the parent on join.  Both paths return identical results
    for deterministic ``fn``.
    """
    jobs = resolve_jobs(jobs)
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(context, item) for item in items]
    chunks = chunk_items(items, jobs, chunk_size)
    tracer = active_tracer()
    out: list[Any] = []
    from concurrent.futures import ProcessPoolExecutor  # off the serial path

    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        futures: list[Future[ChunkResult]] = [
            pool.submit(
                _run_chunk,
                context.device,
                context.check_memory,
                fn,
                c,
                tracer is not None,
            )
            for c in chunks
        ]
        # Submission order, not completion order: deterministic reassembly.
        for future in futures:
            results, cache, stats, spans, events, worker_metrics = future.result()
            context.absorb(cache, stats)
            global_registry().merge(worker_metrics)
            if tracer is not None:
                tracer.absorb(spans, events)
                tracer.event(
                    "worker-merge",
                    "parallel",
                    spans=len(spans),
                    results=len(results),
                )
            out.extend(results)
    return out
