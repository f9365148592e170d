"""Sweep execution engine: memoized, warm-pooled grid evaluation.

This is the one runtime path between the grid producers
(:mod:`repro.analysis.sweeps`, :mod:`repro.core.calibration`,
:mod:`repro.core.autotune`, the pipeline's transform pricing, the figure
drivers) and the evaluator (:func:`repro.gpusim.batch.evaluate_models`,
which times each cell with the scalar model).  It has two layers:

* **cross-grid memoization** — :func:`evaluate_cells` consults the
  session's structural timing cache (the same
  :func:`~repro.gpusim.session.structural_key` space
  :meth:`SimulationContext.run` uses) before evaluating anything, and
  dedups structurally-equal cells within a grid, so each distinct
  (kernel shape, device) cell is evaluated exactly once per process no
  matter how many sweep grids revisit it.  This is where the end-to-end
  time lives: a traced NCHW pooling profile costs ~1000x a closed-form
  candidate, and the figure suite re-prices the same pooling layers grid
  after grid.
* **a persistent warm worker pool** — :func:`map_chunks` hands each
  producer chunk of cells to one call of the producer's chunk function:
  serially that is one call over the whole grid; with ``--jobs`` the
  chunks go to a process pool that is created once, keeps a warm per-worker
  :class:`~repro.gpusim.session.SimulationContext` per (device, OOM mode)
  across submissions, ships only cache *deltas* home
  (:meth:`SimulationContext.export_delta` → :meth:`absorb`), and sizes
  chunks adaptively from the measured per-cell cost.

Everything stays byte-identical to the scalar model
(:meth:`SimulationContext.run`, the tests' oracle): a memoized value is
the value the same model computed the first time, results are
reassembled in submission order, and a warm worker computes exactly what
a cold one would.  The ``--jobs`` knob (:func:`resolve_jobs`) remains a
pure wall-clock knob.

Instrumentation (``repro.obs``): ``exec.cache.{hit,miss,dedup,error_hit}``
counters, the ``exec.batch.size`` histogram, ``exec.pool.{reuse,chunks}``
counters, one ``exec`` span per grid, and ``exec.jobs.clamped`` from
:func:`resolve_jobs`.

Metric *counts* can differ between a memoized and a cold run (that is the
point); every value derived from kernel stats is identical.
"""

from __future__ import annotations

import atexit
import os
import time
from math import ceil
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..obs.metrics import MetricsRegistry, global_registry, reset_global_registry
from ..obs.tracer import (
    Span,
    TraceEvent,
    Tracer,
    active_tracer,
    install_tracer,
    span as obs_span,
    uninstall_tracer,
)
from .batch import evaluate_models
from .device import DeviceSpec
from .kernel import ComposedKernel, KernelModel
from .session import (
    GpuOutOfMemoryError,
    SimStats,
    SimulationContext,
    _kind_of,
    structural_key,
)
from .timing import KernelStats

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "adaptive_chunk_size",
    "evaluate_cells",
    "map_chunks",
    "pool_workers",
    "resolve_jobs",
    "shutdown_pool",
]

#: ``fn`` for :func:`map_chunks`: one *chunk* of grid cells per call (not
#: one cell), so the whole chunk goes through one ``evaluate_cells`` call.
ChunkFn = Callable[[SimulationContext, list], list]

#: What one warm worker ships back per submission: chunk results, the
#: cache *delta* since its last shipment, per-chunk session counters,
#: span/event streams, the worker's per-chunk global metrics, and whether
#: the warm context was reused.
ChunkShipment = tuple[
    list[Any],
    "dict[str, KernelStats]",
    SimStats,
    "tuple[Span, ...]",
    "tuple[TraceEvent, ...]",
    MetricsRegistry,
    bool,
]


# ---------------------------------------------------------------------------
# Layer 1: cross-grid memoization
# ---------------------------------------------------------------------------


def _fit_error(
    context: SimulationContext,
    model: KernelModel,
    check_memory: bool | None,
) -> GpuOutOfMemoryError | None:
    """The memory-fit error ``context.run`` would raise right now, if any.

    Checks sub-kernels in sequence order for composed models, so the
    first failing sub-kernel is the error the caller sees — the same
    order the scalar recursion and ``evaluate_models`` produce.
    """
    subs = model.kernels if isinstance(model, ComposedKernel) else (model,)
    try:
        for sub in subs:
            if isinstance(sub, ComposedKernel):
                err = _fit_error(context, sub, check_memory)
                if err is not None:
                    return err
            else:
                context._check_fit(sub, check_memory, None)
    except GpuOutOfMemoryError as exc:
        return exc
    return None


def evaluate_cells(
    context: SimulationContext,
    models: Sequence[KernelModel],
    check_memory: bool | None = None,
) -> "list[KernelStats | Exception]":
    """Memoized :func:`~repro.gpusim.batch.evaluate_models`.

    Same signature and slot-for-slot result contract (stats or the exact
    scalar exception per model), with two additions in front of the
    evaluator:

    * cells whose structural key is already in ``context``'s timing cache
      (or its error memo) are served without touching the analytic stack
      — in particular without rebuilding a traced memory profile, which
      is where sweep wall-time actually goes;
    * structurally-equal duplicates *within* the grid collapse onto one
      evaluation, then fan back out to every owning slot, preserving
      order and multiplicity.

    Misses are evaluated in one ``evaluate_models`` call and folded back
    into the context cache, so later grids — and ``context.run`` — reuse
    them.

    The memory-fit check stays *outside* the memo, mirroring the scalar
    order (``_check_fit`` runs before the cache lookup in
    ``context.run``): whether a kernel fits depends on the
    ``check_memory`` flag in force *now*, not when the cell was first
    priced, so every cell re-runs the cheap fit check and only
    flag-independent outcomes (timings, launch/spec errors) are cached.
    """
    models = list(models)
    if not models:
        return []

    device = context.device
    fit_enabled = context.check_memory if check_memory is None else check_memory
    results: "list[KernelStats | Exception | None]" = [None] * len(models)
    with obs_span("exec:grid", "exec", cells=len(models)) as sp:
        keys = [structural_key(m, device) for m in models]
        miss_idx: list[int] = []
        first_owner: dict[str, int] = {}
        dup_of: dict[int, int] = {}
        hits = error_hits = 0
        for i, key in enumerate(keys):
            model = models[i]
            if fit_enabled:
                oom = _fit_error(context, model, check_memory)
                if oom is not None:
                    results[i] = oom
                    continue
            cached = context.cache_lookup(key)
            if cached is not None:
                results[i] = cached
                context.stats.record_hit(_kind_of(model))
                hits += 1
                continue
            err = context.exec_errors.get(key)
            if err is not None:
                results[i] = err
                error_hits += 1
                continue
            owner = first_owner.get(key)
            if owner is None:
                first_owner[key] = i
                miss_idx.append(i)
            else:
                dup_of[i] = owner

        if miss_idx:
            outcomes = evaluate_models(
                context, [models[i] for i in miss_idx], check_memory
            )
            for i, outcome in zip(miss_idx, outcomes):
                results[i] = outcome
                if isinstance(outcome, GpuOutOfMemoryError):
                    continue  # flag-dependent; the pre-lookup fit check owns it
                if isinstance(outcome, Exception):
                    context.exec_errors[keys[i]] = outcome
                else:
                    context.cache_store(keys[i], outcome)
        for i, owner in dup_of.items():
            results[i] = results[owner]

        registry = global_registry()
        registry.counter("exec.cache.hit").inc(hits)
        registry.counter("exec.cache.miss").inc(len(miss_idx))
        registry.histogram("exec.batch.size").observe(len(miss_idx))
        if error_hits:
            registry.counter("exec.cache.error_hit").inc(error_hits)
        if dup_of:
            registry.counter("exec.cache.dedup").inc(len(dup_of))
        if sp is not None:
            sp.attrs["hits"] = hits + error_hits
            sp.attrs["misses"] = len(miss_idx)
            sp.attrs["dedup"] = len(dup_of)
    return results  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Worker count and adaptive chunk sizing
# ---------------------------------------------------------------------------

#: Smallest default chunk: a pool submission costs a result pickle
#: round-trip, so shipping fewer cells than this loses to evaluating them
#: in an existing chunk (singleton chunks on small grids were pure IPC).
DEFAULT_MIN_CHUNK = 4


def resolve_jobs(jobs: int | str | None) -> int:
    """Normalize a ``--jobs`` value: None/0/1 mean serial, ``"auto"`` and
    negative values mean one worker per available CPU.

    Requests beyond ``os.cpu_count()`` clamp to the CPU count — the
    simulation is pure CPU work, so oversubscribing only adds process
    spawn and scheduling overhead (``--jobs 4`` on a 1-CPU box once *lost*
    35% end to end).  A clamp bumps the ``exec.jobs.clamped`` counter so
    ``--metrics`` surfaces it.
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


#: Aim each shipped chunk at roughly this much worker wall time: large
#: enough to amortize the pickle round-trip, small enough that expensive
#: cells (traced profiles) still load-balance across workers.
TARGET_CHUNK_S = 0.05

_EWMA_ALPHA = 0.5
_cell_cost_s: float | None = None


def _observe_cell_cost(cells: int, wall_s: float) -> None:
    """Fold one grid's measured per-cell cost into the running estimate."""
    global _cell_cost_s
    if cells <= 0 or wall_s <= 0.0:
        return
    cost = wall_s / cells
    _cell_cost_s = (
        cost
        if _cell_cost_s is None
        else _EWMA_ALPHA * cost + (1.0 - _EWMA_ALPHA) * _cell_cost_s
    )


def adaptive_chunk_size(
    n: int, jobs: int, cost_s: float | None = None
) -> int:
    """Chunk size for an ``n``-cell grid over ``jobs`` workers.

    Starts from the even one-chunk-per-worker split, then refines with the
    measured per-cell cost when one is available: cells expensive enough
    that :data:`TARGET_CHUNK_S` holds fewer of them get *smaller* chunks
    (more of them than workers), so a straggler chunk cannot serialize the
    grid.  Never below :data:`DEFAULT_MIN_CHUNK`
    (or the grid size, if smaller) — singleton chunks are pure IPC.
    """
    if n <= 0:
        return 1
    size = ceil(n / max(1, jobs))
    if cost_s is not None and cost_s > 0.0:
        by_cost = max(1, int(TARGET_CHUNK_S / cost_s))
        size = min(size, by_cost)
    return max(size, min(n, DEFAULT_MIN_CHUNK))


# ---------------------------------------------------------------------------
# Layer 2: the persistent warm worker pool
# ---------------------------------------------------------------------------

_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The process-wide executor, created once and grown on demand.

    Growing (a later call wants more workers than the pool was born with)
    recreates the executor; shrinking just leaves spare workers idle.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None and workers > _POOL_WORKERS:
        shutdown_pool()
    if _POOL is None:
        # Imported here: concurrent.futures.process pulls in multiprocessing,
        # which serial commands never need.
        from concurrent.futures import ProcessPoolExecutor

        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the warm pool and wait for its workers to exit (test
    isolation; also runs at interpreter exit).

    Waiting matters: an executor shut down without it keeps a manager
    thread closing its wake-up pipe, and the interpreter's exit hook for
    executors can write to that pipe mid-close (``OSError: [Errno 9]``).
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_WORKERS = 0


def pool_workers() -> int:
    """Current pool width (0 when no pool has been spawned)."""
    return _POOL_WORKERS if _POOL is not None else 0


atexit.register(shutdown_pool)


# -- worker-process side ----------------------------------------------------

#: one warm simulation session per (device, OOM mode), reused across
#: submissions for the life of the worker process
_WORKER_CONTEXTS: "dict[tuple[DeviceSpec, bool], SimulationContext]" = {}
#: cache-size watermark of the last shipment per warm context
_WORKER_SHIPPED: "dict[tuple[DeviceSpec, bool], int]" = {}


def _warm_chunk(
    device: DeviceSpec,
    check_memory: bool,
    fn: ChunkFn,
    chunk: list,
    trace: bool,
) -> ChunkShipment:
    """Worker body: run one chunk against the warm per-process context.

    The context's timing cache persists across submissions (that is the
    warmth); metrics and stats are swapped fresh per chunk so each
    shipment covers exactly one submission, and only cache entries newer
    than the last shipment travel home.
    """
    key = (device, check_memory)
    ctx = _WORKER_CONTEXTS.get(key)
    reused = ctx is not None
    if ctx is None:
        ctx = SimulationContext(device, check_memory=check_memory)
        _WORKER_CONTEXTS[key] = ctx
        _WORKER_SHIPPED[key] = 0

    reset_global_registry()
    ctx.metrics = MetricsRegistry()
    ctx.stats = SimStats(ctx.metrics)
    if reused:
        global_registry().counter("exec.pool.reuse").inc()

    tracer = install_tracer(Tracer(f"exec-worker-{os.getpid()}")) if trace else None
    try:
        if tracer is None:
            results = fn(ctx, chunk)
        else:
            with tracer.span("chunk", "exec.pool", items=len(chunk), warm=reused):
                results = fn(ctx, chunk)
    finally:
        if trace:
            uninstall_tracer()

    delta = ctx.export_delta(_WORKER_SHIPPED[key])
    _WORKER_SHIPPED[key] = ctx.cache_size
    spans = tracer.spans() if tracer is not None else ()
    events = tracer.events() if tracer is not None else ()
    return list(results), delta, ctx.stats, spans, events, global_registry(), reused


# -- parent side ------------------------------------------------------------


def map_chunks(
    fn: ChunkFn,
    cells: Sequence[Any],
    context: SimulationContext,
    jobs: int | str | None = None,
    chunk_size: int | None = None,
) -> list:
    """Run ``fn(context, chunk)`` over ``cells`` and flatten, in cell order.

    The grid-consumer entry point: ``fn`` receives a contiguous *chunk* of
    cells and returns one result per cell, so a serial run (resolved
    ``jobs`` <= 1) is exactly one call with the whole grid — zero
    chunking overhead.  With workers available the grid splits
    into adaptively-sized chunks over the persistent warm pool; worker
    cache deltas, counters, metrics, and (when tracing) span streams fold
    into ``context`` on join, and results are reassembled in submission
    order.  Both paths return identical results for deterministic ``fn``.
    """
    cells = list(cells)
    jobs_n = resolve_jobs(jobs)
    if jobs_n <= 1 or len(cells) <= 1:
        started = time.perf_counter()
        out = list(fn(context, cells))
        _observe_cell_cost(len(cells), time.perf_counter() - started)
        return out

    size = (
        chunk_size
        if chunk_size is not None
        else adaptive_chunk_size(len(cells), jobs_n, _cell_cost_s)
    )
    if size <= 0:
        raise ValueError("chunk_size must be positive")
    chunks = [cells[i : i + size] for i in range(0, len(cells), size)]
    if len(chunks) <= 1:
        started = time.perf_counter()
        out = list(fn(context, cells))
        _observe_cell_cost(len(cells), time.perf_counter() - started)
        return out

    tracer = active_tracer()
    registry = global_registry()
    out = []
    started = time.perf_counter()
    with obs_span(
        "exec:pool", "exec.pool", cells=len(cells), chunks=len(chunks), jobs=jobs_n
    ):
        pool = _get_pool(jobs_n)
        from concurrent.futures.process import BrokenProcessPool

        try:
            futures: list[Future[ChunkShipment]] = [
                pool.submit(
                    _warm_chunk,
                    context.device,
                    context.check_memory,
                    fn,
                    chunk,
                    tracer is not None,
                )
                for chunk in chunks
            ]
            # Submission order, not completion order: deterministic output.
            for future in futures:
                results, delta, stats, spans, events, metrics, reused = (
                    future.result()
                )
                context.absorb(delta, stats)
                registry.merge(metrics)
                if tracer is not None:
                    tracer.absorb(spans, events)
                    tracer.event(
                        "worker-merge",
                        "exec.pool",
                        spans=len(spans),
                        results=len(results),
                        warm=reused,
                    )
                out.extend(results)
        except BrokenProcessPool:
            shutdown_pool()
            raise
        registry.counter("exec.pool.chunks").inc(len(chunks))
    _observe_cell_cost(len(cells), time.perf_counter() - started)
    return out
