"""Sweep execution engine: memoized grid evaluation.

This is the one runtime path between the grid producers
(:mod:`repro.analysis.sweeps`, :mod:`repro.core.calibration`,
:mod:`repro.core.autotune`, the pipeline's transform pricing, the figure
drivers) and the evaluator (:func:`repro.gpusim.batch.evaluate_models`,
which times each cell with the scalar model).  :func:`evaluate_cells`
consults the session's structural timing cache (the same
:func:`~repro.gpusim.session.structural_key` space
:meth:`SimulationContext.run` uses) before evaluating anything, and dedups
structurally-equal cells within a grid, so each distinct (kernel shape,
device) cell is evaluated exactly once per context no matter how many
sweep grids revisit it.  This is where the end-to-end time lives: a traced
NCHW pooling profile costs ~1000x a closed-form candidate, and the figure
suite re-prices the same pooling layers grid after grid.

Every grid runs serially, in one call, in the caller's
:class:`~repro.gpusim.session.SimulationContext`.  Everything stays
byte-identical to the scalar model (:meth:`SimulationContext.run`, the
tests' oracle): a memoized value is the value the same model computed the
first time.

Instrumentation (``repro.obs``): ``exec.cache.{hit,miss,dedup,error_hit}``
counters, the ``exec.batch.size`` histogram and one ``exec`` span per grid.
Metric *counts* can differ between a memoized and a cold run (that is the
point); every value derived from kernel stats is identical.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..obs.metrics import global_registry
from ..obs.tracer import span as obs_span
from .batch import evaluate_models
from .kernel import ComposedKernel, KernelModel
from .session import (
    GpuOutOfMemoryError,
    SimulationContext,
    _kind_of,
    structural_key,
)
from .timing import KernelStats

__all__ = ["evaluate_cells", "map_chunks", "shutdown_pool"]

#: perfbench's client reads this name; there is no pool.
_POOL = None


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


# perfbench's client calls this after every run; there is no pool to stop.
def shutdown_pool() -> None:
    """No-op."""


# perfbench's traced runs wrap this name; the program calls its grid
# functions directly.
def map_chunks(
    fn: Callable[[SimulationContext, list], list],
    cells: Sequence[Any],
    context: SimulationContext,
) -> list:
    """``fn(context, cells)`` over the whole grid, as a list."""
    return list(fn(context, list(cells)))
