"""Grid evaluation of kernel models with in-slot error capture.

:func:`evaluate_models` prices a list of kernel models against one
session's device and returns one slot per model: its
:class:`~repro.gpusim.timing.KernelStats`, or the exception the scalar
``context.run`` would have raised for it.  Every leaf goes through the
one analytic model, :func:`~repro.gpusim.timing.time_model`, in the order
``context.run`` uses (fit check, then timing, sub-kernel by sub-kernel),
and composed kernels fold through the same ``SequenceStats`` collapse, so
each slot equals ``context.run``'s result for that model.

It neither consults nor populates the structural timing cache:
:func:`repro.gpusim.exec.evaluate_cells` memoizes in front of it and
hands it only the cells it has not priced yet.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence

from ..obs.metrics import global_registry
from ..obs.tracer import span as obs_span
from .kernel import ComposedKernel, KernelModel
from .session import (
    GpuOutOfMemoryError,
    SequenceStats,
    _collapse_sequence,
    _kind_of,
)
from .timing import KernelStats, time_model

if TYPE_CHECKING:
    from .session import SimulationContext

__all__ = ["evaluate_models"]


def _evaluate(
    context: "SimulationContext",
    model: KernelModel,
    check_memory: bool | None,
    timed: list[str],
) -> KernelStats:
    """``context.run`` without the cache: appends each timed leaf's kind."""
    if isinstance(model, ComposedKernel):
        seq = SequenceStats(
            name=model.name,
            kernels=tuple(
                _evaluate(context, sub, check_memory, timed)
                for sub in model.kernels
            ),
        )
        return _collapse_sequence(seq, context.device)
    context._check_fit(model, check_memory, None)
    stats = time_model(context.device, model)
    timed.append(_kind_of(model))
    return stats


def evaluate_models(
    context: "SimulationContext",
    models: Sequence[KernelModel],
    check_memory: bool | None = None,
) -> "list[KernelStats | Exception]":
    """Evaluate many kernel models against ``context``'s device.

    Returns one slot per model, either its :class:`KernelStats` or the
    exception ``context.run`` raises for it (``GpuOutOfMemoryError`` or a
    ``ValueError`` such as ``LaunchValidationError``), so grid consumers
    keep their per-candidate error handling; any other exception is a bug
    and propagates.  A failed model's leaves do not count as candidates.
    """
    models = list(models)
    if not models:
        return []

    results: "list[KernelStats | Exception]" = []
    kind_counts: dict[str, int] = {}
    with obs_span("batch:eval", "batch.eval", models=len(models)) as sp:
        started = time.perf_counter()
        for model in models:
            timed: list[str] = []
            try:
                results.append(_evaluate(context, model, check_memory, timed))
            except (GpuOutOfMemoryError, ValueError) as exc:
                results.append(exc)
                continue
            for kind in timed:
                kind_counts[kind] = kind_counts.get(kind, 0) + 1
        context.stats.record_batch(kind_counts, wall_s=time.perf_counter() - started)

        candidates = sum(kind_counts.values())
        registry = global_registry()
        registry.counter("batch.eval.batches").inc()
        registry.counter("batch.eval.candidates").inc(candidates)
        registry.histogram("batch.eval.size").observe(candidates)
        if sp is not None:
            sp.attrs["candidates"] = candidates
    return results
