"""Grid evaluation: one slot per cell, each priced through the session memo.

This is the one runtime path between the grid producers
(:mod:`repro.analysis.sweeps`, :mod:`repro.core.calibration`,
:mod:`repro.core.autotune`, the pipeline's transform pricing, the figure
drivers) and the simulator.  :func:`evaluate_cells` asks
:meth:`SimulationContext.run` for each cell, so a cell priced by any
earlier grid, or by a plain ``context.run``, is served from the session's
structural timing cache, and structurally-equal cells within one grid are
timed once.  Every grid runs serially, in one call, in the caller's
:class:`~repro.gpusim.session.SimulationContext`.

Instrumentation (``repro.obs``): one ``exec`` span per grid, with each
cell's ``sim.kernel`` span nested under it; the session's ``sim.queries.*``
counters count the hits and misses.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..obs.tracer import span as obs_span
from .kernel import KernelModel
from .session import GpuOutOfMemoryError, SimulationContext
from .timing import KernelStats

__all__ = ["evaluate_cells", "map_chunks", "shutdown_pool"]

#: perfbench's client reads this name; there is no pool.
_POOL = None


def evaluate_cells(
    context: SimulationContext,
    models: Sequence[KernelModel],
    check_memory: bool | None = None,
) -> "list[KernelStats | Exception]":
    """Price a grid of kernel models on ``context``, one slot per model.

    Each slot holds what ``context.run(model, check_memory)`` returns, or
    the exception it raises (``GpuOutOfMemoryError`` or a ``ValueError``
    such as ``LaunchValidationError``), so grid consumers keep their
    per-candidate error handling while the rest of the grid evaluates;
    any other exception is a bug and propagates.
    """
    models = list(models)
    if not models:
        return []
    with obs_span("exec:grid", "exec", cells=len(models)):
        return [_slot(context, model, check_memory) for model in models]


def _slot(
    context: SimulationContext, model: KernelModel, check_memory: bool | None
) -> "KernelStats | Exception":
    # Caught here, not in the grid loop: an error's traceback then holds
    # this frame, not one that holds the whole grid and its results.
    try:
        return context.run(model, check_memory)
    except (GpuOutOfMemoryError, ValueError) as exc:
        return exc


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
