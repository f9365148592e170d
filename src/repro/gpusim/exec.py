"""Stubs kept for the whole-stack benchmark (ROADMAP item 1).

Nothing in the program calls these names.  Every grid — the layer sweeps,
calibration, the pooling autotuner, the pipeline's transform pricing and
the figure drivers — is a plain loop of :meth:`SimulationContext.run`,
which serves any kernel priced before from the session's structural
timing cache.  perfbench's traced runs wrap :func:`evaluate_cells` and
:func:`map_chunks`, and its client reads ``_POOL`` and calls
:func:`shutdown_pool`.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from .kernel import KernelModel
from .session import SimulationContext
from .timing import KernelStats

__all__ = ["evaluate_cells", "map_chunks", "shutdown_pool"]

#: perfbench's client reads this name; there is no pool.
_POOL = None


# perfbench's traced runs wrap this name; nothing in the program calls it.
def evaluate_cells(
    context: SimulationContext,
    models: Sequence[KernelModel],
) -> "list[KernelStats | Exception]":
    """``context.run(model)`` of each model, one slot per model; a slot
    holds the ``ValueError`` its run raises instead.  Any other exception
    propagates."""
    return [_slot(context, model) for model in models]


def _slot(context: SimulationContext, model: KernelModel) -> "KernelStats | Exception":
    # Caught here, not in the grid loop: an error's traceback then holds
    # this frame, not one that holds the whole grid and its results.
    try:
        return context.run(model)
    except ValueError as exc:
        return exc


# perfbench's client calls this after every run; there is no pool to stop.
def shutdown_pool() -> None:
    """No-op."""


# perfbench's traced runs wrap this name; nothing in the program calls it.
def map_chunks(
    fn: Callable[[SimulationContext, list], list],
    cells: Sequence[Any],
    context: SimulationContext,
) -> list:
    """``fn(context, cells)`` over the whole grid, as a list."""
    return list(fn(context, list(cells)))
