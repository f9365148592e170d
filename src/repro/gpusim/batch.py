"""A stub kept for the whole-stack benchmark.

Every grid is a loop of :meth:`SimulationContext.run`; there is no second
evaluator.
"""

from __future__ import annotations

from .exec import evaluate_cells

__all__ = ["evaluate_models"]


# perfbench's traced runs wrap this name; nothing in the program calls it.
def evaluate_models(context, models, check_memory=None):
    """:func:`~repro.gpusim.exec.evaluate_cells`."""
    return evaluate_cells(context, models, check_memory)
