"""Hill-climbing auto-tuner for pooling thread coarsening (Section V.A).

"With an initial factor of 2, the expansion factor continues to increase
linearly if the performance improves.  Otherwise it stops as further
expansion leads to high register pressure thus limiting the TLP."

The tuner climbs each direction (ux along W, uy along H) alternately; the
cost function is the simulated kernel time, in which larger tiles cut DRAM
traffic (shared window footprints) but raise register pressure and so
reduce occupancy — the exact trade-off the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext, default_context
from ..layers.base import PoolSpec
from ..layers.pooling_kernels import PoolingCHWN, PoolingCoarsenedCHWN


@dataclass(frozen=True)
class TuneResult:
    """Chosen expansion factors and the search trace."""

    ux: int
    uy: int
    time_ms: float
    baseline_ms: float
    evaluations: tuple[tuple[int, int, float], ...]

    @property
    def speedup(self) -> float:
        """Improvement over the un-coarsened CHWN kernel."""
        return self.baseline_ms / self.time_ms if self.time_ms else 0.0


def _time_ms(context: SimulationContext, spec: PoolSpec, u: tuple[int, int]) -> float:
    """Memoized simulated time (ms) of ``spec`` at factors ``u``; (1, 1)
    is the plain CHWN kernel."""
    model = (
        PoolingCHWN(spec) if u == (1, 1) else PoolingCoarsenedCHWN(spec, ux=u[0], uy=u[1])
    )
    return context.run(model, check_memory=False).time_ms


def autotune_pooling(
    device: DeviceSpec,
    spec: PoolSpec,
    max_factor: int = 8,
    initial: int = 2,
    context: SimulationContext | None = None,
) -> TuneResult:
    """Hill-climb (ux, uy) for one pooling layer.

    Starts from the paper's initial factor of 2 in each direction, grows one
    direction at a time while the simulated time improves, and stops on the
    first regression (the pruning heuristic of Section V.A).  Falls back to
    (1, 1) — the plain kernel — when no expansion helps, which is what
    happens for non-overlapped pooling where there is no shared data to
    reuse.
    """
    if max_factor < 1 or initial < 1:
        raise ValueError("factors must be at least 1")
    ctx = context or default_context(device)
    baseline = _time_ms(ctx, spec, (1, 1))
    trace = [(1, 1, baseline)]
    best_u, best_t = (1, 1), baseline
    start = (initial, initial)
    t = _time_ms(ctx, spec, start)
    trace.append((*start, t))
    improving = t < best_t
    if improving:
        best_u, best_t = start, t
    while improving:
        improving = False
        for dim in (0, 1):
            grown = list(best_u)
            grown[dim] = min(max_factor, grown[dim] + 1)
            cand = (grown[0], grown[1])
            if cand == best_u:
                continue
            t = _time_ms(ctx, spec, cand)
            trace.append((*cand, t))
            if t < best_t:
                best_u, best_t = cand, t
                improving = True
    return TuneResult(
        ux=best_u[0],
        uy=best_u[1],
        time_ms=best_t,
        baseline_ms=baseline,
        evaluations=tuple(trace),
    )


def autotune_pooling_many(
    device: DeviceSpec,
    specs: Sequence[PoolSpec],
    max_factor: int = 8,
    initial: int = 2,
    context: SimulationContext | None = None,
) -> list[TuneResult]:
    """:func:`autotune_pooling` of each spec in order, on one context — the
    shape of the Fig. 12 benchmark."""
    ctx = context or default_context(device)
    return [autotune_pooling(device, spec, max_factor, initial, ctx) for spec in specs]
