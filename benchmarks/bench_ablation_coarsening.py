"""Ablation — pooling working-set expansion: exhaustive sweep vs hill climb.

Shows the trade-off surface the auto-tuner navigates (traffic falls with
the tile, occupancy falls with register pressure) and verifies the paper's
hill-climbing search finds the exhaustive optimum at a fraction of the
evaluations.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.core import autotune_pooling
from repro.gpusim import default_context
from repro.layers import PoolingCHWN, PoolingCoarsenedCHWN
from repro.networks import POOL_LAYERS

FACTORS = (1, 2, 3, 4, 6, 8)


def sweep(ctx, spec) -> dict[tuple[int, int], float]:
    times = {}
    for ux in FACTORS:
        for uy in FACTORS:
            if (ux, uy) == (1, 1):
                times[(1, 1)] = ctx.run(PoolingCHWN(spec)).time_ms
            else:
                times[(ux, uy)] = ctx.run(PoolingCoarsenedCHWN(spec, ux, uy)).time_ms
    return times


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Ablation: exhaustive (ux, uy) sweep vs the paper's hill climb",
        ["layer", "best_grid", "grid_ms", "tuned", "tuned_ms", "evals", "grid_evals"],
    )
    for name in ("PL3", "PL5", "PL6", "PL8"):
        spec = POOL_LAYERS[name]
        times = sweep(ctx, spec)
        best = min(times, key=lambda k: times[k])
        tuned = autotune_pooling(device, spec, max_factor=max(FACTORS))
        table.add(
            name,
            f"{best[0]}x{best[1]}",
            times[best],
            f"{tuned.ux}x{tuned.uy}",
            tuned.time_ms,
            len(tuned.evaluations),
            len(times),
        )
    table.note("hill climbing must land within 10% of the exhaustive optimum")
    return table


def test_ablation_coarsening(benchmark, device):
    table = benchmark(build_figure, device)
    for row in table.rows:
        _, _, grid_ms, _, tuned_ms, evals, grid_evals = row
        assert tuned_ms <= grid_ms * 1.10  # near-optimal
        assert evals < grid_evals / 2  # and much cheaper


def test_tradeoff_surface_has_interior_optimum(device):
    """Bigger is not always better: at large factors register pressure
    throttles occupancy and time goes back up."""
    ctx = default_context(device)
    spec = POOL_LAYERS["PL8"]
    t2 = ctx.run(PoolingCoarsenedCHWN(spec, 2, 2)).time_ms
    t8 = ctx.run(PoolingCoarsenedCHWN(spec, 8, 8)).time_ms
    t_best = autotune_pooling(device, spec, max_factor=8).time_ms
    assert t_best <= min(t2, t8)
    assert t8 > t_best  # the extreme tile regressed


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
