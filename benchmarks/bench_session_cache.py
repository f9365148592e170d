"""Session-cache demonstration — the acceptance run for shared contexts.

Plans AlexNet twice against one :class:`SimulationContext`.  The second
(warm) pass must show a non-zero cache hit rate and strictly fewer kernel
timings than the first, while producing the identical plan at the identical
cost — the cache accelerates the planner, it never changes its answer.
"""

from __future__ import annotations

from figutil import FigureTable

from repro import build_network, plan_optimal
from repro.gpusim import SimulationContext


def build_figure(device) -> FigureTable:
    table = FigureTable(
        "Session cache: AlexNet planned twice in one context",
        ["pass", "plan_ms", "queries", "hits", "timed", "hit_rate"],
    )
    ctx = SimulationContext(device)
    for label in ("cold", "warm"):
        before_hits = ctx.stats.hits
        before_timed = ctx.stats.kernels_timed
        before_queries = ctx.stats.queries
        plan = plan_optimal(device, build_network("alexnet"), context=ctx)
        table.add(
            label,
            plan.total_ms,
            ctx.stats.queries - before_queries,
            ctx.stats.hits - before_hits,
            ctx.stats.kernels_timed - before_timed,
            (ctx.stats.hits - before_hits)
            / max(ctx.stats.queries - before_queries, 1),
        )
    table.note("warm pass re-plans from cache: zero new kernel timings")
    return table


def test_session_cache(benchmark, device):
    table = benchmark(build_figure, device)
    cold, warm = table.row("cold"), table.row("warm")
    # Identical plans, identical costs — caching never changes the answer.
    assert warm[1] == cold[1]
    # The warm pass is served from the cache: hit rate > 0 and strictly
    # fewer kernels timed than the cold pass.
    assert warm[5] > 0.0
    assert warm[4] < cold[4]
    assert warm[4] == 0
    assert cold[4] > 0


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
