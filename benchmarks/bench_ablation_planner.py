"""Ablation — what each planning ingredient contributes.

Compares, per network: the two single-layout worlds, the (Ct, Nt)
heuristic with fine-tuning, the optimal (min-cut) plan, the optimal plan
without FFT implementations, and the unreachable zero-transform-cost lower
bound.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.core import plan_optimal, plan_single_layout, plan_with_heuristic
from repro.networks import build_network
from repro.tensors import CHWN, NCHW

NETWORKS = ("lenet", "cifar", "alexnet", "zfnet", "vgg")


def _lower_bound_ms(device, netdef) -> float:
    """Every layer in its best layout with transforms priced at zero."""
    from repro.core.pipeline import ResolveShapes, run_pipeline
    from repro.core.planner import PLAN_LAYOUTS, _node_costs
    from repro.gpusim import default_context
    from repro.ir import lower_netdef

    ctx = default_context(device)
    graph = run_pipeline(
        device, lower_netdef(netdef), context=ctx, passes=[ResolveShapes()]
    ).graph
    costs = [_node_costs(ctx, n, device, True, True) for n in graph]
    return sum(min(c.cost(lo) for lo in PLAN_LAYOUTS) for c in costs)


def build_figure(device) -> FigureTable:
    table = FigureTable(
        "Ablation: planner variants, total network time (ms)",
        ["network", "all_chwn", "all_nchw", "heuristic", "optimal", "no_fft", "free_t"],
    )
    for name in NETWORKS:
        netdef = build_network(name)
        table.add(
            name,
            plan_single_layout(device, netdef, CHWN, tune_pooling=True).total_ms,
            plan_single_layout(device, netdef, NCHW, tune_pooling=True).total_ms,
            plan_with_heuristic(device, netdef).total_ms,
            plan_optimal(device, netdef).total_ms,
            plan_optimal(device, netdef, allow_fft=False).total_ms,
            _lower_bound_ms(device, netdef),
        )
    table.note("free_t = zero-cost-transform lower bound (unreachable)")
    return table


def test_ablation_planner(benchmark, device):
    table = benchmark(build_figure, device)
    for row in table.rows:
        name, chwn, nchw, heuristic, optimal, no_fft, free = row
        # Order constraints the planner must satisfy everywhere.
        assert optimal <= min(chwn, nchw) + 1e-9, name
        assert optimal <= heuristic + 1e-9, name
        assert optimal <= no_fft + 1e-9, name
        assert free <= optimal + 1e-9, name
        # Transform costs are real but not dominant: the plan lands within
        # 25% of the free-transform bound.
        assert optimal <= free * 1.25, name
    # FFT availability matters for at least one network (AlexNet-class).
    assert any(row[5] > row[4] * 1.05 for row in table.rows)
    # The heuristic is a good approximation of the optimal plan.
    assert all(row[3] <= row[4] * 1.6 for row in table.rows)


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
