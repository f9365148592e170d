"""Layout planner: min-cut optimality, heuristic quality, transform accounting."""

import itertools

import pytest

from repro.core import (
    plan_optimal,
    plan_single_layout,
    plan_with_heuristic,
)
from repro.core.pipeline import ResolveShapes, run_pipeline
from repro.core.planner import PLAN_LAYOUTS, NodeKind, _node_costs
from repro.core.pipeline import PipelineOptions
from repro.framework import ConvDef, LRNDef, NetworkDef
from repro.gpusim import TITAN_BLACK, TITAN_X, default_context
from repro.ir import lower_netdef
from repro.networks import build_network
from repro.networks.definitions import NETWORK_BUILDERS
from repro.tensors import CHWN, NCHW, NHWC, TensorDesc
from repro.tensors.transform_kernels import transform_time_ms

CHAIN_NETWORKS = tuple(
    name for name in NETWORK_BUILDERS if lower_netdef(build_network(name)).is_chain()
)


# -- local oracle: the chain planner's per-node pricing, written out -------


def _resolved_nodes(device, netdef):
    """The network's graph nodes with shapes and fixed costs resolved, in
    layer order: what the layout passes price."""
    graph = run_pipeline(device, lower_netdef(netdef), passes=[ResolveShapes()]).graph
    return graph.topological()


def _oracle_costs(device, nodes, tune_pooling):
    ctx = default_context(device)
    return [_node_costs(ctx, n, device, tune_pooling, True) for n in nodes]


def _oracle_transform_ms(device, node, src, dst):
    """A transform moves the node's input tensor; classifiers flatten it,
    so they never need one."""
    if src == dst or node.in_dims is None or node.kind is NodeKind.CLASSIFIER:
        return 0.0
    desc = TensorDesc(*node.in_dims, layout=src)
    return transform_time_ms(device, desc, dst, method="auto")


def _planned_rows(plan):
    """Per node: name, layout (conv/pool only), implementation, time,
    coarsening and transform time, as the planned graph records them."""
    return [
        (
            n.name,
            n.kernel_layout,
            n.implementation,
            n.layer_ms,
            n.coarsening,
            n.transform_ms,
        )
        for n in plan.graph
    ]


def _oracle_single_layout(device, nodes, layout, tune_pooling):
    rows = []
    for node, cost in zip(nodes, _oracle_costs(device, nodes, tune_pooling)):
        layer_ms, impl, coarsen = cost.choice(layout)
        bearing = node.kind in (NodeKind.CONV, NodeKind.POOL)
        rows.append(
            (node.name, layout if bearing else None, impl, layer_ms, coarsen, 0.0)
        )
    return rows


@pytest.fixture(scope="module")
def alexnet():
    return build_network("alexnet")


@pytest.fixture(scope="module")
def lenet():
    return build_network("lenet")


class TestSingleLayoutPlans:
    def test_both_layouts_produce_plans(self, device, lenet):
        for layout in (CHWN, NCHW):
            plan = plan_single_layout(device, lenet, layout)
            assert plan.total_ms > 0
            assert plan.transform_count == 0

    def test_lenet_prefers_chwn_globally(self, device, lenet):
        chwn = plan_single_layout(device, lenet, CHWN)
        nchw = plan_single_layout(device, lenet, NCHW)
        assert chwn.total_ms < nchw.total_ms

    @pytest.mark.parametrize("layout", [CHWN, NCHW], ids=str)
    @pytest.mark.parametrize("network", CHAIN_NETWORKS)
    def test_matches_oracle_step_for_step(self, device, network, layout):
        netdef = build_network(network)
        nodes = _resolved_nodes(device, netdef)
        for tune_pooling in (False, True):
            plan = plan_single_layout(device, netdef, layout, tune_pooling=tune_pooling)
            expected = _oracle_single_layout(device, nodes, layout, tune_pooling)
            assert _planned_rows(plan) == expected, tune_pooling
            assert (plan.device, plan.strategy) == (device.name, f"single-{layout}")

    def test_layout_outside_the_planning_pair_is_rejected(self, device, lenet):
        """Only CHWN and NCHW have a priced implementation per layer; any
        other layout fails up front, naming the allowed ones."""
        with pytest.raises(ValueError, match=r"\(CHWN, NCHW\), got NHWC"):
            plan_single_layout(device, lenet, NHWC)
        with pytest.raises(ValueError, match="got None"):
            PipelineOptions(strategy="single")

    def test_unknown_strategy_is_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
            PipelineOptions(strategy="greedy")


class TestOptimalPlan:
    def test_never_worse_than_any_single_layout(self, device, alexnet):
        opt = plan_optimal(device, alexnet)
        for layout in PLAN_LAYOUTS:
            single = plan_single_layout(device, alexnet, layout, tune_pooling=True)
            assert opt.total_ms <= single.total_ms + 1e-9

    def test_matches_brute_force_on_small_chain(self, device, lenet):
        """The min-cut plan == exhaustive enumeration over layout assignments."""
        nodes = _resolved_nodes(device, lenet)
        costs = _oracle_costs(device, nodes, tune_pooling=True)
        best_total = None
        for combo in itertools.product(PLAN_LAYOUTS, repeat=len(nodes)):
            total = costs[0].cost(combo[0])
            for i in range(1, len(nodes)):
                total += _oracle_transform_ms(device, nodes[i], combo[i - 1], combo[i])
                total += costs[i].cost(combo[i])
            best_total = total if best_total is None else min(best_total, total)
        dp = plan_optimal(device, lenet)
        assert dp.total_ms == pytest.approx(best_total, rel=1e-9)

    @pytest.mark.parametrize("network", sorted(NETWORK_BUILDERS))
    @pytest.mark.parametrize("gpu", [TITAN_BLACK, TITAN_X], ids=lambda d: d.name)
    def test_never_worse_than_heuristic(self, gpu, network):
        """The min cut is exact, so the heuristic can only tie or lose, on
        chains and on the branching network alike."""
        netdef = build_network(network)
        optimal = plan_optimal(gpu, netdef)
        heuristic = plan_with_heuristic(gpu, netdef)
        assert optimal.total_ms <= heuristic.total_ms + 1e-9

    def test_alexnet_plan_matches_paper_fig15(self, device, alexnet):
        """Fig. 15: CHWN for CV1, NCHW for CV2-CV5, CHWN pooling, and a
        small number of transforms ('four data layout transformations')."""
        plan = plan_optimal(device, alexnet)
        graph = plan.graph
        assert graph["conv1"].layout == CHWN
        for conv in ("conv2", "conv3", "conv4", "conv5"):
            assert graph[conv].layout == NCHW, conv
        for pool in ("pool1", "pool2", "pool3"):
            assert graph[pool].layout == CHWN, pool
        assert 2 <= plan.transform_count <= 6

    def test_transform_overhead_is_minor(self, device, alexnet):
        """Fig. 15: 'only minor overhead is incurred'."""
        plan = plan_optimal(device, alexnet)
        assert plan.transform_ms < 0.1 * plan.total_ms

    def test_empty_chain(self, device):
        plan = plan_optimal(device, NetworkDef("empty", 1, 1, 1, 1))
        assert plan.total_ms == 0.0


class TestHeuristicPlan:
    def test_close_to_optimal_on_all_networks(self, device):
        for name in ("lenet", "cifar", "zfnet"):
            netdef = build_network(name)
            heuristic = plan_with_heuristic(device, netdef)
            optimal = plan_optimal(device, netdef)
            assert heuristic.total_ms <= 1.5 * optimal.total_ms, name

    def test_lenet_is_all_chwn_no_transforms(self, device, lenet):
        plan = plan_with_heuristic(device, lenet)
        conv_pool = [n for n in plan.graph if n.kind in (NodeKind.CONV, NodeKind.POOL)]
        assert all(n.layout == CHWN for n in conv_pool)
        assert plan.transform_count == 0

    def test_summary_renders(self, device, lenet):
        plan = plan_with_heuristic(device, lenet)
        text = plan.summary()
        assert "conv1" in text and "ms" in text


class TestSingleLayerNetworks:
    def test_isolated_conv_layer(self, device):
        from repro.networks import CONV_LAYERS

        # Table 1's CV7: N=64, C=256, 13x13 input, 384 3x3 filters, pad 1
        cv7 = NetworkDef(
            "cv7", 64, 256, 13, 13, layers=(ConvDef("cv7", co=384, f=3, pad=1),)
        )
        (node,) = _resolved_nodes(device, cv7)
        assert node.spec == CONV_LAYERS["CV7"]
        plan = plan_optimal(device, cv7)
        assert plan.graph["cv7"].layout == NCHW  # NCHW wins CV7

    def test_elementwise_layers_are_transparent(self, device):
        lrn = NetworkDef("lrn", 8, 8, 8, 8, layers=(LRNDef("norm"),))
        (node,) = _resolved_nodes(device, lrn)
        assert node.fixed_ms > 0
        plan = plan_optimal(device, lrn)
        assert plan.graph["norm"].layer_ms == node.fixed_ms
        # layout-transparent: the plan shows no layout for it
        row = plan.summary().splitlines()[1].split()
        assert row[:3] == ["norm", "elementwise", "-"]
