"""Pass-level unit tests for the pipeline, plus DAG planning end-to-end."""

import pytest

from repro.core.fusion import can_fuse_softmax
from repro.core.pipeline import (
    EliminateRedundantTransforms,
    InsertTransforms,
    PipelineOptions,
    TransformCostTable,
    plan_network,
    run_pipeline,
)
from repro.framework import Net, Trainer
from repro.ir.graph import Graph, GraphNode, NodeKind
from repro.layers import SoftmaxSpec
from repro.networks import NETWORK_BUILDERS, build_network
from repro.tensors import CHWN, NCHW


class PricedInsertTransforms(InsertTransforms):
    """``InsertTransforms`` on a hand-built graph: it prices the graph's
    edges first, which ``AssignLayouts`` does in the full pipeline."""

    def run(self, graph, ctx):
        ctx.edge_costs.precompute(graph)
        return super().run(graph, ctx)


def sandwich_graph() -> Graph:
    """conv(CHWN) -> lrn(NCHW) -> conv(CHWN): the LRN is layout-agnostic,
    so its NCHW label forces a transform-inverse pair around it."""
    dims = (64, 32, 16, 16)
    g = Graph("sandwich", batch=64, in_channels=32, in_h=16, in_w=16)
    g.add(GraphNode("conv1", NodeKind.CONV, in_dims=dims, out_dims=dims, layout=CHWN))
    g.add(
        GraphNode(
            "lrn", NodeKind.ELEMENTWISE, inputs=("conv1",),
            in_dims=dims, out_dims=dims, layout=NCHW,
        )
    )
    g.add(
        GraphNode(
            "conv2", NodeKind.CONV, inputs=("lrn",),
            in_dims=dims, out_dims=dims, layout=CHWN,
        )
    )
    return g


class TestTransformCostTable:
    def test_unpriced_edge_raises_naming_it(self, device):
        g = sandwich_graph()
        table = TransformCostTable(device)
        with pytest.raises(KeyError, match="conv1->lrn: transform CHWN->NCHW"):
            table.edge_ms(g["conv1"], g["lrn"], CHWN, NCHW)
        assert table.precompute(g) == 2  # one shape, both directions
        assert table.edge_ms(g["conv1"], g["lrn"], CHWN, NCHW) > 0
        assert table.edge_ms(g["conv1"], g["lrn"], NCHW, NCHW) == 0.0


class TestEliminateRedundantTransforms:
    def test_cancels_pair_across_agnostic_node(self, device):
        result = run_pipeline(
            device,
            sandwich_graph(),
            passes=[PricedInsertTransforms(), EliminateRedundantTransforms()],
        )
        insert, eliminate = result.trace
        assert insert.stats["inserted"] == 2  # into lrn, back into conv2
        assert eliminate.stats["relabeled"] == ("lrn",)
        assert eliminate.stats["removed"] == 2
        assert eliminate.stats["added"] == 0
        assert eliminate.stats["ms_saved"] > 0
        assert result.graph["lrn"].layout == CHWN
        assert all(n.transforms == () for n in result.graph)

    def test_noop_when_layouts_agree(self, device):
        g = sandwich_graph()
        g["lrn"].layout = CHWN
        result = run_pipeline(
            device, g, passes=[PricedInsertTransforms(), EliminateRedundantTransforms()]
        )
        eliminate = result.trace[1]
        assert eliminate.stats["relabeled"] == ()
        assert eliminate.stats["removed"] == 0
        assert eliminate.stats["ms_saved"] == 0

    def test_does_not_touch_layout_bearing_nodes(self, device):
        """A pool between the convs is layout-bearing: its label encodes a
        real kernel choice, so the pass must leave the transforms alone."""
        g = sandwich_graph()
        lrn = g["lrn"]
        g.nodes["lrn"] = GraphNode(
            "lrn", NodeKind.POOL, inputs=lrn.inputs,
            in_dims=lrn.in_dims, out_dims=lrn.out_dims, layout=NCHW,
        )
        result = run_pipeline(
            device, g, passes=[PricedInsertTransforms(), EliminateRedundantTransforms()]
        )
        eliminate = result.trace[1]
        assert eliminate.stats["relabeled"] == ()
        assert result.graph["lrn"].layout == NCHW
        assert len(result.graph["lrn"].transforms) == 1

    def test_opt_out_by_omitting_the_pass(self, device):
        """Leaving the pass out of ``passes`` keeps the pair in place."""
        result = run_pipeline(
            device, sandwich_graph(), passes=[PricedInsertTransforms()]
        )
        assert [t.name for t in result.trace] == ["InsertTransforms"]
        assert result.graph["lrn"].layout == NCHW
        assert len(result.graph["conv2"].transforms) == 1


class TestFuseKernels:
    @pytest.mark.parametrize("network", sorted(NETWORK_BUILDERS))
    def test_tags_exactly_the_fusable_softmax_nodes(self, device, network):
        result = plan_network(device, build_network(network))
        fusable = {
            node.name
            for node in result.graph
            if node.kind is NodeKind.CLASSIFIER
            and isinstance(node.spec, SoftmaxSpec)
            and can_fuse_softmax(node.spec, device)
        }
        assert fusable
        tagged = {node.name for node in result.graph if node.fused is not None}
        assert tagged == fusable
        assert all(result.graph[name].fused == "softmax-fuse" for name in tagged)
        (fuse,) = [t for t in result.trace if t.name == "FuseKernels"]
        assert fuse.stats == {"matched": {"softmax-fuse": len(fusable)}}


class TestBranchingNetwork:
    @pytest.fixture(scope="class")
    def heuristic(self, device):
        return plan_network(
            device, build_network("inception"), PipelineOptions(strategy="heuristic")
        )

    def test_eliminates_round_trip_at_concat(self, heuristic):
        """The acceptance criterion: the heuristic labels the concat NCHW
        (wide output) between CHWN branches and a CHWN pool; relabeling it
        cancels the b3b->concat->pool3 transform-inverse pair."""
        trace = {t.name: t for t in heuristic.trace}
        stats = trace["EliminateRedundantTransforms"].stats
        assert "concat" in stats["relabeled"]
        assert stats["removed"] >= 2
        assert stats["ms_saved"] > 0

    def test_plan_covers_every_layer(self, heuristic):
        netdef = build_network("inception")
        assert [n.name for n in heuristic.graph] == [
            layer.name for layer in netdef.layers
        ]
        assert heuristic.total_ms > 0

    def test_optimal_no_worse_than_heuristic(self, device, heuristic):
        optimal = plan_network(
            device, build_network("inception"), PipelineOptions(strategy="optimal")
        )
        assert optimal.total_ms <= heuristic.total_ms + 1e-9

    def test_legacy_chain_entry_points_refuse(self):
        net = Net(build_network("inception"))
        with pytest.raises(ValueError, match="linear networks only"):
            Trainer(net)

    def test_explain_lists_every_pass(self, heuristic):
        text = heuristic.explain()
        for name in (
            "ResolveShapes", "AssignLayouts", "InsertTransforms",
            "EliminateRedundantTransforms", "FuseKernels",
            "SelectImplementations",
        ):
            assert name in text
