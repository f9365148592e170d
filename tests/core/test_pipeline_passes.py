"""Pass-level unit tests for the pipeline, plus DAG planning end-to-end."""

import pytest

from repro.core.pipeline import (
    InsertTransforms,
    Pass,
    PipelineOptions,
    TransformCostTable,
    _finetune_regions,
    plan_network,
    run_pipeline,
)
from repro.core.planner import _LayerCosts
from repro.framework import Net, Trainer
from repro.gpusim import SimulationContext
from repro.gpusim.session import global_sim_stats, reset_default_contexts
from repro.ir.graph import EdgeTransform, Graph, GraphNode, NodeKind
from repro.networks import build_network
from repro.tensors import CHWN, NCHW


class PricedInsertTransforms(InsertTransforms):
    """``InsertTransforms`` on a hand-built graph: it prices the graph's
    edges first, which ``AssignLayouts`` does in the full pipeline."""

    def run(self, graph, ctx):
        ctx.edge_costs.precompute(graph)
        return super().run(graph, ctx)


class HandCostedFinetune(Pass):
    """``AssignLayouts``' heuristic branch on a hand-built graph: the
    graph's labels are the starting layouts and ``node_ms`` gives each
    node's (CHWN, NCHW) cost in place of the kernel models."""

    name = "HandCostedFinetune"

    def __init__(self, node_ms):
        super().__init__()
        self.node_ms = node_ms

    def run(self, graph, ctx):
        ctx.edge_costs.precompute(graph)
        ctx.costs = {
            name: _LayerCosts(
                graph[name],
                {str(CHWN): (chwn, "hand", None), str(NCHW): (nchw, "hand", None)},
            )
            for name, (chwn, nchw) in self.node_ms.items()
        }
        layouts = _finetune_regions(graph, ctx, {n.name: n.layout for n in graph})
        for node in graph:
            node.layout = layouts[node.name]
        return graph


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


def join_graph() -> Graph:
    """Inception's join in miniature: a CHWN branch and an NCHW branch
    meet at an NCHW-labeled concat feeding a CHWN pool.  The concat shares
    its region with the NCHW branch, so no whole-region flip moves it, and
    its label forces a transform-inverse pair (a -> concat -> pool)."""
    half, full = (64, 16, 8, 8), (64, 32, 8, 8)
    g = Graph("join", batch=64, in_channels=16, in_h=8, in_w=8)
    g.add(GraphNode("a", NodeKind.CONV, in_dims=half, out_dims=half, layout=CHWN))
    g.add(GraphNode("b", NodeKind.CONV, in_dims=half, out_dims=half, layout=NCHW))
    g.add(
        GraphNode(
            "concat", NodeKind.CONCAT, inputs=("a", "b"),
            in_dims=full, out_dims=full, layout=NCHW,
        )
    )
    g.add(
        GraphNode(
            "pool", NodeKind.POOL, inputs=("concat",),
            in_dims=full, out_dims=full, layout=CHWN,
        )
    )
    return g


#: (CHWN, NCHW) costs: each layout-bearing node strongly prefers its
#: label, and the concat costs the same under both
JOIN_MS = {"a": (1.0, 9.0), "b": (9.0, 1.0), "concat": (0.5, 0.5), "pool": (1.0, 9.0)}


class TestTransformCostTable:
    def test_unpriced_edge_raises_naming_it(self, device):
        g = sandwich_graph()
        table = TransformCostTable(SimulationContext(device))
        with pytest.raises(KeyError, match="conv1->lrn: transform CHWN->NCHW"):
            table.edge_ms(g["conv1"], g["lrn"], CHWN, NCHW)
        assert table.precompute(g) == 2  # one shape, both directions
        assert table.edge_ms(g["conv1"], g["lrn"], CHWN, NCHW) > 0
        assert table.edge_ms(g["conv1"], g["lrn"], NCHW, NCHW) == 0.0

    def test_transforms_are_priced_on_the_plan_context(self, device):
        """A caller's context times and counts the plan's transforms, so
        no other session (the device's default one included) sees them."""
        reset_default_contexts()
        context = SimulationContext(device)
        result = plan_network(device, build_network("alexnet"), context=context)
        assert any(node.transforms for node in result.graph)
        assert context.stats.by_kind["transform"].misses > 0
        assert global_sim_stats().queries == 0


class TestAgnosticRelabel:
    """The heuristic fine-tune's last step: a layout-agnostic node flips
    alone when its incident transforms get strictly cheaper."""

    def test_cancels_pair_across_agnostic_node(self, device):
        result = run_pipeline(
            device,
            join_graph(),
            passes=[HandCostedFinetune(JOIN_MS), PricedInsertTransforms()],
        )
        graph = result.graph
        assert [graph[n].layout for n in ("a", "b", "concat", "pool")] == [
            CHWN, NCHW, CHWN, CHWN,
        ]
        # one transform, on the NCHW branch, replaces the a/pool pair
        (into_concat,) = graph["concat"].transforms
        assert into_concat == EdgeTransform("b", NCHW, CHWN, into_concat.ms)
        assert graph["pool"].transforms == ()
        assert result.trace[-1].stats["inserted"] == 1

    def test_noop_when_layouts_agree(self, device):
        g = join_graph()
        g["b"].layout = g["concat"].layout = CHWN
        result = run_pipeline(
            device,
            g,
            passes=[
                HandCostedFinetune({**JOIN_MS, "b": (1.0, 9.0)}),
                PricedInsertTransforms(),
            ],
        )
        assert {n.layout for n in result.graph} == {CHWN}
        assert all(n.transforms == () for n in result.graph)

    def test_does_not_touch_layout_bearing_nodes(self, device):
        """A pool between the convs is layout-bearing: its label encodes a
        real kernel choice, so the pair around it stays when its NCHW
        saving pays for both transforms."""
        g = sandwich_graph()
        lrn = g["lrn"]
        g.nodes["lrn"] = GraphNode(
            "lrn", NodeKind.POOL, inputs=lrn.inputs,
            in_dims=lrn.in_dims, out_dims=lrn.out_dims, layout=NCHW,
        )
        node_ms = {"conv1": (1.0, 9.0), "lrn": (90.0, 1.0), "conv2": (1.0, 9.0)}
        result = run_pipeline(
            device, g, passes=[HandCostedFinetune(node_ms), PricedInsertTransforms()]
        )
        assert result.graph["lrn"].layout == NCHW
        assert len(result.graph["lrn"].transforms) == 1
        assert len(result.graph["conv2"].transforms) == 1

    def test_insert_transforms_alone_keeps_the_pair(self, device):
        """``InsertTransforms`` materializes the labels it is given; only
        the layout assignment relabels."""
        result = run_pipeline(device, join_graph(), passes=[PricedInsertTransforms()])
        assert [t.name for t in result.trace] == ["InsertTransforms"]
        assert result.graph["concat"].layout == NCHW
        assert [t.src for t in result.graph["concat"].transforms] == ["a"]
        assert len(result.graph["pool"].transforms) == 1


class TestBranchingNetwork:
    @pytest.fixture(scope="class")
    def heuristic(self, device):
        return plan_network(
            device, build_network("inception"), PipelineOptions(strategy="heuristic")
        )

    def test_eliminates_round_trip_at_concat(self, heuristic):
        """The acceptance criterion: the region sweeps leave the concat
        NCHW (wide output) between CHWN branches and a CHWN pool; the
        fine-tune's agnostic relabel turns it CHWN, cancelling the
        b3b->concat->pool3 transform-inverse pair for one transform per
        NCHW branch."""
        graph = heuristic.graph
        assert graph["concat"].layout == CHWN
        assert graph["pool3"].transforms == ()
        into_concat = {t.src for t in graph["concat"].transforms}
        assert into_concat == {
            src for src in graph["concat"].inputs if graph[src].layout == NCHW
        }
        assert "b3b" not in into_concat

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
        passes = [
            "ResolveShapes", "AssignLayouts", "InsertTransforms",
            "SelectImplementations",
        ]
        assert [t.name for t in heuristic.trace] == passes
        text = heuristic.explain()
        for name in passes:
            assert name in text
