"""Structural tests for the network-graph IR."""

import pytest

from repro.ir.graph import (
    EdgeTransform,
    Graph,
    GraphError,
    GraphNode,
    NodeKind,
)
from repro.tensors import CHWN, NCHW


def chain_graph() -> Graph:
    g = Graph("tiny", batch=4, in_channels=3, in_h=8, in_w=8)
    g.add(GraphNode("conv1", NodeKind.CONV))
    g.add(GraphNode("pool1", NodeKind.POOL, inputs=("conv1",)))
    g.add(GraphNode("fc", NodeKind.CLASSIFIER, inputs=("pool1",)))
    return g


def branch_graph() -> Graph:
    g = Graph("branchy", batch=4, in_channels=3, in_h=8, in_w=8)
    g.add(GraphNode("stem", NodeKind.CONV))
    g.add(GraphNode("a", NodeKind.CONV, inputs=("stem",)))
    g.add(GraphNode("b", NodeKind.CONV, inputs=("stem",)))
    g.add(GraphNode("join", NodeKind.CONCAT, inputs=("a", "b")))
    return g


class TestNodeKind:
    def test_layout_bearing(self):
        assert NodeKind.CONV.layout_bearing and NodeKind.POOL.layout_bearing
        assert not NodeKind.ELEMENTWISE.layout_bearing
        assert not NodeKind.CONCAT.layout_bearing

    def test_layout_agnostic(self):
        assert NodeKind.ELEMENTWISE.layout_agnostic
        assert NodeKind.CONCAT.layout_agnostic
        assert not NodeKind.CONV.layout_agnostic
        assert not NodeKind.CLASSIFIER.layout_agnostic


class TestGraphStructure:
    def test_add_rejects_forward_reference(self):
        g = Graph("bad")
        with pytest.raises(GraphError, match="not a node added before it"):
            g.add(GraphNode("late", NodeKind.CONV, inputs=("missing",)))

    def test_add_rejects_duplicate_name(self):
        g = Graph("dup")
        g.add(GraphNode("x", NodeKind.CONV))
        with pytest.raises(GraphError, match="duplicate node name"):
            g.add(GraphNode("x", NodeKind.POOL))

    def test_transform_dims_is_the_relayed_tensor(self):
        """A transform relays its producer's output (one concat branch, not
        the joined input); on the network input it relays the node's input."""
        g = branch_graph()
        g["stem"].in_dims = (4, 3, 8, 8)
        g["a"].out_dims, g["b"].out_dims = (4, 16, 8, 8), (4, 32, 8, 8)
        g["join"].in_dims = (4, 48, 8, 8)
        from_b = EdgeTransform("b", CHWN, NCHW)
        from_input = EdgeTransform("", NCHW, CHWN)
        assert g.transform_dims(g["join"], from_b) == (4, 32, 8, 8)
        assert g.transform_dims(g["stem"], from_input) == (4, 3, 8, 8)

    def test_kernel_layout_only_on_conv_and_pool(self):
        conv = GraphNode("c", NodeKind.CONV, layout=NCHW)
        lrn = GraphNode("n", NodeKind.ELEMENTWISE, layout=NCHW)
        assert conv.kernel_layout == NCHW
        assert lrn.kernel_layout is None

    def test_producers_and_consumers(self):
        g = branch_graph()
        assert [n.name for n in g.producers("join")] == ["a", "b"]
        assert [n.name for n in g.consumers("stem")] == ["a", "b"]
        assert g.consumers("join") == ()

    def test_topological_is_insertion_order(self):
        g = branch_graph()
        assert [n.name for n in g.topological()] == ["stem", "a", "b", "join"]

    def test_chain_detection(self):
        assert chain_graph().is_chain()
        assert not branch_graph().is_chain()

    def test_validate_concat_arity(self):
        g = Graph("one-armed")
        g.add(GraphNode("x", NodeKind.CONV))
        g.add(GraphNode("cat", NodeKind.CONCAT, inputs=("x",)))
        with pytest.raises(GraphError, match="at least two inputs"):
            g.validate()

    def test_dunder_views(self):
        g = chain_graph()
        assert len(g) == 3
        assert "conv1" in g and "nope" not in g
        assert g["pool1"].kind is NodeKind.POOL
        assert [n.name for n in g] == ["conv1", "pool1", "fc"]


class TestSerialization:
    def test_round_trip_preserves_annotations(self):
        g = branch_graph()
        g["a"].layout = CHWN
        g["a"].implementation = "direct"
        g["a"].layer_ms = 1.25
        g["a"].in_dims = (4, 16, 8, 8)
        g["a"].out_dims = (4, 8, 8, 8)
        g["join"].layout = NCHW
        g["join"].fixed_ms = 0.5
        g["join"].transforms = (
            EdgeTransform(src="a", from_layout=CHWN, to_layout=NCHW, ms=0.1),
        )

        back = Graph.from_json(g.to_json())
        assert [n.name for n in back] == [n.name for n in g]
        assert back.in_dims == g.in_dims
        a = back["a"]
        assert a.layout == CHWN and a.implementation == "direct"
        assert a.layer_ms == 1.25
        assert a.in_dims == (4, 16, 8, 8) and a.out_dims == (4, 8, 8, 8)
        join = back["join"]
        assert join.transforms == g["join"].transforms
        assert join.transform_ms == pytest.approx(0.1)

    def test_round_trip_empty_annotations(self):
        g = chain_graph()
        back = Graph.from_json(g.to_json())
        assert back["conv1"].layout is None
        assert back["fc"].inputs == ("pool1",)

    def test_summary_mentions_wiring(self):
        text = branch_graph().summary()
        assert "a,b" in text and "(input)" in text
