"""The dataflow layer's two sweeps: delivered layouts and buffer intervals."""

from repro.analysis import verify_graph
from repro.analysis.dataflow import (
    CONFLICT,
    buffer_intervals,
    delivered_layouts,
    liveness_footprint,
)
from repro.framework.memory import INPUT_BUFFER
from repro.ir.graph import EdgeTransform, Graph, GraphNode, NodeKind
from repro.tensors import CHWN, NCHW


def diamond() -> Graph:
    """stem -> (a, b) -> join, the smallest graph with a real join point."""
    g = Graph("diamond", batch=2, in_channels=3, in_h=4, in_w=4)
    g.add(GraphNode("stem", NodeKind.CONV, layout=CHWN))
    g.add(GraphNode("a", NodeKind.CONV, inputs=("stem",), layout=CHWN))
    g.add(GraphNode("b", NodeKind.CONV, inputs=("stem",), layout=NCHW))
    g.add(GraphNode("join", NodeKind.CONCAT, inputs=("a", "b"), layout=CHWN))
    return g


class TestDeliveredLayouts:
    def test_disagreeing_edges_join_to_conflict(self):
        g = diamond()
        g["join"].layout = None
        assert delivered_layouts(g)["join"] is CONFLICT

    def test_edge_transform_rewrites_own_edge(self):
        g = diamond()
        g["join"].layout = None
        g["join"].transforms = (
            EdgeTransform(src="b", from_layout=NCHW, to_layout=CHWN, ms=0.1),
        )
        delivered = delivered_layouts(g)
        assert delivered["join"] == CHWN  # both edges now arrive in CHWN
        assert delivered["b"] == NCHW  # the producer itself is unchanged

    def test_classifier_carries_producer_layout(self):
        g = diamond()
        # a classifier flattens the data: its own label is not what it delivers
        g.add(GraphNode("fc", NodeKind.CLASSIFIER, inputs=("b",), layout=CHWN))
        assert delivered_layouts(g)["fc"] == NCHW


class TestBufferIntervals:
    def test_diamond_intervals_end_at_last_reader(self):
        iv = buffer_intervals(diamond())
        assert (iv["stem"].start, iv["stem"].end) == (0, 2)  # b reads it last
        assert (iv["a"].start, iv["a"].end) == (1, 3)
        assert (iv["join"].start, iv["join"].end) == (3, 3)  # no consumer
        assert (iv[INPUT_BUFFER].start, iv[INPUT_BUFFER].end) == (-1, 0)


class TestCyclicGraph:
    def test_cycle_is_d006_and_footprint_returns(self):
        g = diamond()
        # passes mutate nodes in place; a buggy one could close a cycle,
        # and the verifier must report it rather than spin on it
        g["stem"].inputs = ("join",)
        assert "D006" in {d.rule_id for d in verify_graph(g)}
        for training in (False, True):
            footprint = liveness_footprint(g, training=training)
            assert [name for name, _ in footprint.curve] == list(g.nodes)
