"""Buffer liveness: intervals, the footprint curve, and the golden
inequality against the conservative Caffe-style model."""

import pytest

from repro.analysis.dataflow import (
    buffer_intervals,
    liveness_footprint,
)
from repro.analysis.dataflow.liveness import INPUT_BUFFER
from repro.core.pipeline import PipelineOptions, plan_network
from repro.framework import network_footprint
from repro.ir.graph import Graph, GraphNode, NodeKind
from repro.networks import NETWORK_BUILDERS, build_network
from repro.tensors import CHWN


def small_chain() -> Graph:
    g = Graph("chain", batch=2, in_channels=3, in_h=8, in_w=8)
    dims = (2, 3, 8, 8)
    g.add(GraphNode("a", NodeKind.CONV, in_dims=dims, out_dims=(2, 4, 8, 8),
                    layout=CHWN))
    g.add(GraphNode("b", NodeKind.POOL, inputs=("a",), in_dims=(2, 4, 8, 8),
                    out_dims=(2, 4, 8, 8), layout=CHWN))
    g.add(GraphNode("c", NodeKind.ELEMENTWISE, inputs=("b",),
                    in_dims=(2, 4, 8, 8), out_dims=(2, 4, 8, 8), layout=CHWN))
    return g


class TestIntervals:
    def test_chain_intervals_are_def_to_last_use(self):
        iv = buffer_intervals(small_chain())
        assert (iv["a"].start, iv["a"].end) == (0, 1)  # defined by a, read by b
        assert (iv["b"].start, iv["b"].end) == (1, 2)
        assert (iv["c"].start, iv["c"].end) == (2, 2)  # no consumer
        assert (iv[INPUT_BUFFER].start, iv[INPUT_BUFFER].end) == (-1, 0)

    def test_fanout_extends_the_interval(self):
        g = small_chain()
        g.add(GraphNode("d", NodeKind.ELEMENTWISE, inputs=("a",),
                        in_dims=(2, 4, 8, 8), out_dims=(2, 4, 8, 8),
                        layout=CHWN))
        iv = buffer_intervals(g)
        assert iv["a"].end == 3  # the late consumer keeps it alive

    def test_buffer_bytes_match_dims(self):
        iv = buffer_intervals(small_chain())
        assert iv["a"].nbytes == 4 * 2 * 4 * 8 * 8
        assert iv[INPUT_BUFFER].nbytes == 4 * 2 * 3 * 8 * 8


class TestFootprintCurve:
    def test_curve_covers_every_step_and_peak_is_max(self):
        fp = liveness_footprint(small_chain())
        assert [name for name, _ in fp.curve] == ["a", "b", "c"]
        assert fp.peak_bytes == max(live for _, live in fp.curve)
        assert fp.peak_step in {"a", "b", "c"}

    def test_training_pins_activations(self):
        infer = liveness_footprint(small_chain(), training=False)
        train = liveness_footprint(small_chain(), training=True)
        assert train.peak_bytes > infer.peak_bytes
        # under training every interval reaches the end of the schedule
        assert all(
            iv.end == len(small_chain().nodes) - 1
            for iv in train.intervals.values()
        )

    def test_summary_renders_bar_chart(self):
        text = liveness_footprint(small_chain()).summary()
        assert "liveness peak" in text and "#" in text


class TestGoldenInequality:
    """The interval model can only improve on the conservative model."""

    @pytest.mark.parametrize("name", sorted(NETWORK_BUILDERS))
    @pytest.mark.parametrize("training", [False, True])
    def test_liveness_at_most_conservative(self, device, name, training):
        result = plan_network(
            device, build_network(name), PipelineOptions(strategy="optimal")
        )
        conservative = network_footprint(result.graph, training=training)
        live = liveness_footprint(result.graph, training=training)
        assert live.peak_bytes <= conservative.peak_bytes, name

    def test_inference_strictly_cheaper_on_alexnet(self, device):
        """Freeing after last use must beat keep-everything at inference.
        (Heuristic plan: the optimal one picks FFT convs whose workspace
        dominates both models and narrows the gap.)"""
        result = plan_network(
            device, build_network("alexnet"), PipelineOptions(strategy="heuristic")
        )
        conservative = network_footprint(result.graph, training=False)
        live = liveness_footprint(result.graph, training=False)
        assert live.peak_bytes < 0.8 * conservative.peak_bytes
