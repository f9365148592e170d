"""Network memory-footprint accounting (paper Section VI.A)."""

import pytest

from repro.analysis.dataflow import liveness_footprint
from repro.core.pipeline import PipelineOptions, plan_network
from repro.framework import ConvDef, Net, NetworkDef
from repro.framework.memory import (
    MemoryFootprint,
    format_footprint,
    network_footprint,
    plan_within_memory,
)
from repro.framework.netdef import ConcatDef
from repro.ir.graph import EdgeTransform
from repro.networks import build_network
from repro.tensors import CHWN, NCHW


@pytest.fixture(scope="module")
def alexnet_graph():
    """AlexNet's optimal plan, as the annotated graph the pipeline returns."""
    from repro.gpusim import TITAN_BLACK

    return plan_network(TITAN_BLACK, build_network("alexnet")).graph


class TestFootprint:
    def test_alexnet_transform_overhead_matches_paper(self, alexnet_graph):
        """'additional memory space overhead is only 73.5 MB, less than 3%
        compared to the memory footprint of around 3 GB' — our plan's
        largest transformed tensor is 91 MiB against a ~2 GiB footprint."""
        fp = network_footprint(alexnet_graph, training=True)
        assert 50 * 2**20 < fp.transform_bytes < 150 * 2**20
        assert fp.transform_overhead_fraction < 0.06
        assert 1.5 * 2**30 < fp.resident_bytes < 4 * 2**30

    def test_transform_scratch_zero_without_transforms(self, device):
        graph = plan_network(device, build_network("lenet")).graph
        fp = network_footprint(graph)
        assert fp.transform_bytes == 0

    def test_training_costs_more_than_inference(self, alexnet_graph):
        infer = network_footprint(alexnet_graph, training=False)
        train = network_footprint(alexnet_graph, training=True)
        assert train.resident_bytes > 1.5 * infer.resident_bytes

    def test_lenet_fits_easily(self, device):
        fp = network_footprint(Net(build_network("lenet")).graph)  # unplanned
        assert fp.fits(device)
        assert fp.peak_bytes < 200 * 2**20

    def test_peak_includes_largest_transient(self):
        fp = MemoryFootprint(
            activations_bytes=100, weights_bytes=50,
            workspace_bytes=30, transform_bytes=70,
        )
        assert fp.peak_bytes == 220

    def test_format(self, alexnet_graph):
        text = format_footprint(network_footprint(alexnet_graph))
        assert "MiB" in text and "%" in text


class TestPlanAlignment:
    """The footprint reads each conv's implementation off the planned graph."""

    def test_unsupported_conv_impl_contributes_no_workspace(self, device):
        """FFT rejects stride>1 specs with ConvUnsupportedError; the
        footprint skips exactly that error rather than swallowing all."""
        graph = plan_network(device, build_network("alexnet")).graph
        # conv1 has stride 4: FFT refuses it with ConvUnsupportedError
        graph["conv1"].implementation = "fft"
        fp = network_footprint(graph)
        assert fp.peak_bytes > 0  # computed, no exception

    def test_unknown_conv_impl_raises(self, device):
        """A plan naming a nonexistent implementation is a real bug and
        must propagate, not be silently zeroed."""
        graph = plan_network(device, build_network("lenet")).graph
        for node in graph:
            if node.kind.value == "conv":
                node.implementation = "no-such-impl"
        with pytest.raises(ValueError, match="no-such-impl"):
            network_footprint(graph)


class TestTransformScratch:
    """A transform's scratch is the tensor relaid on its edge."""

    @staticmethod
    def concat_graph():
        """CHWN branches of 8 and 16 channels joined by an NCHW concat: the
        only transforms relay each branch into the 24-channel join."""
        netdef = NetworkDef(
            "join", 4, 3, 8, 8,
            (
                ConvDef("a", co=8, f=3, pad=1),
                ConvDef("b", co=16, f=3, pad=1, bottom="a"),
                ConcatDef("join", inputs=("a", "b")),
            ),
        )
        graph = Net(netdef).graph
        graph["a"].layout = graph["b"].layout = CHWN
        graph["join"].layout = NCHW
        graph["join"].transforms = (
            EdgeTransform("a", CHWN, NCHW, 0.1),
            EdgeTransform("b", CHWN, NCHW, 0.1),
        )
        return graph

    def test_concat_edge_scratch_is_the_branch_not_the_join(self):
        graph = self.concat_graph()
        assert graph["join"].in_dims == (4, 24, 8, 8)
        widest_branch = 4 * (4 * 16 * 8 * 8)  # b's output, fp32
        assert network_footprint(graph).transform_bytes == widest_branch

    def test_liveness_charges_the_same_scratch(self):
        graph = self.concat_graph()
        fp = liveness_footprint(graph)
        step = [name for name, _ in fp.curve].index("join")
        live = sum(iv.nbytes for iv in fp.intervals.values() if iv.live_at(step))
        scratch = dict(fp.curve)["join"] - fp.weights_bytes - live
        assert scratch == network_footprint(graph).transform_bytes


class TestMemoryAwarePlanning:
    def test_vgg_training_falls_back_from_fft(self, device):
        """The unconstrained VGG plan's FFT workspace plus training
        residency exceeds the 6 GB card; memory-aware planning retreats to
        MM convolutions."""
        net = build_network("vgg")
        unconstrained = plan_network(device, net).graph
        assert any("fft" in n.implementation for n in unconstrained)
        assert not network_footprint(unconstrained, training=True).fits(device)
        plan, fp = plan_within_memory(device, net, training=True)
        assert all("fft" not in n.implementation for n in plan.graph)
        assert fp.workspace_bytes < network_footprint(unconstrained).workspace_bytes

    def test_fitting_networks_keep_the_optimal_plan(self, device):
        net = build_network("lenet")
        plan, fp = plan_within_memory(device, net, training=True)
        optimal = plan_network(device, net, PipelineOptions(strategy="optimal"))
        assert plan.total_ms == pytest.approx(optimal.total_ms)
        assert fp.fits(device)

