"""Network memory-footprint accounting (paper Section VI.A)."""

import pytest

from repro.core import plan_optimal
from repro.framework import Net
from repro.framework.memory import (
    MemoryFootprint,
    PlanMismatchError,
    format_footprint,
    network_footprint,
    plan_within_memory,
)
from repro.networks import build_network


@pytest.fixture(scope="module")
def alexnet_plan():
    from repro.gpusim import TITAN_BLACK

    net = Net(build_network("alexnet"))
    return net, plan_optimal(TITAN_BLACK, net.definition)


class TestFootprint:
    def test_alexnet_transform_overhead_matches_paper(self, alexnet_plan):
        """'additional memory space overhead is only 73.5 MB, less than 3%
        compared to the memory footprint of around 3 GB' — our plan's
        largest transformed tensor is 91 MiB against a ~2 GiB footprint."""
        net, plan = alexnet_plan
        fp = network_footprint(net, plan, training=True)
        assert 50 * 2**20 < fp.transform_bytes < 150 * 2**20
        assert fp.transform_overhead_fraction < 0.06
        assert 1.5 * 2**30 < fp.resident_bytes < 4 * 2**30

    def test_transform_scratch_zero_without_transforms(self, device):
        net = Net(build_network("lenet"))
        plan = plan_optimal(device, net.definition)
        fp = network_footprint(net, plan)
        assert fp.transform_bytes == 0

    def test_training_costs_more_than_inference(self, alexnet_plan):
        net, plan = alexnet_plan
        infer = network_footprint(net, plan, training=False)
        train = network_footprint(net, plan, training=True)
        assert train.resident_bytes > 1.5 * infer.resident_bytes

    def test_lenet_fits_easily(self, device):
        net = Net(build_network("lenet"))
        fp = network_footprint(net)
        assert fp.fits(device)
        assert fp.peak_bytes < 200 * 2**20

    def test_peak_includes_largest_transient(self):
        fp = MemoryFootprint(
            activations_bytes=100, weights_bytes=50,
            workspace_bytes=30, transform_bytes=70,
        )
        assert fp.peak_bytes == 220

    def test_format(self, alexnet_plan):
        net, plan = alexnet_plan
        text = format_footprint(network_footprint(net, plan))
        assert "MiB" in text and "%" in text


class TestPlanAlignment:
    """The footprint pairs steps with layers by name and says so when it
    can't, instead of silently zipping mismatched sequences."""

    def test_plan_for_another_network_is_rejected(self, alexnet_plan, device):
        lenet = Net(build_network("lenet"))
        _, alex_plan = alexnet_plan
        with pytest.raises(PlanMismatchError, match="does not match network"):
            network_footprint(lenet, alex_plan)

    def test_message_names_the_unmatched_steps(self, alexnet_plan, device):
        lenet = Net(build_network("lenet"))
        _, alex_plan = alexnet_plan
        with pytest.raises(PlanMismatchError) as exc:
            network_footprint(lenet, alex_plan)
        assert "conv3" in str(exc.value)  # alexnet step with no lenet layer

    def test_reordered_steps_are_rejected(self, device):
        from dataclasses import replace

        net = Net(build_network("lenet"))
        plan = plan_optimal(device, net.definition)
        shuffled = replace(plan, steps=tuple(reversed(plan.steps)))
        with pytest.raises(PlanMismatchError, match="different order"):
            network_footprint(net, shuffled)

    def test_unsupported_conv_impl_contributes_no_workspace(self, device):
        """FFT rejects stride>1 specs with ConvUnsupportedError; the
        footprint skips exactly that error rather than swallowing all."""
        net = Net(build_network("alexnet"))
        plan = plan_optimal(device, net.definition)
        # conv1 has stride 4: FFT refuses it with ConvUnsupportedError
        from dataclasses import replace as _replace

        steps = tuple(
            _replace(s, implementation="fft")
            if s.name == "conv1"
            else s
            for s in plan.steps
        )
        fp = network_footprint(net, _replace(plan, steps=steps))
        assert fp.peak_bytes > 0  # computed, no exception

    def test_unknown_conv_impl_raises(self, device):
        """A plan naming a nonexistent implementation is a real bug and
        must propagate, not be silently zeroed."""
        from dataclasses import replace as _replace

        net = Net(build_network("lenet"))
        plan = plan_optimal(device, net.definition)
        steps = tuple(
            _replace(s, implementation="no-such-impl")
            if s.kind.value == "conv"
            else s
            for s in plan.steps
        )
        with pytest.raises(ValueError, match="no-such-impl"):
            network_footprint(net, _replace(plan, steps=steps))


class TestMemoryAwarePlanning:
    def test_vgg_training_falls_back_from_fft(self, device):
        """The unconstrained VGG plan's FFT workspace plus training
        residency exceeds the 6 GB card; memory-aware planning retreats to
        MM convolutions."""
        net = Net(build_network("vgg"))
        unconstrained = plan_optimal(device, net.definition)
        assert any("fft" in s.implementation for s in unconstrained.steps)
        assert not network_footprint(net, unconstrained, training=True).fits(device)
        plan, fp = plan_within_memory(device, net, training=True)
        assert all("fft" not in s.implementation for s in plan.steps)
        assert fp.workspace_bytes < unconstrained_workspace(net, unconstrained)

    def test_fitting_networks_keep_the_optimal_plan(self, device):
        net = Net(build_network("lenet"))
        plan, fp = plan_within_memory(device, net, training=True)
        optimal = plan_optimal(device, net.definition)
        assert plan.total_ms == pytest.approx(optimal.total_ms)
        assert fp.fits(device)


def unconstrained_workspace(net, plan) -> int:
    return network_footprint(net, plan).workspace_bytes
