"""Gain attribution (paper Section VI.C's 72%/28% decomposition)."""

import pytest

from repro.analysis import attribute_gains
from repro.networks import build_network


@pytest.fixture(scope="module")
def alexnet_attr():
    from repro.gpusim import TITAN_BLACK

    return attribute_gains(build_network("alexnet"), TITAN_BLACK)


class TestAttribution:
    def test_stages_are_ordered(self, alexnet_attr):
        """Each optimization family can only help: baseline >= layout-only
        >= full Opt."""
        a = alexnet_attr
        assert a.baseline_ms >= a.layout_only_ms >= a.full_opt_ms

    def test_shares_partition_the_saving(self, alexnet_attr):
        a = alexnet_attr
        assert a.layout_share + a.offchip_share == pytest.approx(1.0)
        assert a.layout_share >= 0 and a.offchip_share >= 0

    def test_layout_is_the_dominant_contribution(self, alexnet_attr):
        """Paper: 'achieving the flexible data layout ... is the most
        critical optimization, contributing a 72% improvement'.  Our model
        attributes even more to layout (the conv layers dominate harder),
        but the ordering is the claim."""
        assert alexnet_attr.layout_share > 0.6
        assert alexnet_attr.layout_share > alexnet_attr.offchip_share

    def test_total_saving_positive_everywhere(self, device):
        for name in ("lenet", "cifar", "zfnet"):
            a = attribute_gains(build_network(name), device)
            assert a.total_saved_ms > 0, name

    def test_offchip_family_contributes_on_pooling_heavy_nets(self, device):
        """Networks with overlapped pooling see a real (if small) off-chip
        contribution."""
        a = attribute_gains(build_network("cifar"), device)
        assert a.layout_only_ms > a.full_opt_ms  # coarsening+fusion helped

    def test_zero_saving_degenerates_gracefully(self):
        from repro.analysis import GainAttribution

        a = GainAttribution("x", baseline_ms=1.0, layout_only_ms=1.0, full_opt_ms=1.0)
        assert a.layout_share == 0.0
        assert a.offchip_share == 0.0
