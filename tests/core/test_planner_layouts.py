"""Planner with widened layout sets (NHWC included)."""

import pytest

from repro.core import plan_optimal
from repro.networks import build_network
from repro.tensors import CHWN, NCHW, NHWC


@pytest.fixture(scope="module")
def alexnet():
    return build_network("alexnet")


class TestWidenedLayoutSpace:
    def test_nhwc_never_wins(self, device, alexnet):
        """Footnote 1's consequence at the network level: adding NHWC to the
        search space changes nothing — it is dominated by NCHW."""
        base = plan_optimal(device, alexnet)
        widened = plan_optimal(
            device, alexnet, layouts=(CHWN, NCHW, NHWC)
        )
        assert widened.total_ms == pytest.approx(base.total_ms, rel=1e-9)
        assert all(n.layout != NHWC for n in widened.graph if n.kind.layout_bearing)

    def test_single_layout_space_degenerates_correctly(self, device, alexnet):
        only_nchw = plan_optimal(device, alexnet, layouts=(NCHW,))
        assert all(n.layout == NCHW for n in only_nchw.graph if n.kind.layout_bearing)
        assert only_nchw.transform_count == 0

    def test_empty_layout_space_rejected(self, device, alexnet):
        with pytest.raises(ValueError):
            plan_optimal(device, alexnet, layouts=())

    def test_wider_space_never_hurts(self, device):
        cifar = build_network("cifar")
        two = plan_optimal(device, cifar).total_ms
        three = plan_optimal(device, cifar, layouts=(CHWN, NCHW, NHWC)).total_ms
        assert three <= two + 1e-9
