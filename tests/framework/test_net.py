"""Net resolution and plan-driven numeric execution."""

import numpy as np
import pytest

from repro.core import plan_network, plan_optimal, plan_single_layout
from repro.core.planner import NodeKind
from repro.framework import (
    ConvDef,
    FCDef,
    Net,
    NetworkDef,
    PoolDef,
    SoftmaxDef,
    annotations_from_plan,
)
from repro.layers import ConvSpec, SoftmaxSpec
from repro.networks import build_network
from repro.tensors import CHWN, NCHW


class TestResolve:
    def test_lenet_shapes(self):
        layers = Net(build_network("lenet")).layers
        conv1, pool1, conv2, pool2 = layers[:4]
        assert isinstance(conv1.spec, ConvSpec)
        assert conv1.out_dims == (128, 16, 28, 28)  # pad 2 keeps 28
        assert pool1.out_dims == (128, 16, 14, 14)
        assert conv2.in_dims == (128, 16, 14, 14)
        assert pool2.out_dims == (128, 16, 7, 7)

    def test_alexnet_matches_table1_pools(self):
        layers = {l.name: l for l in Net(build_network("alexnet")).layers}
        assert layers["pool1"].in_dims == (128, 96, 55, 55)  # PL5
        assert layers["pool2"].in_dims == (128, 256, 27, 27)  # PL6
        assert layers["pool3"].in_dims == (128, 256, 13, 13)  # PL7

    def test_zfnet_matches_table1_pools(self):
        layers = {l.name: l for l in Net(build_network("zfnet")).layers}
        assert layers["pool1"].in_dims == (64, 96, 110, 110)  # PL8
        assert layers["pool2"].in_dims == (64, 256, 26, 26)  # PL9
        assert layers["pool3"].in_dims == (64, 256, 13, 13)  # PL10

    def test_vgg_matches_table1_convs(self):
        layers = {l.name: l for l in Net(build_network("vgg")).layers}
        assert layers["conv1_1"].spec.ci == 3 and layers["conv1_1"].spec.h == 224
        assert layers["conv3_1"].spec.ci == 128 and layers["conv3_1"].spec.h == 56
        assert layers["conv4_1"].spec.ci == 256 and layers["conv4_1"].spec.h == 28
        assert layers["conv5_1"].spec.ci == 512 and layers["conv5_1"].spec.h == 14

    def test_softmax_requires_fc(self):
        bad = NetworkDef(
            "bad", 2, 1, 8, 8, (ConvDef("c", co=2, f=3), SoftmaxDef("s"))
        )
        with pytest.raises(ValueError, match="softmax"):
            Net(bad)

    def test_conv_after_flatten_rejected(self):
        bad = NetworkDef(
            "bad", 2, 1, 8, 8,
            (FCDef("f", out_features=4), ConvDef("c", co=2, f=3)),
        )
        with pytest.raises(ValueError, match="flatten"):
            Net(bad)

    def test_classifier_spec_types(self):
        layers = Net(build_network("lenet")).layers
        assert isinstance(layers[-1].spec, SoftmaxSpec)
        assert layers[-1].spec.categories == 10


class TestPlannerNodes:
    """The graph nodes the planner prices, as ``plan_network`` returns them."""

    def test_kinds(self, device):
        nodes = plan_network(device, build_network("alexnet")).graph.topological()
        kinds = [n.kind for n in nodes]
        assert kinds.count(NodeKind.CONV) == 5
        assert kinds.count(NodeKind.POOL) == 3
        assert kinds.count(NodeKind.ELEMENTWISE) == 2  # the LRNs
        assert kinds.count(NodeKind.CLASSIFIER) == 4  # 3 FC + softmax

    def test_fixed_costs_positive(self, device):
        nodes = plan_network(device, build_network("alexnet")).graph.topological()
        for n in nodes:
            if n.kind is NodeKind.ELEMENTWISE:
                assert n.fixed_ms > 0


@pytest.fixture(scope="module")
def tiny_net():
    """LeNet at batch 8 — fast enough for numeric work."""
    return Net(build_network("lenet", batch=8))


class TestNumericForward:
    def test_output_is_distribution(self, tiny_net):
        out = tiny_net.forward(tiny_net.make_input(seed=1))
        assert out.shape == (8, 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)

    def test_deterministic(self, tiny_net):
        w = tiny_net.init_weights(seed=3)
        a = tiny_net.forward(tiny_net.make_input(seed=2), w)
        b = tiny_net.forward(tiny_net.make_input(seed=2), w)
        np.testing.assert_array_equal(a, b)

    def test_plan_invariance(self, tiny_net, device):
        """The headline integration property: any layout plan computes the
        same numbers, transforms included."""
        w = tiny_net.init_weights()
        x = tiny_net.make_input(seed=5)
        reference = tiny_net.forward(x, w)
        netdef = tiny_net.definition
        for plan in (
            plan_optimal(device, netdef),
            plan_single_layout(device, netdef, CHWN),
            plan_single_layout(device, netdef, NCHW),
        ):
            out = tiny_net.forward(x, w, annotations=annotations_from_plan(plan.graph))
            np.testing.assert_allclose(out, reference, rtol=1e-3, atol=1e-4)

    def test_input_layout_invariance(self, tiny_net):
        w = tiny_net.init_weights()
        a = tiny_net.forward(tiny_net.make_input(seed=7, layout=NCHW), w)
        b = tiny_net.forward(tiny_net.make_input(seed=7, layout=CHWN), w)
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_cifar_forward_with_lrn_free_stack(self):
        net = Net(build_network("cifar", batch=4))
        out = net.forward(net.make_input(seed=11))
        assert out.shape == (4, 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)

    def test_alexnet_style_net_with_lrn(self):
        """A small net exercising every layer kind, including LRN."""
        from repro.framework import LRNDef

        netdef = NetworkDef(
            "mini", 2, 3, 16, 16,
            (
                ConvDef("c1", co=4, f=3, pad=1),
                LRNDef("n1"),
                PoolDef("p1", window=3, stride=2),
                ConvDef("c2", co=6, f=3, pad=1),
                PoolDef("p2", window=2, stride=2),
                FCDef("f1", out_features=10, relu=False),
                SoftmaxDef("s"),
            ),
        )
        net = Net(netdef)
        out = net.forward(net.make_input(seed=13))
        assert out.shape == (2, 10)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)
