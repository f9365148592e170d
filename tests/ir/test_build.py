"""Lowering NetworkDef -> IR and shape inference over the graph."""

import pytest

from repro.framework.net import Net
from repro.framework.netdef import (
    ConcatDef,
    ConvDef,
    FCDef,
    NetworkDef,
    PoolDef,
    SoftmaxDef,
)
from repro.ir import NodeKind, infer_shapes, lower_netdef
from repro.networks import build_network


class TestLowerChain:
    def test_lenet_wiring_and_kinds(self):
        graph = lower_netdef(build_network("lenet"))
        names = [n.name for n in graph]
        assert names == ["conv1", "pool1", "conv2", "pool2", "fc1", "fc2", "prob"]
        assert graph["conv1"].inputs == ()
        assert graph["pool1"].inputs == ("conv1",)
        assert graph["prob"].kind is NodeKind.CLASSIFIER
        assert graph.is_chain()

    def test_shapes_match_framework_resolve(self):
        """The framework's ``Net`` resolves to the inferred graph itself."""
        net = build_network("alexnet")
        graph = infer_shapes(lower_netdef(net))
        layers = Net(net).layers
        assert [n.to_dict() for n in layers] == [n.to_dict() for n in graph]
        assert [n.spec for n in layers] == [n.spec for n in graph]


class TestLowerBranching:
    def test_inception_concat_shapes(self):
        graph = infer_shapes(lower_netdef(build_network("inception")))
        assert not graph.is_chain()
        concat = graph["concat"]
        assert concat.kind is NodeKind.CONCAT
        assert concat.inputs == ("b1", "b2b", "b3b", "b4")
        # channels sum across branches; N/H/W match the branches
        n, c, h, w = concat.out_dims
        assert c == 64 + 128 + 32 + 32
        for src in concat.inputs:
            bn, bc, bh, bw = graph[src].out_dims
            assert (bn, bh, bw) == (n, h, w)

    def test_concat_spatial_mismatch_rejected(self):
        net = NetworkDef(
            "bad", 4, 3, 16, 16,
            layers=(
                ConvDef("a", co=8, f=3, pad=1),
                ConvDef("b", co=8, f=3, bottom="a"),  # 14x14, a is 16x16
                ConcatDef("cat", inputs=("a", "b")),
                SoftmaxDef("prob", bottom="cat"),
            ),
        )
        with pytest.raises(ValueError, match="cat"):
            infer_shapes(lower_netdef(net))

    def test_conv_after_flattening_error_preserved(self):
        net = NetworkDef(
            "flat", 4, 3, 8, 8,
            layers=(
                FCDef("fc", out_features=10),
                ConvDef("conv", co=4, f=3),
            ),
        )
        with pytest.raises(ValueError, match="convolution after flattening"):
            infer_shapes(lower_netdef(net))
