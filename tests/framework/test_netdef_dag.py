"""DAG wiring in NetworkDef: concat layers, bottom= references, round-trip."""

import pytest

from repro.framework import Net
from repro.framework.netdef import (
    ConcatDef,
    ConvDef,
    FCDef,
    NetworkDef,
    PoolDef,
    SoftmaxDef,
    format_netdef,
    parse_netdef,
)
from repro.networks import build_network


def branching_netdef() -> NetworkDef:
    return NetworkDef(
        "fork", 4, 3, 16, 16,
        layers=(
            ConvDef("stem", co=8, f=3, pad=1),
            ConvDef("a", co=4, f=1, bottom="stem"),
            ConvDef("b", co=4, f=3, pad=1, bottom="stem"),
            ConcatDef("cat", inputs=("a", "b")),
            PoolDef("pool", window=2, stride=2, bottom="cat"),
            FCDef("fc", out_features=10, bottom="pool"),
            SoftmaxDef("prob", bottom="fc"),
        ),
    )


class TestConcatDef:
    def test_needs_two_inputs(self):
        with pytest.raises(ValueError, match="at least two inputs"):
            ConcatDef("cat", inputs=("only",))

    def test_rejects_duplicate_inputs(self):
        with pytest.raises(ValueError, match="duplicate concat inputs"):
            ConcatDef("cat", inputs=("a", "a"))

    def test_inputs_coerced_to_tuple(self):
        assert ConcatDef("cat", inputs=["a", "b"]).inputs == ("a", "b")


class TestBottomReferences:
    def test_bottom_must_name_earlier_layer(self):
        with pytest.raises(ValueError, match="does not name an earlier layer"):
            NetworkDef(
                "bad", 4, 3, 8, 8,
                layers=(
                    ConvDef("x", co=4, f=3, bottom="later"),
                    ConvDef("later", co=4, f=3),
                ),
            )

    def test_concat_inputs_must_name_earlier_layers(self):
        with pytest.raises(ValueError, match="does not name an earlier layer"):
            NetworkDef(
                "bad", 4, 3, 8, 8,
                layers=(
                    ConvDef("x", co=4, f=3),
                    ConcatDef("cat", inputs=("x", "ghost")),
                ),
            )


class TestRoundTrip:
    def test_branching_netdef_round_trips(self):
        net = branching_netdef()
        text = format_netdef(net)
        assert "bottom=stem" in text
        assert "concat cat inputs=a,b" in text
        assert parse_netdef(text) == net

    def test_inception_round_trips(self):
        net = build_network("inception")
        assert parse_netdef(format_netdef(net)) == net


class TestNetChainDetection:
    def test_branching_net_is_not_chain(self):
        assert not Net(branching_netdef()).graph.is_chain()
        assert not Net(build_network("inception")).graph.is_chain()

    def test_linear_net_is_chain(self):
        assert Net(build_network("lenet")).graph.is_chain()

    def test_explicit_bottom_chain_still_counts(self):
        net = NetworkDef(
            "explicit", 4, 3, 8, 8,
            layers=(
                ConvDef("c1", co=4, f=3),
                ConvDef("c2", co=4, f=3, bottom="c1"),
                FCDef("fc", out_features=10, bottom="c2"),
                SoftmaxDef("prob", bottom="fc"),
            ),
        )
        assert Net(net).graph.is_chain()
