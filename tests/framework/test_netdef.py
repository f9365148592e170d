"""Network definition parsing and serialization."""

import pytest

from repro.framework import (
    ConvDef,
    FCDef,
    LRNDef,
    NetworkDef,
    PoolDef,
    SoftmaxDef,
    format_netdef,
    parse_netdef,
)
from repro.networks import build_network

SAMPLE = """
# a LeNet-like stack
network demo batch=64 input=1x28x28
conv conv1 co=16 f=5 stride=1 pad=2
pool pool1 window=2 stride=2
lrn norm1 depth=5
fc fc1 out=500
fc fc2 out=10 relu=0
softmax prob
"""


class TestParse:
    def test_full_parse(self):
        net = parse_netdef(SAMPLE)
        assert net.name == "demo"
        assert net.batch == 64
        assert (net.in_channels, net.in_h, net.in_w) == (1, 28, 28)
        assert isinstance(net.layers[0], ConvDef)
        assert net.layers[0].pad == 2
        assert isinstance(net.layers[1], PoolDef)
        assert isinstance(net.layers[2], LRNDef)
        assert isinstance(net.layers[3], FCDef)
        assert net.layers[4].relu is False
        assert isinstance(net.layers[5], SoftmaxDef)

    def test_comments_and_blank_lines_ignored(self):
        assert len(parse_netdef(SAMPLE).layers) == 6

    def test_defaults(self):
        net = parse_netdef("network x batch=1 input=1x4x4\nconv c1 co=2 f=3\n")
        conv = net.layers[0]
        assert conv.stride == 1 and conv.pad == 0 and conv.relu is True

    @pytest.mark.parametrize(
        "text,match",
        [
            ("conv c co=2 f=3\n", "before network header"),
            ("network a batch=1 input=1x4x4\nblob b x=1\n", "unknown layer kind"),
            ("network a batch=1 input=1x4x4\nconv c co 2\n", "key=value"),
            ("", "missing network header"),
            (
                "network a batch=1 input=1x4x4\nnetwork b batch=1 input=1x4x4\n",
                "duplicate network header",
            ),
        ],
    )
    def test_errors(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_netdef(text)


HEADER = "network a batch=1 input=3x8x8\nconv c0 co=4 f=3\n"


class TestUnknownKeys:
    """A misspelled key is an error, not a silent default."""

    @pytest.mark.parametrize(
        "line,key",
        [
            ("conv c1 co=10 f=3 strid=2", "strid"),
            ("pool p1 window=2 stride=2 opp=avg", "opp"),
            ("fc f1 out=10 rleu=0", "rleu"),
            ("lrn n1 dept=3", "dept"),
            ("softmax s1 relu=0", "relu"),
            ("concat j1 inputs=c0,c1 bottom=c0", "bottom"),
        ],
    )
    def test_layer_rejects_keys_of_no_kind(self, line, key):
        text = HEADER + "conv c1 co=4 f=3\n" * ("concat" in line) + line + "\n"
        last = len(text.splitlines())
        with pytest.raises(ValueError, match=f"line {last}: unknown key '{key}'"):
            parse_netdef(text)

    def test_header_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="line 1: unknown key 'bach'"):
            parse_netdef("network a bach=1 batch=1 input=3x8x8\n")

    def test_every_layer_kind_reads_bottom(self):
        text = HEADER + (
            "conv c1 co=4 f=3 bottom=c0\n"
            "pool p1 window=2 stride=2 bottom=c0\n"
            "lrn n1 bottom=c0\n"
            "fc f1 out=10 bottom=c0\n"
            "softmax s1 bottom=f1\n"
        )
        net = parse_netdef(text)
        assert [layer.bottom for layer in net.layers[1:]] == ["c0"] * 4 + ["f1"]

    def test_lint_reports_the_typo_as_n000(self):
        from repro.analysis.lint import lint_netdef_text

        (d,) = lint_netdef_text(HEADER + "conv c1 co=10 f=3 strid=2\n")
        assert d.rule_id == "N000"
        assert "unknown key 'strid'" in d.message


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["lenet", "cifar", "alexnet", "zfnet", "vgg"])
    def test_builtin_networks_roundtrip(self, name):
        net = build_network(name)
        assert parse_netdef(format_netdef(net)) == net

    def test_sample_roundtrips(self):
        net = parse_netdef(SAMPLE)
        assert parse_netdef(format_netdef(net)) == net


class TestValidation:
    def test_duplicate_layer_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            NetworkDef(
                "bad", 1, 1, 4, 4,
                (PoolDef("p", 2, 2), PoolDef("p", 2, 2)),
            )

    def test_positive_input_dims(self):
        with pytest.raises(ValueError):
            NetworkDef("bad", 0, 1, 4, 4)

    def test_with_batch(self):
        net = build_network("lenet").with_batch(32)
        assert net.batch == 32
        assert net.layers == build_network("lenet").layers
