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


class TestLineNumbers:
    """Every malformed line is a ValueError that names the line."""

    @pytest.mark.parametrize(
        "text,match",
        [
            # a required key is missing
            (HEADER + "conv c1 f=3\n", "line 3: missing required key co="),
            (HEADER + "pool p1 stride=2\n", "line 3: missing required key window="),
            (HEADER + "fc f1\n", "line 3: missing required key out="),
            (HEADER + "concat j1\n", "line 3: missing required key inputs="),
            ("network a batch=1\n", "line 1: missing required key input="),
            ("network a input=3x8x8\n", "line 1: missing required key batch="),
            # the layer or network name is missing
            (HEADER + "conv co=4 f=3\n", "line 3: conv line needs a name"),
            (HEADER + "softmax\n", "line 3: softmax line needs a name"),
            ("network batch=1 input=3x8x8\n", "line 1: network line needs a name"),
            # a value is not an integer
            (HEADER + "conv c1 co=four f=3\n", "line 3: co must be an integer, got 'four'"),
            (HEADER + "fc f1 out=10 relu=yes\n", "line 3: relu must be an integer"),
            ("network a batch=x input=3x8x8\n", "line 1: batch must be an integer"),
            # a malformed input=
            ("network a batch=1 input=1x3x32x32\n", "line 1: input=1x3x32x32 is not CxHxW"),
            ("network a batch=1 input=3x8\n", "line 1: input=3x8 is not CxHxW"),
            ("network a batch=1 input=3xax8\n", "line 1: input=3xax8 is not CxHxW"),
            # a value the layer or network rejects
            (HEADER + "conv c1 co=0 f=3\n", "line 3: c1: output maps"),
            ("network a batch=0 input=3x8x8\n", "line 1: network input dims must be positive"),
            # wiring across lines
            (HEADER + "conv c1 co=4 f=3 bottom=ghost\n", "line 3: c1: bottom 'ghost'"),
            (HEADER + "conv c0 co=4 f=3\n", "line 3: duplicate layer name 'c0'"),
            (HEADER + "concat j1 inputs=c0,c9\n", "line 3: j1: bottom 'c9'"),
        ],
    )
    def test_error_names_its_line(self, text, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            parse_netdef(text)

    def test_comments_and_blank_lines_count(self):
        text = "# header next\n\n" + HEADER + "conv c1 f=3\n"
        with pytest.raises(ValueError, match="^line 5: missing required key co="):
            parse_netdef(text)

    def test_annotated_netdef_keeps_line_numbers(self):
        from repro.framework.annotate import parse_annotated_netdef

        text = HEADER + "#@ c0 layout=CHWN impl=direct\nconv c1 f=3\n"
        with pytest.raises(ValueError, match="^line 4: missing required key co="):
            parse_annotated_netdef(text)


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
