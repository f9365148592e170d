"""N-rules on the shared shape walk: DAG wiring, concat joins, and
agreement with ``infer_shapes`` on bundled networks and their mutants."""

import dataclasses

import pytest

from repro.analysis import LintConfig, Severity, lint_netdef, lint_network
from repro.cli import main
from repro.framework.netdef import (
    ConvDef,
    FCDef,
    SoftmaxDef,
    format_netdef,
    parse_netdef,
)
from repro.gpusim import TITAN_BLACK
from repro.ir import infer_shapes, lower_netdef
from repro.ir.build import ShapeFault, walk_shapes
from repro.networks import NETWORK_BUILDERS, build_network

# Branch ``pb`` reads pool1 (8x8) while the layer before it, ``a``, is
# 1x1; the concat gives ``g`` 16 channels.  A walk down the layer list
# instead of the wiring sees a 1x1 input and 8 channels.
BRANCHING = """\
network branchy batch=4 input=3x32x32
conv conv1 co=8 f=3 pad=1
pool pool1 window=4 stride=4
conv a co=8 f=8
pool pb window=8 stride=8 bottom=pool1
concat cat inputs=a,pb
conv g co=16 f=1 groups=16 bottom=cat
fc fc1 out=10
softmax prob
"""

# ``b`` (no padding) is 14x14 while ``a`` is 16x16.
CONCAT_MISMATCH = """\
network mismatch batch=4 input=3x16x16
conv a co=8 f=3 pad=1
conv b co=8 f=3 bottom=a
concat cat inputs=a,b
fc fc1 out=10 bottom=cat
softmax prob
"""


def _errors(diagnostics):
    return [d for d in diagnostics if d.severity is Severity.ERROR]


class TestBranchingNetdef:
    def test_no_diagnostics(self):
        assert lint_netdef(parse_netdef(BRANCHING)) == []

    def test_cli_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "branchy.netdef"
        path.write_text(BRANCHING)
        assert main(["lint", "--netdef", str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestConcatMismatch:
    def test_one_error_on_the_concat(self):
        (d,) = _errors(lint_netdef(parse_netdef(CONCAT_MISMATCH)))
        assert (d.rule_id, d.subject) == ("N010", "cat")
        assert d.detail == {"input": "b", "dims": [4, 14, 14], "expected": [4, 16, 16]}

    def test_cli_exits_one(self, tmp_path, capsys):
        path = tmp_path / "mismatch.netdef"
        path.write_text(CONCAT_MISMATCH)
        assert main(["lint", "--netdef", str(path)]) == 1
        assert "N010" in capsys.readouterr().out

    def test_lint_network_reports_instead_of_raising(self):
        report = lint_network(TITAN_BLACK, parse_netdef(CONCAT_MISMATCH))
        assert [(d.rule_id, d.subject) for d in report.errors] == [("N010", "cat")]
        assert report.failed()

    def test_lint_network_does_not_plan_with_the_shape_rule_disabled(self):
        """The walk's problem, not the selected rules' errors, stops the
        pipeline, which would raise on the mismatched concat."""
        config = LintConfig(disabled=frozenset({"N010"}))
        report = lint_network(TITAN_BLACK, parse_netdef(CONCAT_MISMATCH), config=config)
        assert all(d.rule_id.startswith("N") for d in report.diagnostics)
        assert not any(d.rule_id == "N010" for d in report.diagnostics)


class TestWalk:
    def test_records_every_problem_and_keeps_going(self):
        graph = lower_netdef(
            parse_netdef(
                "network two batch=2 input=3x5x5\n"
                "conv conv1 co=8 f=7 groups=2\n"
                "conv conv2 co=8 f=9\n"
            )
        )
        problems = walk_shapes(graph)
        assert [(p.layer, p.kind) for p in problems] == [
            ("conv1", ShapeFault.GROUPS),
            ("conv1", ShapeFault.WINDOW),
            ("conv2", ShapeFault.WINDOW),
        ]
        # A filter that does not fit clamps the output extent to 1.
        assert graph["conv1"].out_dims == (2, 8, 1, 1)
        assert graph["conv1"].spec is None

    def test_infer_shapes_raises_the_first_problem(self):
        net = parse_netdef(CONCAT_MISMATCH)
        (problem,) = walk_shapes(lower_netdef(net))
        with pytest.raises(ValueError) as exc:
            infer_shapes(lower_netdef(net))
        assert str(exc.value) == f"cat: {problem.message}"


def _replace(net, name, **changes):
    layers = tuple(
        dataclasses.replace(layer, **changes) if layer.name == name else layer
        for layer in net.layers
    )
    return dataclasses.replace(net, layers=layers)


def _mutants():
    lenet, inception = build_network("lenet"), build_network("inception")
    yield "bad-window", _replace(lenet, "conv2", f=99)
    yield "pool-window", _replace(lenet, "pool2", window=99)
    yield "flatten-then-conv", dataclasses.replace(
        lenet,
        layers=lenet.layers[:4]
        + (FCDef("fc0", out_features=64), ConvDef("conv3", co=8, f=1))
        + lenet.layers[4:],
    )
    yield "bad-groups", _replace(inception, "b2b", groups=64)  # C=96
    yield "concat-mismatch", _replace(inception, "b3b", stride=2)
    yield "branch-window", _replace(inception, "b2b", f=31, pad=0)
    yield "concat-after-flatten", dataclasses.replace(
        inception,
        layers=tuple(
            FCDef("b4", out_features=32, bottom="pool2") if layer.name == "b4" else layer
            for layer in inception.layers
        ),
    )
    yield "softmax-without-fc", dataclasses.replace(
        lenet, layers=lenet.layers[:4] + (SoftmaxDef("prob"),)
    )
    yield "text-branching", parse_netdef(BRANCHING)
    yield "text-mismatch", parse_netdef(CONCAT_MISMATCH)


CASES = [pytest.param(build_network(n), id=n) for n in sorted(NETWORK_BUILDERS)] + [
    pytest.param(net, id=name) for name, net in _mutants()
]


@pytest.mark.parametrize("net", CASES)
def test_lint_errors_exactly_when_infer_shapes_raises(net):
    """No case has a layer past its softmax, so every N-error is a shape
    problem, and the first one names the layer ``infer_shapes`` rejects."""
    errors = _errors(lint_netdef(net))
    try:
        infer_shapes(lower_netdef(net))
    except ValueError as exc:
        assert errors, f"infer_shapes raised {exc} but lint found no error"
        order = [layer.name for layer in net.layers]
        first = min(order.index(d.subject) for d in errors)
        assert str(exc) in {
            f"{d.subject}: {d.message}"
            for d in errors
            if order.index(d.subject) == first
        }
    else:
        assert errors == []


def test_bundled_netdef_text_lints_clean(tmp_path, capsys):
    for name in sorted(NETWORK_BUILDERS):
        path = tmp_path / f"{name}.netdef"
        path.write_text(format_netdef(build_network(name)))
        assert main(["lint", "--netdef", str(path)]) == 0, name
    capsys.readouterr()
