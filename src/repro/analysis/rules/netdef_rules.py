"""N0xx rules: network-definition sanity (shape arithmetic, channel
propagation, dead layers).

These checks re-walk the layer stack with a *tolerant* shape inference:
unlike :func:`repro.ir.build.infer_shapes`, which raises on the first
inconsistency, the walker records every problem it can attribute to a layer
and keeps going, so one lint run reports the whole damage.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from ...framework.netdef import (
    ConvDef,
    FCDef,
    LRNDef,
    NetworkDef,
    PoolDef,
    SoftmaxDef,
)
from .base import Finding, NetdefScope, Severity, rule


@lru_cache(maxsize=128)
def _walk(net: NetworkDef) -> tuple[tuple[str, Finding], ...]:
    """Tolerant shape walk; returns (rule_id, finding) pairs."""
    found: list[tuple[str, Finding]] = []
    dims: tuple[int, int, int, int] | None = (
        net.batch,
        net.in_channels,
        net.in_h,
        net.in_w,
    )
    features: int | None = None
    classifier_done = False

    for defn in net.layers:
        if classifier_done:
            found.append(
                (
                    "N003",
                    Finding(
                        defn.name,
                        "layer is unreachable: it follows the softmax classifier",
                    ),
                )
            )
            continue
        if isinstance(defn, ConvDef):
            if dims is None:
                found.append(
                    (
                        "N004",
                        Finding(
                            defn.name,
                            "convolution after flattening: a fully-connected "
                            "layer already collapsed the 4-D activations",
                        ),
                    )
                )
                continue
            n, c, h, w = dims
            if c % defn.groups:
                found.append(
                    (
                        "N005",
                        Finding(
                            defn.name,
                            f"groups={defn.groups} does not divide the "
                            f"propagated input channels C={c}",
                            {"groups": defn.groups, "channels": c},
                        ),
                    )
                )
            out_h = (h + 2 * defn.pad - defn.f) // defn.stride + 1
            out_w = (w + 2 * defn.pad - defn.f) // defn.stride + 1
            if out_h <= 0 or out_w <= 0:
                found.append(
                    (
                        "N001",
                        Finding(
                            defn.name,
                            f"filter {defn.f}x{defn.f} (stride {defn.stride}, "
                            f"pad {defn.pad}) does not fit the {h}x{w} input",
                            {"filter": defn.f, "input": [h, w], "pad": defn.pad},
                        ),
                    )
                )
                out_h, out_w = max(out_h, 1), max(out_w, 1)
            if defn.pad >= defn.f:
                found.append(
                    (
                        "N008",
                        Finding(
                            defn.name,
                            f"pad {defn.pad} >= filter extent {defn.f}: some "
                            "output windows read only zero padding",
                            {"pad": defn.pad, "filter": defn.f},
                        ),
                    )
                )
            dims = (n, defn.co, out_h, out_w)
        elif isinstance(defn, PoolDef):
            if dims is None:
                found.append(
                    (
                        "N004",
                        Finding(
                            defn.name,
                            "pooling after flattening: a fully-connected "
                            "layer already collapsed the 4-D activations",
                        ),
                    )
                )
                continue
            n, c, h, w = dims
            if defn.window > h or defn.window > w:
                found.append(
                    (
                        "N002",
                        Finding(
                            defn.name,
                            f"pooling window {defn.window} is larger than the "
                            f"{h}x{w} input",
                            {"window": defn.window, "input": [h, w]},
                        ),
                    )
                )
                continue  # output shape undefined; keep previous dims
            if defn.stride > defn.window:
                found.append(
                    (
                        "N007",
                        Finding(
                            defn.name,
                            f"stride {defn.stride} exceeds window {defn.window}: "
                            "input rows/columns are skipped entirely",
                            {"stride": defn.stride, "window": defn.window},
                        ),
                    )
                )
            out_h = -(-(h - defn.window) // defn.stride) + 1
            out_w = -(-(w - defn.window) // defn.stride) + 1
            dims = (n, c, out_h, out_w)
        elif isinstance(defn, LRNDef):
            if dims is None:
                found.append(
                    (
                        "N004",
                        Finding(
                            defn.name,
                            "LRN after flattening: a fully-connected layer "
                            "already collapsed the 4-D activations",
                        ),
                    )
                )
        elif isinstance(defn, FCDef):
            features = defn.out_features
            dims = None
        elif isinstance(defn, SoftmaxDef):
            if features is None:
                found.append(
                    (
                        "N006",
                        Finding(
                            defn.name,
                            "softmax has no preceding fully-connected layer "
                            "to define its category count",
                        ),
                    )
                )
            classifier_done = True

    if not classifier_done:
        found.append(
            (
                "N009",
                Finding(
                    net.layers[-1].name if net.layers else net.name,
                    "network ends without a softmax classifier head",
                ),
            )
        )
    return tuple(found)


def _from_walk(scope: NetdefScope, rule_id: str) -> Iterator[Finding]:
    if scope.net is None:
        return
    for rid, finding in _walk(scope.net):
        if rid == rule_id:
            yield finding


@rule(
    "N000",
    Severity.ERROR,
    "network definition cannot be parsed or constructed",
    rationale="A definition that fails parsing or construction-time "
    "hyperparameter validation has no well-defined layer stack to analyze.",
    example="conv layer with stride=0, or a malformed netdef file",
)
def netdef_invalid(scope: NetdefScope) -> Iterator[Finding]:
    if scope.error is not None:
        yield Finding("netdef", scope.error)


@rule(
    "N001",
    Severity.ERROR,
    "convolution window does not fit the padded input",
    rationale="Equation 1 yields a non-positive output extent; the layer "
    "cannot execute and every downstream shape is undefined.",
    example="7x7 filter on a 5x5 input with pad=0",
)
def conv_window_fit(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N001")


@rule(
    "N002",
    Severity.ERROR,
    "pooling window larger than the input extent",
    rationale="Even ceil-mode pooling needs the first window to start "
    "inside the input (Equation 2).",
    example="window=5 pooling on a 3x3 feature map",
)
def pool_window_fit(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N002")


@rule(
    "N003",
    Severity.ERROR,
    "layer is unreachable (follows the softmax classifier)",
    rationale="The softmax is the terminal classifier; anything after it is "
    "dead weight the framework would still allocate memory for.",
    example="a conv layer declared after the softmax line",
)
def dead_layer(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N003")


@rule(
    "N004",
    Severity.ERROR,
    "spatial layer after flattening",
    rationale="A fully-connected layer collapses the 4-D activations; a "
    "later conv/pool/LRN has no spatial input to operate on.",
    example="fc -> conv ordering",
)
def spatial_after_flatten(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N004")


@rule(
    "N005",
    Severity.ERROR,
    "channel groups do not divide the propagated input channels",
    rationale="Grouped convolution partitions both channel dimensions; a "
    "non-dividing group count is a channel-propagation inconsistency.",
    example="groups=2 convolution receiving 95 input channels",
)
def groups_divide_channels(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N005")


@rule(
    "N006",
    Severity.ERROR,
    "softmax without a preceding fully-connected layer",
    rationale="The classifier's category count comes from the last FC "
    "layer's output features; without one it is undefined.",
    example="conv -> softmax with no fc in between",
)
def softmax_needs_features(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N006")


@rule(
    "N007",
    Severity.WARNING,
    "pooling stride exceeds the window (input elements skipped)",
    rationale="Rows/columns between windows are never read — usually a "
    "transposed window/stride pair rather than an intended subsampling.",
    example="window=2, stride=3 pooling",
)
def pool_stride_skips(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N007")


@rule(
    "N008",
    Severity.WARNING,
    "padding at least as large as the filter extent",
    rationale="Output positions exist whose window reads only zero padding; "
    "they waste compute and dilute the feature map.",
    example="3x3 filter with pad=3",
)
def excessive_padding(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N008")


@rule(
    "N009",
    Severity.INFO,
    "network ends without a classifier head",
    rationale="Benchmark networks normally terminate in fc+softmax; a "
    "missing head is legal (feature extractor) but worth confirming.",
    example="a conv/pool-only stack",
)
def missing_classifier(scope: NetdefScope) -> Iterator[Finding]:
    yield from _from_walk(scope, "N009")
