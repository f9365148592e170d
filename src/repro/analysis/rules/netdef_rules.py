"""N0xx rules: network-definition sanity (shape arithmetic, channel
propagation, dead layers).

The rules read the graph :func:`repro.ir.lower_netdef` builds, so they
follow ``bottom=``/``concat`` wiring, and the problems
:func:`repro.ir.build.walk_shapes` records while resolving it — the same
walk :func:`~repro.ir.build.infer_shapes` raises from.  The walk keeps
going past a problem, so one lint run reports the whole damage.  A layer
downstream of the softmax gets N003 and nothing else.
"""

from __future__ import annotations

from collections.abc import Iterator

from ...framework.netdef import ConvDef, PoolDef, SoftmaxDef
from ...ir.build import ShapeFault
from ...ir.graph import Graph, GraphNode
from .base import Finding, NetdefScope, Severity, rule


def _past_softmax(graph: Graph) -> set[str]:
    """Names of the nodes that consume a softmax's output, transitively."""
    dead: set[str] = set()
    for node in graph.topological():
        if any(
            src in dead or isinstance(graph[src].defn, SoftmaxDef)
            for src in node.inputs
        ):
            dead.add(node.name)
    return dead


def _live_nodes(scope: NetdefScope) -> Iterator[GraphNode]:
    if scope.net is None:
        return
    graph, _ = scope.resolved
    dead = _past_softmax(graph)
    yield from (node for node in graph.topological() if node.name not in dead)


def _problems(scope: NetdefScope, kind: ShapeFault) -> Iterator[Finding]:
    if scope.net is None:
        return
    graph, problems = scope.resolved
    dead = _past_softmax(graph)
    for problem in problems:
        if problem.kind is kind and problem.layer not in dead:
            yield Finding(problem.layer, problem.message, problem.detail)


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
    yield from _problems(scope, ShapeFault.WINDOW)


@rule(
    "N002",
    Severity.ERROR,
    "pooling window larger than the input extent",
    rationale="Even ceil-mode pooling needs the first window to start "
    "inside the input (Equation 2).",
    example="window=5 pooling on a 3x3 feature map",
)
def pool_window_fit(scope: NetdefScope) -> Iterator[Finding]:
    yield from _problems(scope, ShapeFault.POOL_WINDOW)


@rule(
    "N003",
    Severity.ERROR,
    "layer is unreachable (follows the softmax classifier)",
    rationale="The softmax is the terminal classifier; anything after it is "
    "dead weight the framework would still allocate memory for.",
    example="a conv layer declared after the softmax line",
)
def dead_layer(scope: NetdefScope) -> Iterator[Finding]:
    if scope.net is None:
        return
    graph, _ = scope.resolved
    dead = _past_softmax(graph)
    for node in graph.topological():
        if node.name in dead:
            yield Finding(
                node.name, "layer is unreachable: it follows the softmax classifier"
            )


@rule(
    "N004",
    Severity.ERROR,
    "spatial layer after flattening",
    rationale="A fully-connected layer collapses the 4-D activations; a "
    "later conv/pool/LRN has no spatial input to operate on.",
    example="fc -> conv ordering",
)
def spatial_after_flatten(scope: NetdefScope) -> Iterator[Finding]:
    yield from _problems(scope, ShapeFault.FLATTENED)


@rule(
    "N005",
    Severity.ERROR,
    "channel groups do not divide the propagated input channels",
    rationale="Grouped convolution partitions both channel dimensions; a "
    "non-dividing group count is a channel-propagation inconsistency.",
    example="groups=2 convolution receiving 95 input channels",
)
def groups_divide_channels(scope: NetdefScope) -> Iterator[Finding]:
    yield from _problems(scope, ShapeFault.GROUPS)


@rule(
    "N006",
    Severity.ERROR,
    "softmax without a preceding fully-connected layer",
    rationale="The classifier's category count comes from the last FC "
    "layer's output features; without one it is undefined.",
    example="conv -> softmax with no fc in between",
)
def softmax_needs_features(scope: NetdefScope) -> Iterator[Finding]:
    yield from _problems(scope, ShapeFault.NO_FEATURES)


@rule(
    "N007",
    Severity.WARNING,
    "pooling stride exceeds the window (input elements skipped)",
    rationale="Rows/columns between windows are never read — usually a "
    "transposed window/stride pair rather than an intended subsampling.",
    example="window=2, stride=3 pooling",
)
def pool_stride_skips(scope: NetdefScope) -> Iterator[Finding]:
    for node in _live_nodes(scope):
        defn = node.defn
        if isinstance(defn, PoolDef) and defn.stride > defn.window:
            yield Finding(
                node.name,
                f"stride {defn.stride} exceeds window {defn.window}: "
                "input rows/columns are skipped entirely",
                {"stride": defn.stride, "window": defn.window},
            )


@rule(
    "N008",
    Severity.WARNING,
    "padding at least as large as the filter extent",
    rationale="Output positions exist whose window reads only zero padding; "
    "they waste compute and dilute the feature map.",
    example="3x3 filter with pad=3",
)
def excessive_padding(scope: NetdefScope) -> Iterator[Finding]:
    for node in _live_nodes(scope):
        defn = node.defn
        if isinstance(defn, ConvDef) and defn.pad >= defn.f:
            yield Finding(
                node.name,
                f"pad {defn.pad} >= filter extent {defn.f}: some "
                "output windows read only zero padding",
                {"pad": defn.pad, "filter": defn.f},
            )


@rule(
    "N009",
    Severity.INFO,
    "network ends without a classifier head",
    rationale="Benchmark networks normally terminate in fc+softmax; a "
    "missing head is legal (feature extractor) but worth confirming.",
    example="a conv/pool-only stack",
)
def missing_classifier(scope: NetdefScope) -> Iterator[Finding]:
    net = scope.net
    if net is None or any(isinstance(d, SoftmaxDef) for d in net.layers):
        return
    yield Finding(
        net.layers[-1].name if net.layers else net.name,
        "network ends without a softmax classifier head",
    )


@rule(
    "N010",
    Severity.ERROR,
    "concat inputs disagree in N, H or W",
    rationale="A channel-axis join needs every input to share batch and "
    "spatial extents; otherwise the joined tensor has no shape.",
    example="concat of a 16x16 and a 14x14 feature map",
)
def concat_dims_agree(scope: NetdefScope) -> Iterator[Finding]:
    yield from _problems(scope, ShapeFault.CONCAT)
