"""Lowering a NetworkDef into the graph IR.

:func:`lower_netdef` builds a :class:`~repro.ir.graph.Graph` from a
:class:`~repro.framework.netdef.NetworkDef`, honoring explicit ``bottom=``
wiring (DAGs) and defaulting to the previous layer (chains).  It is the
only way into the pass pipeline.

:func:`walk_shapes` is the single shape-inference implementation.  It
resolves every node in topological order, records each inconsistency as a
:class:`ShapeProblem` of one :class:`ShapeFault` kind, and keeps going.
Its two entry points are :func:`infer_shapes`, which raises the first
problem (the pipeline's ``ResolveShapes`` pass and ``framework.net.Net``
run it, and the shape-inferred graph is the one resolved form of a
network), and the ``N0xx`` lint rules, which report every problem.  Error
messages use the layer-prefixed wording ("conv3: convolution after
flattening: ...") because user code and tests match on it.

This module imports only the IR and layer-spec leaves at module level —
``framework.netdef`` is imported lazily inside :func:`lower_netdef` — so
the pipeline and the framework can both depend on it without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any

from ..layers.base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec, conv_out_extent
from ..layers.elementwise import LRNSpec
from .graph import Dims, Graph, GraphError, GraphNode, NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..framework.netdef import ConvDef, NetworkDef


def lower_netdef(net: "NetworkDef") -> Graph:
    """Lower a layer stack to an (unresolved) graph.

    Wiring: a layer with ``bottom=None`` consumes the previous layer's
    output (the first layer consumes the network input); ``bottom="name"``
    consumes that named layer; a concat layer names all its inputs.  Shapes
    are *not* inferred here — run :func:`infer_shapes` (or the
    ``ResolveShapes`` pass) on the result.
    """
    from ..framework.netdef import (
        ConcatDef,
        ConvDef,
        FCDef,
        LRNDef,
        PoolDef,
        SoftmaxDef,
    )

    kind_of = {
        ConvDef: NodeKind.CONV,
        PoolDef: NodeKind.POOL,
        LRNDef: NodeKind.ELEMENTWISE,
        FCDef: NodeKind.CLASSIFIER,
        SoftmaxDef: NodeKind.CLASSIFIER,
        ConcatDef: NodeKind.CONCAT,
    }
    graph = Graph(
        name=net.name,
        batch=net.batch,
        in_channels=net.in_channels,
        in_h=net.in_h,
        in_w=net.in_w,
    )
    prev: str | None = None
    for defn in net.layers:
        kind = kind_of.get(type(defn))
        if kind is None:  # pragma: no cover - closed union
            raise TypeError(f"unknown layer def {type(defn)!r}")
        if isinstance(defn, ConcatDef):
            inputs = defn.inputs
        else:
            bottom = getattr(defn, "bottom", None)
            if bottom is not None:
                inputs = (bottom,)
            elif prev is not None:
                inputs = (prev,)
            else:
                inputs = ()  # first layer: network input
        for src in inputs:
            if src not in graph:
                raise GraphError(
                    f"{defn.name}: bottom {src!r} does not name an earlier layer"
                )
        graph.add(GraphNode(name=defn.name, kind=kind, inputs=inputs, defn=defn))
        prev = defn.name
    graph.validate()
    return graph


class ShapeFault(Enum):
    """The ways a node's shape can fail to resolve (one N-rule each)."""

    WINDOW = "window does not fit"
    POOL_WINDOW = "pool window too large"
    FLATTENED = "after flattening"
    GROUPS = "groups do not divide C"
    NO_FEATURES = "softmax without FC"
    CONCAT = "concat N/H/W mismatch"


@dataclass(frozen=True)
class ShapeProblem:
    """One inconsistency :func:`walk_shapes` found at one layer."""

    layer: str
    kind: ShapeFault
    message: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.layer}: {self.message}"


_FLATTENED = (
    "after flattening: a fully-connected layer already collapsed the 4-D activations"
)
_SPATIAL_NAME = {
    NodeKind.CONV: "convolution",
    NodeKind.POOL: "pooling",
    NodeKind.ELEMENTWISE: "LRN",
}


def _producer_dims(
    graph: Graph, node: GraphNode
) -> tuple[Dims | None, int | None]:
    """(4-D dims, flattened features) arriving at ``node``'s single input."""
    if not node.inputs:
        return graph.in_dims, None
    producer = graph[node.inputs[0]]
    return producer.out_dims, producer.out_features


def _conv_extent(extent: int, defn: "ConvDef") -> int:
    """Equation 1's output extent, or 0 when the filter does not fit."""
    try:
        return conv_out_extent(extent, defn.f, defn.stride, defn.pad)
    except ValueError:
        return 0


def walk_shapes(graph: Graph) -> list[ShapeProblem]:
    """Resolve specs/dims for every node in topological order, recording
    every problem instead of stopping at the first.

    A node with a problem gets no spec, but its output stays defined so
    the walk reaches the rest of the graph: a filter that does not fit
    clamps the output extent to 1; a spatial layer after flattening and a
    pooling window larger than its input pass their input through; a
    concat takes N/H/W from its first input.
    """
    from ..framework.netdef import ConvDef, FCDef, LRNDef, PoolDef

    problems: list[ShapeProblem] = []

    def report(node: GraphNode, kind: ShapeFault, message: str, **detail: Any) -> None:
        problems.append(ShapeProblem(node.name, kind, message, detail))

    for node in graph.topological():
        found = len(problems)
        defn = node.defn
        dims, features = _producer_dims(graph, node)
        node.spec = None
        node.in_dims = dims
        if node.kind is NodeKind.CONCAT:
            joined = [
                (p.name, p.out_dims)
                for p in graph.producers(node.name)
                if p.out_dims is not None
            ]
            if len(joined) < len(node.inputs):
                report(node, ShapeFault.FLATTENED, f"concat {_FLATTENED}")
            dims = None
            if joined:
                base = joined[0][1]
                for src, d in joined:
                    if (d[0], d[2], d[3]) != (base[0], base[2], base[3]):
                        report(
                            node,
                            ShapeFault.CONCAT,
                            f"concat input {src!r} has spatial dims "
                            f"{d[0]}x{d[2]}x{d[3]}, expected "
                            f"{base[0]}x{base[2]}x{base[3]}",
                            input=src,
                            dims=[d[0], d[2], d[3]],
                            expected=[base[0], base[2], base[3]],
                        )
                        break
                channels = sum(d[1] for _, d in joined)
                dims = (base[0], channels, base[2], base[3])
            node.in_dims = node.out_dims = dims
        elif node.kind is NodeKind.CLASSIFIER:
            node.out_dims = None
            if isinstance(defn, FCDef):
                in_features, batch = features, graph.batch
                if dims is not None:
                    n, c, h, w = dims
                    in_features, batch = c * h * w, n
                node.out_features = defn.out_features
                # No input features means an earlier problem left nothing
                # to flatten; that problem is already recorded.
                if in_features is not None:
                    node.spec = FCSpec(
                        n=batch, in_features=in_features,
                        out_features=defn.out_features,
                    )
            else:  # softmax
                node.in_dims = None
                node.out_features = features
                if features is None:
                    report(
                        node,
                        ShapeFault.NO_FEATURES,
                        "softmax has no preceding fully-connected layer "
                        "to define its category count",
                    )
                else:
                    node.spec = SoftmaxSpec(n=graph.batch, categories=features)
        elif dims is None:
            name = _SPATIAL_NAME[node.kind]
            report(node, ShapeFault.FLATTENED, f"{name} {_FLATTENED}")
            node.out_dims = None
            node.out_features = features
        elif node.kind is NodeKind.CONV:
            assert isinstance(defn, ConvDef)
            n, c, h, w = dims
            if c % defn.groups:
                report(
                    node,
                    ShapeFault.GROUPS,
                    f"groups={defn.groups} does not divide the propagated "
                    f"input channels C={c}",
                    groups=defn.groups,
                    channels=c,
                )
            out_h, out_w = _conv_extent(h, defn), _conv_extent(w, defn)
            if not (out_h and out_w):
                report(
                    node,
                    ShapeFault.WINDOW,
                    f"filter {defn.f}x{defn.f} (stride {defn.stride}, "
                    f"pad {defn.pad}) does not fit the {h}x{w} input",
                    filter=defn.f,
                    input=[h, w],
                    pad=defn.pad,
                )
            node.out_dims = (n, defn.co, max(out_h, 1), max(out_w, 1))
            if len(problems) == found:
                node.spec = ConvSpec(
                    n=n, ci=c, h=h, w=w, co=defn.co,
                    fh=defn.f, fw=defn.f, stride=defn.stride, pad=defn.pad,
                    groups=defn.groups,
                )
        elif node.kind is NodeKind.POOL:
            assert isinstance(defn, PoolDef)
            n, c, h, w = dims
            node.out_dims = dims
            if defn.window > h or defn.window > w:
                report(
                    node,
                    ShapeFault.POOL_WINDOW,
                    f"pooling window {defn.window} is larger than the "
                    f"{h}x{w} input",
                    window=defn.window,
                    input=[h, w],
                )
            else:
                spec = PoolSpec(
                    n=n, c=c, h=h, w=w,
                    window=defn.window, stride=defn.stride, op=defn.op,
                )
                node.spec = spec
                node.out_dims = (n, c, spec.out_h, spec.out_w)
        elif node.kind is NodeKind.ELEMENTWISE:
            assert isinstance(defn, LRNDef)
            node.spec = LRNSpec(depth=defn.depth)
            node.out_dims = dims
        else:  # pragma: no cover - enum is closed
            raise TypeError(f"unknown node kind {node.kind!r}")
    return problems


def infer_shapes(graph: Graph) -> Graph:
    """Resolve specs/dims for every node, in topological order.

    Raises ``ValueError`` with the first problem :func:`walk_shapes`
    records, prefixed with the offending layer's name.
    """
    problems = walk_shapes(graph)
    if problems:
        raise ValueError(str(problems[0]))
    return graph
