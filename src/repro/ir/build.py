"""Lowering a NetworkDef into the graph IR.

:func:`lower_netdef` builds a :class:`~repro.ir.graph.Graph` from a
:class:`~repro.framework.netdef.NetworkDef`, honoring explicit ``bottom=``
wiring (DAGs) and defaulting to the previous layer (chains).  It is the
only way into the pass pipeline.

:func:`infer_shapes` is the single shape-inference implementation: the
pipeline's ``ResolveShapes`` pass and ``framework.net.Net`` both run it,
and the shape-inferred graph is the one resolved form of a network.  Error
messages use the layer-prefixed wording ("conv3: convolution after
flattening") because user code and tests match on it.

This module imports only the IR and layer-spec leaves at module level —
``framework.netdef`` is imported lazily inside :func:`lower_netdef` — so
the pipeline and the framework can both depend on it without a cycle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..layers.base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from ..layers.elementwise import LRNSpec
from .graph import Dims, Graph, GraphError, GraphNode, NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..framework.netdef import NetworkDef


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


def _producer_dims(
    graph: Graph, node: GraphNode
) -> tuple[Dims | None, int | None]:
    """(4-D dims, flattened features) arriving at ``node``'s single input."""
    if not node.inputs:
        return graph.in_dims, None
    producer = graph[node.inputs[0]]
    return producer.out_dims, producer.out_features


def infer_shapes(graph: Graph) -> Graph:
    """Resolve specs/dims for every node, in topological order.

    Raises ``ValueError`` prefixed with the offending layer's name on
    inconsistent geometry.
    """
    from ..framework.netdef import ConvDef, FCDef, LRNDef, PoolDef

    for node in graph.topological():
        defn = node.defn
        if node.kind is NodeKind.CONV:
            assert isinstance(defn, ConvDef)
            dims, _ = _producer_dims(graph, node)
            if dims is None:
                raise ValueError(f"{node.name}: convolution after flattening")
            n, c, h, w = dims
            try:
                spec = ConvSpec(
                    n=n, ci=c, h=h, w=w, co=defn.co,
                    fh=defn.f, fw=defn.f, stride=defn.stride, pad=defn.pad,
                    groups=defn.groups,
                )
            except ValueError as exc:
                raise ValueError(f"{node.name}: {exc}") from exc
            node.spec = spec
            node.in_dims = dims
            node.out_dims = (n, defn.co, spec.out_h, spec.out_w)
        elif node.kind is NodeKind.POOL:
            assert isinstance(defn, PoolDef)
            dims, _ = _producer_dims(graph, node)
            if dims is None:
                raise ValueError(f"{node.name}: pooling after flattening")
            n, c, h, w = dims
            try:
                spec = PoolSpec(
                    n=n, c=c, h=h, w=w,
                    window=defn.window, stride=defn.stride, op=defn.op,
                )
            except ValueError as exc:
                raise ValueError(f"{node.name}: {exc}") from exc
            node.spec = spec
            node.in_dims = dims
            node.out_dims = (n, c, spec.out_h, spec.out_w)
        elif node.kind is NodeKind.ELEMENTWISE:
            assert isinstance(defn, LRNDef)
            dims, _ = _producer_dims(graph, node)
            if dims is None:
                raise ValueError(f"{node.name}: LRN after flattening")
            node.spec = LRNSpec(depth=defn.depth)
            node.in_dims = dims
            node.out_dims = dims
        elif node.kind is NodeKind.CONCAT:
            shapes: list[Dims] = []
            for producer in graph.producers(node.name):
                if producer.out_dims is None:
                    raise ValueError(f"{node.name}: concat after flattening")
                shapes.append(producer.out_dims)
            base = shapes[0]
            for src, dims in zip(node.inputs, shapes):
                if (dims[0], dims[2], dims[3]) != (base[0], base[2], base[3]):
                    raise ValueError(
                        f"{node.name}: concat input {src!r} has spatial dims "
                        f"{dims[0]}x{dims[2]}x{dims[3]}, expected "
                        f"{base[0]}x{base[2]}x{base[3]}"
                    )
            channels = sum(dims[1] for dims in shapes)
            node.spec = None
            node.in_dims = (base[0], channels, base[2], base[3])
            node.out_dims = node.in_dims
        elif node.kind is NodeKind.CLASSIFIER:
            dims, features = _producer_dims(graph, node)
            if isinstance(defn, FCDef):
                if dims is not None:
                    n, c, h, w = dims
                    in_features = c * h * w
                    batch = n
                else:
                    if features is None:
                        raise ValueError(
                            f"{node.name}: FC needs a preceding layer output"
                        )
                    in_features = features
                    batch = graph.batch
                node.spec = FCSpec(
                    n=batch, in_features=in_features,
                    out_features=defn.out_features,
                )
                node.in_dims = dims
                node.out_dims = None
                node.out_features = defn.out_features
            else:  # softmax
                if features is None:
                    raise ValueError(
                        f"{node.name}: softmax needs a preceding FC layer"
                    )
                node.spec = SoftmaxSpec(n=graph.batch, categories=features)
                node.in_dims = None
                node.out_dims = None
                node.out_features = features
        else:  # pragma: no cover - enum is closed
            raise TypeError(f"unknown node kind {node.kind!r}")
    return graph
