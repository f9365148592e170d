"""Numeric execution of a network (the Caffe-analog runtime).

:class:`Net` holds a :class:`~repro.framework.netdef.NetworkDef` and its
shape-inferred graph (``repro.ir.build``, so branching networks resolve
too), and can execute the network numerically under any per-layer layout
annotations — performing real relayouts at layout boundaries, exactly
where the integrated framework would launch its transformation kernel.
Numeric results are plan-invariant, which the integration tests assert.  The
model consumers (schemes, footprint, attribution) take the definition,
not the ``Net``: ``repro.core.pipeline.plan_network(device,
net.definition)`` plans it.
"""

from __future__ import annotations

import numpy as np

from ..ir.build import infer_shapes, lower_netdef
from ..ir.graph import GraphNode, NodeKind
from ..layers.base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from ..layers.conv import conv_forward, make_filters
from ..layers.elementwise import LRNSpec, lrn_forward, relu_forward
from ..layers.fc import fc_forward, flatten_4d, make_fc_weights
from ..layers.softmax import softmax_forward
from ..tensors.layout import NCHW, DataLayout
from ..tensors.tensor import Tensor4D
from .annotate import LayerAnnotation
from .netdef import ConvDef, FCDef, NetworkDef


class Net:
    """A resolved network: the shape-inferred graph + numeric execution."""

    def __init__(self, definition: NetworkDef) -> None:
        self.definition = definition
        self.graph = infer_shapes(lower_netdef(definition))

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def layers(self) -> tuple[GraphNode, ...]:
        """The graph's nodes in topological order (definition order for
        chains)."""
        return self.graph.topological()

    # -- numeric execution -------------------------------------------------
    def init_weights(self, seed: int = 0) -> dict[str, object]:
        """Seeded parameters for every parameterized layer."""
        weights: dict[str, object] = {}
        for i, layer in enumerate(self.layers):
            if isinstance(layer.spec, ConvSpec):
                weights[layer.name] = make_filters(layer.spec, seed=seed + i + 1)
            elif isinstance(layer.spec, FCSpec):
                weights[layer.name] = make_fc_weights(layer.spec, seed=seed + i + 1)
        return weights

    def make_input(self, seed: int = 0, layout: DataLayout = NCHW) -> Tensor4D:
        d = self.definition
        rng = np.random.default_rng(seed)
        logical = rng.standard_normal(
            (d.batch, d.in_channels, d.in_h, d.in_w)
        ).astype(np.float32)
        return Tensor4D.from_nchw(logical, layout)

    def forward(
        self,
        x: Tensor4D,
        weights: dict[str, object] | None = None,
        annotations: dict[str, LayerAnnotation] | None = None,
    ) -> np.ndarray:
        """Run the network numerically; returns the softmax/FC output.

        With per-layer annotations (``annotations_from_plan`` of a planned
        graph, or ``parse_annotated_netdef``), conv/pool layers execute in
        their annotated layout and implementation, and real relayouts happen
        at the boundaries (the numeric twin of the runtime transformation
        insertion of Section IV.D).
        """
        weights = weights if weights is not None else self.init_weights()
        annotations = annotations or {}
        produced: dict[str, Tensor4D | np.ndarray] = {}
        current: Tensor4D | np.ndarray = x
        for layer in self.layers:
            ann = annotations.get(layer.name)
            current = produced[layer.inputs[0]] if layer.inputs else x
            if layer.kind is NodeKind.CONCAT:
                parts = [produced[src] for src in layer.inputs]
                assert all(isinstance(p, Tensor4D) for p in parts)
                target = parts[0].layout  # type: ignore[union-attr]
                joined = np.concatenate(
                    [p.as_nchw() for p in parts],  # type: ignore[union-attr]
                    axis=1,
                )
                produced[layer.name] = Tensor4D.from_nchw(joined, target)
                continue
            if layer.kind in (NodeKind.CONV, NodeKind.POOL):
                assert isinstance(current, Tensor4D)
                target = ann.layout if ann else current.layout
                if target != current.layout:
                    current = current.to_layout(target)
                if layer.kind is NodeKind.CONV:
                    assert isinstance(layer.spec, ConvSpec)
                    impl = _numeric_conv_impl(ann.implementation if ann else "direct")
                    current = conv_forward(current, weights[layer.name], layer.spec, impl)
                    if isinstance(layer.defn, ConvDef) and layer.defn.relu:
                        current = Tensor4D.from_nchw(
                            relu_forward(current.as_nchw()), current.layout
                        )
                else:
                    assert isinstance(layer.spec, PoolSpec)
                    coarsen = ann.coarsening if ann else None
                    from ..layers.pooling import pool_forward

                    current = pool_forward(current, layer.spec, coarsen=coarsen)
            elif layer.kind is NodeKind.ELEMENTWISE:
                assert isinstance(current, Tensor4D)
                assert isinstance(layer.spec, LRNSpec)
                current = Tensor4D.from_nchw(
                    lrn_forward(current.as_nchw(), layer.spec), current.layout
                )
            else:  # classifier
                spec = layer.spec
                if isinstance(spec, FCSpec):
                    data = (
                        flatten_4d(current.as_nchw())
                        if isinstance(current, Tensor4D)
                        else current
                    )
                    w, b = weights[layer.name]
                    data = fc_forward(data, w, b)
                    if isinstance(layer.defn, FCDef) and layer.defn.relu:
                        data = relu_forward(data)
                    current = data
                else:
                    assert isinstance(spec, SoftmaxSpec)
                    assert isinstance(current, np.ndarray)
                    current = softmax_forward(current, spec, fused=True)
            produced[layer.name] = current
        out = produced[self.layers[-1].name] if self.layers else x
        if isinstance(out, Tensor4D):
            return out.as_nchw()
        return out


def _numeric_conv_impl(plan_impl: str) -> str:
    """Map a planner implementation name to a numeric conv implementation."""
    if plan_impl.startswith("fft"):
        return "fft"
    if plan_impl == "im2col":
        return "im2col"
    return "direct"
