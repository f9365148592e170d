"""Whole-network execution schemes: the library baselines and our ``Opt``.

These are the six mechanisms of the paper's Fig. 14:

* ``cudnn-mm`` / ``cudnn-fft`` / ``cudnn-fft-t`` — Caffe+cuDNN with the
  given convolution mode (FFT modes fall back to MM on failure), NCHW
  everywhere, cuDNN pooling and softmax;
* ``cudnn-best`` — cherry-picks the fastest cuDNN mode per conv layer;
* ``cuda-convnet`` — CHWN everywhere, direct convolution, five-kernel
  softmax;
* ``caffe`` — pure Caffe (no cuDNN): im2col+GEMM, NCHW pooling with mask
  stores, five-kernel softmax;
* ``opt`` — the paper's optimized framework: heuristic layout plan with
  fast transforms, auto-tuned CHWN pooling, fused-parallel softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from ..core.pipeline import PipelineOptions, ResolveShapes, plan_network, run_pipeline
from ..core.planner import NodeKind
from ..core.selector import best_conv_for_layout, cudnn_mode_conv
from ..framework.netdef import NetworkDef
from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext, default_context
from ..ir.build import lower_netdef
from ..layers.backward_kernels import (
    TRAINING_TRANSFORM_FACTOR,
    conv_backward_kernels,
    fc_backward_kernels,
    pool_backward_kernel,
    softmax_backward_kernel,
)
from ..layers.base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from ..layers.elementwise import LRNSpec, make_lrn_kernel
from ..layers.pooling_kernels import make_pool_kernel
from ..layers.softmax_kernels import make_softmax_kernel
from ..tensors.layout import CHWN, NCHW
from .names import SCHEMES


@dataclass(frozen=True)
class LayerTiming:
    """Per-layer result of one scheme.

    ``backward_ms`` is populated only in training mode (forward-backward
    timing, paper footnote 1); forward-only runs leave it at zero.
    """

    name: str
    kind: str
    layout: str
    implementation: str
    time_ms: float
    transform_ms: float = 0.0
    backward_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.time_ms + self.transform_ms + self.backward_ms


@dataclass(frozen=True)
class NetworkTiming:
    """Whole-network result of one scheme."""

    network: str
    scheme: str
    device: str
    layers: tuple[LayerTiming, ...]
    batch: int = 0

    @property
    def total_ms(self) -> float:
        return sum(l.total_ms for l in self.layers)

    @property
    def images_per_second(self) -> float:
        """Throughput, when the batch size is known (0 otherwise)."""
        if not self.batch or not self.total_ms:
            return 0.0
        return self.batch / (self.total_ms * 1e-3)

    def speedup_over(self, other: "NetworkTiming") -> float:
        return other.total_ms / self.total_ms if self.total_ms else 0.0

    def layer(self, name: str) -> LayerTiming:
        for l in self.layers:
            if l.name == name:
                return l
        raise KeyError(f"no layer {name!r} in {self.network}/{self.scheme}")


def _backward_ms(
    context: SimulationContext,
    layer,
    implementation: str,
    coarsen: tuple[int, int] | None = None,
) -> float:
    """Backward-pass time for one graph node under one implementation."""
    spec = layer.spec
    if isinstance(spec, ConvSpec):
        impl = {"direct": "direct", "im2col": "im2col"}.get(
            implementation, implementation
        )
        return sum(context.run(k).time_ms for k in conv_backward_kernels(spec, impl))
    if isinstance(spec, PoolSpec):
        kernel = pool_backward_kernel(spec, implementation, coarsen or (2, 2))
        return context.run(kernel).time_ms
    if isinstance(spec, SoftmaxSpec):
        impl = implementation.removeprefix("softmax-")
        kernel = softmax_backward_kernel(spec, impl)
        return context.run(kernel).time_ms
    if isinstance(spec, FCSpec):
        return sum(context.run(k).time_ms for k in fc_backward_kernels(spec))
    if isinstance(spec, LRNSpec):
        kernel = make_lrn_kernel(prod(layer.in_dims), spec)
        return context.run(kernel).time_ms
    raise TypeError(f"no backward model for spec {type(spec)!r}")


#: implementation names of the layout-transparent nodes ``ResolveShapes``
#: times once for every scheme
_FIXED_IMPLEMENTATIONS = {
    NodeKind.CONCAT: "concat",
    NodeKind.ELEMENTWISE: "lrn",
    NodeKind.CLASSIFIER: "fc-gemm",
}


def _library_scheme(
    net: NetworkDef,
    device: DeviceSpec,
    scheme: str,
    training: bool = False,
    context: SimulationContext | None = None,
) -> NetworkTiming:
    ctx = context or default_context(device)
    if scheme == "cuda-convnet":
        layout, pool_impl, softmax_impl = CHWN, "chwn", "5kernel"
    elif scheme == "caffe":
        layout, pool_impl, softmax_impl = NCHW, "nchw-linear", "5kernel"
    else:  # cudnn-*
        layout, pool_impl, softmax_impl = NCHW, "nchw-rowblock", "cudnn"
    mode = scheme.removeprefix("cudnn-") if scheme.startswith("cudnn-") else None
    if mode == "fft-t":
        mode = "fft-tiled"

    graph = run_pipeline(
        device, lower_netdef(net), context=ctx, passes=(ResolveShapes(),)
    ).graph
    rows: list[LayerTiming] = []
    for layer in graph:
        if layer.kind is NodeKind.CONV:
            assert isinstance(layer.spec, ConvSpec)
            if mode is not None:
                choice = cudnn_mode_conv(ctx, layer.spec, mode)
            elif layout == CHWN:
                choice = best_conv_for_layout(ctx, layer.spec, CHWN)
            else:
                choice = best_conv_for_layout(ctx, layer.spec, NCHW, allow_fft=False)
            bwd = (
                _backward_ms(ctx, layer, choice.implementation)
                if training
                else 0.0
            )
            rows.append(
                LayerTiming(
                    layer.name, "conv", str(layout), choice.implementation,
                    choice.time_ms, backward_ms=bwd,
                )
            )
        elif layer.kind is NodeKind.POOL:
            assert isinstance(layer.spec, PoolSpec)
            stats = ctx.run(make_pool_kernel(layer.spec, pool_impl))
            bwd = _backward_ms(ctx, layer, pool_impl) if training else 0.0
            rows.append(
                LayerTiming(
                    layer.name, "pool", str(layout), pool_impl, stats.time_ms,
                    backward_ms=bwd,
                )
            )
        elif layer.kind is NodeKind.CLASSIFIER and isinstance(layer.spec, SoftmaxSpec):
            stats = ctx.run(make_softmax_kernel(layer.spec, softmax_impl))
            bwd = (
                _backward_ms(ctx, layer, f"softmax-{softmax_impl}")
                if training
                else 0.0
            )
            rows.append(
                LayerTiming(
                    layer.name, "softmax", "-", f"softmax-{softmax_impl}",
                    stats.time_ms, backward_ms=bwd,
                )
            )
        else:
            impl, ms = _FIXED_IMPLEMENTATIONS[layer.kind], layer.fixed_ms
            if training:
                # concat has no parameters; its backward is the same split
                # traffic as its forward join
                bwd = _backward_ms(ctx, layer, impl) if layer.spec is not None else ms
            else:
                bwd = 0.0
            rows.append(
                LayerTiming(
                    layer.name, layer.kind.value, "-", impl, ms, backward_ms=bwd
                )
            )
    return NetworkTiming(net.name, scheme, device.name, tuple(rows), batch=net.batch)


def _opt_scheme(
    net: NetworkDef,
    device: DeviceSpec,
    training: bool = False,
    context: SimulationContext | None = None,
) -> NetworkTiming:
    # The heuristic sets per-layer preferences; the paper then applies
    # "one-time profiling ... to fine tune the data layout settings
    # automatically" (Section IV.D).  The optimal (min-cut) planner is that
    # fine-tuning step taken to its conclusion: it weighs every layout choice
    # against transform costs using the profiled (simulated) layer times.
    ctx = context or default_context(device)
    graph = plan_network(
        device, net, PipelineOptions(strategy="optimal"), context=ctx
    ).graph
    rows = []
    for node in graph:
        bwd = 0.0
        transform = node.transform_ms
        if training:
            if node.spec is not None:
                bwd = _backward_ms(ctx, node, node.implementation, node.coarsening)
            else:  # elementwise layers reuse their forward cost backward
                bwd = node.layer_ms
            # gradients cross every layout boundary in reverse
            transform *= TRAINING_TRANSFORM_FACTOR
        rows.append(
            LayerTiming(
                name=node.name,
                kind=node.kind.value,
                layout=str(node.layout) if node.kind.layout_bearing else "-",
                implementation=node.implementation,
                time_ms=node.layer_ms,
                transform_ms=transform,
                backward_ms=bwd,
            )
        )
    return NetworkTiming(net.name, "opt", device.name, tuple(rows), batch=net.batch)


def time_network(
    net: NetworkDef,
    device: DeviceSpec,
    scheme: str,
    training: bool = False,
    context: SimulationContext | None = None,
) -> NetworkTiming:
    """Simulate one network under one scheme.

    ``training=True`` times a complete forward-backward pass (the paper's
    profiling configuration in Section IV.D).
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    if scheme == "opt":
        return _opt_scheme(net, device, training, context)
    return _library_scheme(net, device, scheme, training, context)


def compare_schemes(
    net: NetworkDef,
    device: DeviceSpec,
    schemes: tuple[str, ...] = SCHEMES,
    training: bool = False,
    context: SimulationContext | None = None,
) -> dict[str, NetworkTiming]:
    """Run several schemes on one network (the Fig. 14 harness).

    Schemes share many layer kernels (every cuDNN mode runs the same
    pooling, all NCHW convs appear in several schemes), so one shared
    ``context`` makes the whole comparison dramatically cheaper.
    """
    ctx = context or default_context(device)
    return {
        scheme: time_network(net, device, scheme, training, context=ctx)
        for scheme in schemes
    }
