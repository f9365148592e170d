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

import numpy as np

from ..core.pipeline import PipelineOptions, plan_network
from ..core.planner import NodeKind
from ..core.selector import best_conv_for_layout, cudnn_mode_conv
from ..framework.net import Net
from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext, default_context
from ..layers.backward_kernels import (
    TRAINING_TRANSFORM_FACTOR,
    conv_backward_kernels,
    fc_backward_kernels,
    pool_backward_kernel,
    softmax_backward_kernel,
)
from ..layers.base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from ..layers.elementwise import ElementwiseKernel, LRNSpec, make_lrn_kernel
from ..layers.fc import make_fc_kernel
from ..layers.pooling_kernels import make_pool_kernel
from ..layers.softmax_kernels import make_softmax_kernel
from ..tensors.layout import CHWN, NCHW

SCHEMES: tuple[str, ...] = (
    "cudnn-mm",
    "cudnn-fft",
    "cudnn-fft-t",
    "cudnn-best",
    "cuda-convnet",
    "caffe",
    "opt",
)


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


def _fixed_layer_time(context: SimulationContext, layer) -> tuple[str, float]:
    """Time for layout-transparent layers (identical across schemes)."""
    if layer.kind is NodeKind.CONCAT:
        elements = int(np.prod(layer.out_dims))
        return "concat", context.run(
            ElementwiseKernel(elements, name="concat"), check_memory=False
        ).time_ms
    if isinstance(layer.spec, LRNSpec):
        elements = int(np.prod(layer.in_dims))
        kernel = make_lrn_kernel(elements, layer.spec)
        return "lrn", context.run(kernel, check_memory=False).time_ms
    if isinstance(layer.spec, FCSpec):
        kernel = make_fc_kernel(layer.spec)
        return "fc-gemm", context.run(kernel, check_memory=False).time_ms
    raise TypeError(f"unexpected fixed layer spec {type(layer.spec)!r}")


def _backward_ms(
    context: SimulationContext,
    layer,
    implementation: str,
    coarsen: tuple[int, int] | None = None,
) -> float:
    """Backward-pass time for one resolved layer under one implementation."""
    spec = layer.spec
    if isinstance(spec, ConvSpec):
        impl = {"direct": "direct", "im2col": "im2col"}.get(
            implementation, implementation
        )
        return sum(
            context.run(k, check_memory=False).time_ms
            for k in conv_backward_kernels(spec, impl)
        )
    if isinstance(spec, PoolSpec):
        kernel = pool_backward_kernel(spec, implementation, coarsen or (2, 2))
        return context.run(kernel, check_memory=False).time_ms
    if isinstance(spec, SoftmaxSpec):
        impl = implementation.removeprefix("softmax-")
        kernel = softmax_backward_kernel(spec, impl)
        return context.run(kernel, check_memory=False).time_ms
    if isinstance(spec, FCSpec):
        return sum(
            context.run(k, check_memory=False).time_ms
            for k in fc_backward_kernels(spec)
        )
    if isinstance(spec, LRNSpec):
        import numpy as np

        elements = int(np.prod(layer.in_dims))
        kernel = make_lrn_kernel(elements, spec)
        return context.run(kernel, check_memory=False).time_ms
    raise TypeError(f"no backward model for spec {type(spec)!r}")


def _library_scheme(
    net: Net,
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

    rows: list[LayerTiming] = []
    for layer in net.layers:
        if layer.kind is NodeKind.CONV:
            assert isinstance(layer.spec, ConvSpec)
            if mode is not None:
                choice = cudnn_mode_conv(ctx, layer.spec, mode, check_memory=False)
            elif layout == CHWN:
                choice = best_conv_for_layout(
                    ctx, layer.spec, CHWN, check_memory=False
                )
            else:
                choice = best_conv_for_layout(
                    ctx, layer.spec, NCHW, allow_fft=False, check_memory=False
                )
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
            stats = ctx.run(
                make_pool_kernel(layer.spec, pool_impl), check_memory=False
            )
            bwd = _backward_ms(ctx, layer, pool_impl) if training else 0.0
            rows.append(
                LayerTiming(
                    layer.name, "pool", str(layout), pool_impl, stats.time_ms,
                    backward_ms=bwd,
                )
            )
        elif layer.kind is NodeKind.CLASSIFIER and isinstance(layer.spec, SoftmaxSpec):
            stats = ctx.run(
                make_softmax_kernel(layer.spec, softmax_impl), check_memory=False
            )
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
            impl, ms = _fixed_layer_time(ctx, layer)
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
    return NetworkTiming(
        net.name, scheme, device.name, tuple(rows), batch=net.definition.batch
    )


def _opt_scheme(
    net: Net,
    device: DeviceSpec,
    training: bool = False,
    context: SimulationContext | None = None,
) -> NetworkTiming:
    # The heuristic sets per-layer preferences; the paper then applies
    # "one-time profiling ... to fine tune the data layout settings
    # automatically" (Section IV.D).  The DP planner is that fine-tuning
    # step taken to its conclusion: it weighs every layout choice against
    # transform costs using the profiled (simulated) layer times.
    ctx = context or default_context(device)
    plan = plan_network(
        device, net.definition, PipelineOptions(strategy="optimal"), context=ctx
    ).plan
    by_name = {layer.name: layer for layer in net.layers}
    rows = []
    for step in plan.steps:
        bwd = 0.0
        transform = step.transform_ms
        if training:
            layer = by_name[step.name]
            if layer.spec is not None:
                bwd = _backward_ms(
                    ctx, layer, step.implementation, step.coarsening
                )
            else:  # elementwise layers reuse their forward cost backward
                bwd = step.layer_ms
            # gradients cross every layout boundary in reverse
            transform *= TRAINING_TRANSFORM_FACTOR
        rows.append(
            LayerTiming(
                name=step.name,
                kind=step.kind.value,
                layout=str(step.layout) if step.layout else "-",
                implementation=step.implementation,
                time_ms=step.layer_ms,
                transform_ms=transform,
                backward_ms=bwd,
            )
        )
    return NetworkTiming(
        net.name, "opt", device.name, tuple(rows), batch=net.definition.batch
    )


def time_network(
    net: Net,
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
    net: Net,
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
