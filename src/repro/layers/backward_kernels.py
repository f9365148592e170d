"""GPU kernel models for the backward pass.

The paper's footnote 1 says the backward pass uses "the same data structure
and convolution operation" — so backward kernels inherit the forward
kernels' access patterns and layout preferences.  Each backward kernel is
the forward kernel with every leaf launch scaled by :class:`ScaledKernel`:
a composed forward kernel (im2col + GEMM, the five-kernel softmax) keeps
its stages, each scaled and timed as its own launch.  Concretely:

* conv backward = two convolution-shaped kernels (gradient w.r.t. data and
  w.r.t. filters), each with the forward kernel's FLOP count and a slightly
  lower efficiency (scatter/atomics on the filter reduction);
* pooling backward = a mask read plus an input-sized scatter, same layout
  behaviour as the forward kernel;
* FC backward = two GEMMs (dX and dW) plus a bias reduction;
* softmax backward = cross-entropy's ``p - onehot`` over the forward
  kernel's passes.

These models feed the ``training=True`` mode of the whole-network schemes.
"""

from __future__ import annotations

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import ComposedKernel, KernelModel, LaunchConfig, MemoryProfile
from .base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from .conv_kernels import make_conv_kernel
from .gemm import GemmKernel
from .pooling_kernels import make_pool_kernel
from .softmax_kernels import make_softmax_kernel


class ScaledKernel(KernelModel):
    """A leaf kernel derived from another by scaling work and traffic.

    Used for backward passes that share the forward kernel's structure:
    same launch geometry and access pattern, different constant factors.
    A composed kernel has no launch to scale; :func:`scaled` scales each
    of its stages instead.
    """

    def __init__(
        self,
        base: KernelModel,
        name: str,
        flop_scale: float = 1.0,
        mem_scale: float = 1.0,
        eff_scale: float = 1.0,
    ) -> None:
        if isinstance(base, ComposedKernel):
            raise TypeError(
                f"{base.name}: scale a composed kernel stage by stage (scaled())"
            )
        if min(flop_scale, mem_scale, eff_scale) <= 0:
            raise ValueError("scales must be positive")
        self.base = base
        self.name = name
        self.flop_scale = flop_scale
        self.mem_scale = mem_scale
        self.eff_scale = eff_scale
        self.n_launches = base.n_launches

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        return self.base.launch_config(device)

    def flop_count(self) -> float:
        return self.base.flop_count() * self.flop_scale

    def alu_efficiency(self, device: DeviceSpec) -> float:
        return min(1.0, self.base.alu_efficiency(device) * self.eff_scale)

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        return self.base.memory_profile(device).scaled(self.mem_scale)

    def workspace_bytes(self) -> float:
        return self.base.workspace_bytes()


def scaled(kernel: KernelModel, suffix: str, **scales: float) -> KernelModel:
    """``kernel`` with every leaf launch wrapped in a :class:`ScaledKernel`;
    the kernel and each of its stages are renamed with ``suffix``."""

    def scale(leaf: KernelModel) -> KernelModel:
        return ScaledKernel(leaf, f"{leaf.name}{suffix}", **scales)

    if isinstance(kernel, ComposedKernel):
        stages = [scale(k) for k in kernel.kernels]
        return ComposedKernel(kernels=stages, name=f"{kernel.name}{suffix}")
    return scale(kernel)


def conv_backward_kernels(
    spec: ConvSpec, implementation: str
) -> list[KernelModel]:
    """Backward-data and backward-filter kernels for one conv layer.

    Both gradients perform the same multiply-accumulate volume as the
    forward pass; the filter gradient's cross-image reduction costs some
    efficiency (the standard wgrad penalty).
    """
    fwd = make_conv_kernel(spec, implementation)
    return [
        scaled(fwd, "-bwd-data", eff_scale=0.95),
        scaled(fwd, "-bwd-filter", eff_scale=0.85, mem_scale=1.1),
    ]


def pool_backward_kernel(
    spec: PoolSpec, implementation: str, coarsen: tuple[int, int] = (2, 2)
) -> KernelModel:
    """Backward pooling: read the output gradient (+ argmax mask for max
    pooling), scatter an input-sized gradient — about 1.5x the forward
    traffic with the same access pattern."""
    fwd = make_pool_kernel(spec, implementation, coarsen)
    return scaled(fwd, "-bwd", mem_scale=1.5)


def fc_backward_kernels(spec: FCSpec) -> list[KernelModel]:
    """dX = dY @ W^T and dW = X^T @ dY, plus the dB reduction folded into
    the second GEMM's epilogue."""
    dx = GemmKernel(m=spec.in_features, n=spec.n, k=spec.out_features, name="fc-bwd-dx")
    dw = GemmKernel(
        m=spec.in_features, n=spec.out_features, k=spec.n, name="fc-bwd-dw"
    )
    return [dx, dw]


def softmax_backward_kernel(spec: SoftmaxSpec, implementation: str) -> KernelModel:
    """Cross-entropy + softmax backward: the forward kernel's passes over
    (N, C) again, at the same cost.  A fused softmax stays one launch; the
    five-kernel baseline pays its five launches."""
    return scaled(make_softmax_kernel(spec, implementation), "-bwd")


#: time multiplier applied to layout transforms in training mode: the
#: activation relayout on the way forward is matched by a gradient relayout
#: on the way back.
TRAINING_TRANSFORM_FACTOR = 2.0
