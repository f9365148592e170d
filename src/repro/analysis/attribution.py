"""Attribution of Opt's whole-network gains (paper Section VI.C).

"The performance impact of each layer on the whole network is different,
with convolutional layer being the most performance dominant.  Thus,
achieving the flexible data layout for a network is the most critical
optimization, contributing a 72% improvement.  Comparatively, the off-chip
memory access optimization contributes 28% due to the much smaller
execution time of pooling and Softmax layers."

This module reproduces that decomposition: starting from a baseline scheme,
apply the two optimization families one at a time —

1. **flexible data layout** — per-layer layout selection for convolutions
   and pooling (with fast transforms), but *library* pooling/softmax
   kernels (no coarsening, no fusion);
2. **off-chip access optimization** — auto-tuned pooling coarsening and
   the fused softmax on top of (1);

and report each family's share of the total time saved.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.schemes import NetworkTiming, time_network
from ..core.pipeline import PipelineOptions, plan_network
from ..core.planner import NodeKind
from ..framework.netdef import NetworkDef
from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext, default_context
from ..layers.base import SoftmaxSpec
from ..layers.pooling_kernels import make_pool_kernel
from ..layers.softmax_kernels import make_softmax_kernel
from ..tensors.layout import CHWN


@dataclass(frozen=True)
class GainAttribution:
    """Decomposition of Opt's improvement over a baseline scheme."""

    network: str
    baseline_ms: float
    layout_only_ms: float  # flexible layouts, library memory kernels
    full_opt_ms: float  # + coarsened pooling and fused softmax

    @property
    def total_saved_ms(self) -> float:
        return self.baseline_ms - self.full_opt_ms

    @property
    def layout_share(self) -> float:
        """Fraction of the saving delivered by flexible data layout."""
        if self.total_saved_ms <= 0:
            return 0.0
        return (self.baseline_ms - self.layout_only_ms) / self.total_saved_ms

    @property
    def offchip_share(self) -> float:
        """Fraction delivered by the pooling/softmax access optimizations."""
        if self.total_saved_ms <= 0:
            return 0.0
        return (self.layout_only_ms - self.full_opt_ms) / self.total_saved_ms


def _layout_only_ms(
    net: NetworkDef, device: DeviceSpec, context: SimulationContext
) -> float:
    """Total time with planned layouts but *unoptimized* memory kernels.

    The plan (and its transforms) is kept; pooling reverts from the
    coarsened kernel to the plain kernel of the planned layout, and the
    softmax reverts to the best library baseline.
    """
    graph = plan_network(
        device, net, PipelineOptions(strategy="optimal"), context=context
    ).graph
    total = 0.0
    for node in graph:
        total += node.transform_ms
        if node.kind is NodeKind.POOL:
            impl = "chwn" if node.layout == CHWN else "nchw-linear"
            kernel = make_pool_kernel(node.spec, impl)
            total += context.run(kernel, check_memory=False).time_ms
        elif isinstance(node.spec, SoftmaxSpec):
            total += min(
                context.run(
                    make_softmax_kernel(node.spec, impl), check_memory=False
                ).time_ms
                for impl in ("5kernel", "cudnn")
            )
        else:
            total += node.layer_ms
    return total


def attribute_gains(
    net: NetworkDef,
    device: DeviceSpec,
    baseline: str = "cudnn-best",
    context: SimulationContext | None = None,
) -> GainAttribution:
    """Decompose Opt's gain over ``baseline`` into the two families."""
    ctx = context or default_context(device)
    base: NetworkTiming = time_network(net, device, baseline, context=ctx)
    full: NetworkTiming = time_network(net, device, "opt", context=ctx)
    layout_only = _layout_only_ms(net, device, ctx)
    return GainAttribution(
        network=net.name,
        baseline_ms=base.total_ms,
        layout_only_ms=layout_only,
        full_opt_ms=full.total_ms,
    )
