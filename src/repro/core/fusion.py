"""Kernel fusion pass for the softmax layer (Section V.B).

The pass takes the five-kernel baseline and applies the paper's two
transformations in order:

1. **fuse** — the five step kernels share a thread-block configuration, so
   they merge into one kernel whose inter-step traffic moves to shared
   memory/registers (eliminating four round trips through DRAM and four
   kernel launches);
2. **parallelize inner loops** — inject threads across the category axis,
   turning the two reductions into shared-memory tree reductions and the
   element-wise steps into coalesced streams.

Each stage is available separately so the Fig. 13 ablation ("kernel fusion
has contributed up to 3.53x ... more threads further bring an average
speedup of 5.13x") can be reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelModel
from ..gpusim.session import SimulationContext, default_context
from ..layers.base import SoftmaxSpec
from ..layers.softmax_kernels import (
    FusedParallelSoftmax,
    FusedSoftmax,
    five_kernel_softmax,
)


@dataclass(frozen=True)
class FusionReport:
    """What the pass did and what it bought, per stage."""

    spec: SoftmaxSpec
    baseline_ms: float
    fused_ms: float
    parallel_ms: float
    launches_removed: int
    dram_passes_removed: int

    @property
    def fusion_speedup(self) -> float:
        return self.baseline_ms / self.fused_ms if self.fused_ms else 0.0

    @property
    def parallel_speedup(self) -> float:
        """Extra speedup from thread injection, on top of fusion."""
        return self.fused_ms / self.parallel_ms if self.parallel_ms else 0.0

    @property
    def total_speedup(self) -> float:
        return self.baseline_ms / self.parallel_ms if self.parallel_ms else 0.0


def can_fuse_softmax(spec: SoftmaxSpec, device: DeviceSpec) -> bool:
    """The paper's fused kernel needs the reduction scratch to fit shared
    memory; the streamed-tile variant lifts the row-size limit, so only
    degenerate devices refuse."""
    return device.smem_per_block_max >= 8 * 1024


def fuse_softmax(
    spec: SoftmaxSpec, device: DeviceSpec, parallelize: bool = True
) -> KernelModel:
    """Build the fused (optionally inner-parallelized) softmax kernel."""
    if not can_fuse_softmax(spec, device):
        return five_kernel_softmax(spec)
    return FusedParallelSoftmax(spec) if parallelize else FusedSoftmax(spec)


def fusion_report(
    spec: SoftmaxSpec, device: DeviceSpec, context: SimulationContext | None = None
) -> FusionReport:
    """Apply the pass stage by stage and measure each stage's effect."""
    ctx = context or default_context(device)
    chain = five_kernel_softmax(spec)
    baseline = ctx.run(chain)
    fused = ctx.run(FusedSoftmax(spec))
    parallel = ctx.run(FusedParallelSoftmax(spec))
    # Each interior step boundary costs one spill (the producer stores its
    # output) and one reload (the consumer re-reads it) through DRAM; fusion
    # keeps that traffic in shared memory/registers.  Derived from the actual
    # chain so shortened softmax variants report truthfully (the default
    # five-kernel chain has 4 boundaries -> 8 passes).
    boundaries = len(chain.kernels) - 1
    return FusionReport(
        spec=spec,
        baseline_ms=baseline.time_ms,
        fused_ms=fused.time_ms,
        parallel_ms=parallel.time_ms,
        launches_removed=baseline.n_launches - 1,
        dram_passes_removed=2 * boundaries,
    )
