"""Analytic kernel timing: ``max(compute, memory) + launch overhead``.

The model follows the standard roofline-with-latency formulation the paper's
analysis implies: a kernel is *compute bound* when its arithmetic pipeline
time exceeds every memory service time, *memory bound* otherwise, and pays a
fixed per-launch overhead that makes multi-kernel implementations (5-step
softmax, FFT pipelines) expensive for small layers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec
from .dram import MemoryServiceTimes, memory_service_time
from .kernel import KernelModel, LaunchConfig, MemoryProfile
from .occupancy import Occupancy, compute_occupancy


@dataclass(frozen=True)
class KernelStats:
    """Timing and counter results for one modelled kernel launch."""

    name: str
    device: str
    time_ms: float
    compute_ms: float
    memory_ms: float
    launch_ms: float
    flops: float
    dram_bytes: float
    useful_bytes: float
    transactions: float
    occupancy: Occupancy
    bound: str
    alu_utilization: float
    n_launches: int = 1

    @property
    def achieved_gflops(self) -> float:
        """Sustained arithmetic throughput over the whole kernel time."""
        return self.flops / (self.time_ms * 1e6) if self.time_ms else 0.0

    @property
    def achieved_bandwidth_gbs(self) -> float:
        """DRAM throughput (fetched bytes / time), the nvprof-style counter."""
        return self.dram_bytes / (self.time_ms * 1e6) if self.time_ms else 0.0

    @property
    def effective_bandwidth_gbs(self) -> float:
        """Algorithmic bytes / time — the paper's figure-of-merit for
        memory-bound layers (useful data moved per unit time)."""
        return self.useful_bytes / (self.time_ms * 1e6) if self.time_ms else 0.0


def compute_pipeline_time(
    device: DeviceSpec, flops: float, efficiency: float, occ: Occupancy
) -> float:
    """Arithmetic pipeline time in seconds.

    ``efficiency`` is the kernel's best-case fraction of peak FLOPS; low
    occupancy further de-rates it (under ~8 resident warps per SM even a
    perfectly tuned kernel stalls on instruction latency).
    """
    if flops <= 0:
        return 0.0
    eff = max(1e-6, min(1.0, efficiency))
    warp_factor = min(1.0, occ.active_warps_per_sm / 8.0) if occ.blocks_per_sm else 0.0
    # Grids smaller than the chip cannot use every SM.
    grid_factor = min(1.0, occ.total_threads / (device.sm_count * device.warp_size))
    derate = max(1e-6, eff * max(warp_factor, 1e-6) * max(grid_factor, 1e-6))
    return flops / (device.peak_gflops * 1e9 * derate)


def time_kernel(
    device: DeviceSpec,
    launch: LaunchConfig,
    flops: float,
    alu_efficiency: float,
    profile: MemoryProfile,
    n_launches: int = 1,
    name: str = "kernel",
) -> KernelStats:
    """Assemble a :class:`KernelStats` from the model's primitive terms."""
    occ = compute_occupancy(device, launch)
    mem: MemoryServiceTimes = memory_service_time(device, profile, occ)
    compute_s = compute_pipeline_time(device, flops, alu_efficiency, occ)
    launch_s = n_launches * device.launch_overhead_us * 1e-6

    body_s = max(compute_s, mem.total_s)
    bound = "compute" if compute_s >= mem.total_s else mem.limiter
    total_s = body_s + launch_s
    if launch_s > body_s:
        bound = "launch_overhead"

    peak_flops = device.peak_gflops * 1e9
    alu_util = flops / (total_s * peak_flops) if total_s > 0 else 0.0

    return KernelStats(
        name=name,
        device=device.name,
        time_ms=total_s * 1e3,
        compute_ms=compute_s * 1e3,
        memory_ms=mem.total_s * 1e3,
        launch_ms=launch_s * 1e3,
        flops=flops,
        dram_bytes=mem.dram_bytes,
        useful_bytes=profile.useful_bytes,
        transactions=profile.total_transactions,
        occupancy=occ,
        bound=bound,
        alu_utilization=alu_util,
        n_launches=n_launches,
    )


def time_model(device: DeviceSpec, model: KernelModel) -> KernelStats:
    """Time a :class:`KernelModel` on ``device``."""
    return time_kernel(
        device,
        model.launch_config(device),
        model.flop_count(),
        model.alu_efficiency(device),
        model.memory_profile(device),
        n_launches=model.n_launches,
        name=model.name,
    )
