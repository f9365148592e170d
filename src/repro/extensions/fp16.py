"""FP16 / Pascal extension (paper Section VII).

"The GPU hardware also continues to evolve quickly, such as the latest
NVIDIA Pascal architecture, that begins to support FP16 (e.g., NVIDIA
Tesla P100) to enhance the computational throughput and reduce the memory
usage significantly.  Nevertheless, the underlying impact from data layout
remains.  The reason is that with compute efficiency being addressed with
these new approaches, the performance impact of the memory efficiency is
likely to become more important."

This module tests that prediction in the model: a Tesla P100 device spec,
an FP16 execution mode (half the traffic, double the arithmetic rate), and
helpers that re-run the layout comparisons under it.  The expected outcome
— verified in ``tests/extensions/`` and ``bench_extension_fp16.py`` — is
that every layout winner survives and the memory-bound share of layer time
*grows*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..gpusim.device import ArchProfile, DeviceSpec, register_device
from ..gpusim.kernel import KernelModel
from ..gpusim.session import SimulationContext, default_context
from ..layers.backward_kernels import scaled
from ..layers.base import ConvSpec
from ..layers.conv_kernels import make_conv_kernel
from ..networks.table1 import CONV_LAYERS

#: Tesla P100 (Pascal GP100): 9.3 FP32 TFLOPS, 18.7 FP16 TFLOPS, 732 GB/s
#: HBM2 (≈550 GB/s effective), 16 GB.  Arch profile follows the Maxwell
#: trends (earlier reuse saturation, stronger GEMMs).
TESLA_P100 = DeviceSpec(
    name="Tesla P100",
    sm_count=56,
    peak_gflops=9340.0,
    mem_bandwidth_gbs=550.0,
    clock_ghz=1.328,
    dram_gib=16.0,
    max_blocks_per_sm=32,
    l2_bytes=4 * 1024 * 1024,
    mem_latency_cycles=450,
    arch=ArchProfile(
        direct_conv_peak_eff=0.55,
        direct_conv_n_saturation=64,
        gemm_peak_eff=0.55,
        gemm_k_half=500.0,
        mlp_per_thread=8,
    ),
)

register_device("tesla-p100", TESLA_P100)
register_device("pascal", TESLA_P100)


def fp16_device(device: DeviceSpec) -> DeviceSpec:
    """The device as its FP16 pipeline sees it: double arithmetic rate.

    (Pascal GP100 executes paired half2 operations; bandwidth and latency
    are unchanged — traffic reduction is handled on the kernel side.)
    """
    return replace(
        device, name=f"{device.name} (FP16)", peak_gflops=2.0 * device.peak_gflops
    )


def as_fp16(kernel: KernelModel, math_only: bool = False) -> KernelModel:
    """An FP16 variant of a kernel.

    ``math_only=False`` (full FP16): the same FLOPs over half the bytes —
    storage and arithmetic both in half precision.  ``math_only=True``
    models early mixed precision: FP16 arithmetic over FP32 storage, i.e.
    only the compute side accelerates — the regime in which the paper's
    "memory efficiency becomes more important" argument is sharpest.

    Multi-pass implementations stay multi-pass: composed kernels are
    converted stage by stage so the engine still times them additively.
    """
    return scaled(kernel, "-fp16", mem_scale=1.0 if math_only else 0.5)


@dataclass(frozen=True)
class Fp16LayerComparison:
    """FP32 vs FP16 layout comparison for one convolution layer."""

    layer: str
    fp32_winner: str
    fp16_winner: str
    fp32_ratio: float  # alternative / preferred time under FP32
    fp16_ratio: float
    fp16_speedup_preferred: float  # preferred impl: fp32 time / fp16 time


def compare_layouts_fp16(
    device: DeviceSpec,
    layers: dict[str, ConvSpec] | None = None,
    context: SimulationContext | None = None,
) -> list[Fp16LayerComparison]:
    """Re-run the Fig. 3 layout comparison in both precisions.

    ``context`` serves the FP32 side; the FP16 side always uses the shared
    session of the derived FP16 device (its spec differs, so its timings
    can never share cache entries with the FP32 run anyway).
    """
    layers = layers or CONV_LAYERS
    ctx32 = context or default_context(device)
    ctx16 = default_context(fp16_device(device))
    out: list[Fp16LayerComparison] = []
    for name, spec in layers.items():
        t32 = {
            impl: ctx32.run(make_conv_kernel(spec, impl)).time_ms
            for impl in ("direct", "im2col")
        }
        t16 = {
            impl: ctx16.run(as_fp16(make_conv_kernel(spec, impl))).time_ms
            for impl in ("direct", "im2col")
        }
        w32 = min(t32, key=lambda k: t32[k])
        w16 = min(t16, key=lambda k: t16[k])
        out.append(
            Fp16LayerComparison(
                layer=name,
                fp32_winner="CHWN" if w32 == "direct" else "NCHW",
                fp16_winner="CHWN" if w16 == "direct" else "NCHW",
                fp32_ratio=max(t32.values()) / min(t32.values()),
                fp16_ratio=max(t16.values()) / min(t16.values()),
                fp16_speedup_preferred=t32[w32] / t16[w32],
            )
        )
    return out


def memory_bound_share(
    device: DeviceSpec,
    spec: ConvSpec,
    implementation: str,
    fp16: bool = False,
    math_only: bool = False,
    context: SimulationContext | None = None,
) -> float:
    """Fraction of a layer's time spent on the memory side."""
    if fp16:
        ctx = default_context(fp16_device(device))
        stats = ctx.run(
            as_fp16(make_conv_kernel(spec, implementation), math_only=math_only)
        )
    else:
        ctx = context or default_context(device)
        stats = ctx.run(make_conv_kernel(spec, implementation))
    denom = stats.memory_ms + stats.compute_ms
    return stats.memory_ms / denom if denom else 0.0
