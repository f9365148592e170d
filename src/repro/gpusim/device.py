"""GPU device specifications used by the memory-hierarchy simulator.

The paper's experiments run on an NVIDIA GTX Titan Black (Kepler GK110) and
are cross-checked on a GTX Titan X (Maxwell GM200).  We encode both as
:class:`DeviceSpec` instances.  A spec captures only the quantities the
performance model consumes: throughput ceilings, memory-system geometry,
latency constants, and a handful of *architecture profile* constants that the
paper would obtain by one-time profiling (Section IV.A: the layout-selection
thresholds "only relate to the property of the hardware").
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ArchProfile:
    """Architecture-dependent efficiency constants.

    These play the role of the paper's one-time hardware profiling: they are
    not free parameters per layer, but fixed properties of the device that
    calibration (``repro.core.calibration``) can recover by sweeping N and C
    exactly as the paper does in Fig. 4.

    Attributes
    ----------
    direct_conv_peak_eff:
        Fraction of peak FLOPS a fully-reused direct convolution reaches
        (register-tiled CHWN kernel, cuda-convnet style).
    direct_conv_n_saturation:
        Batch size at which per-thread image reuse saturates (the kernel
        processes ``min(N, saturation)/32`` images per thread).  128 on
        Kepler; Maxwell's larger register file and better scheduling
        saturate at 64, which is why the paper reports Nt=64 on Titan X.
    gemm_peak_eff:
        Ceiling efficiency of the SGEMM used by the im2col (NCHW) path.
    direct_conv_tap_half:
        Half-saturation of direct-conv efficiency in the reduction length
        (Ci*Fh*Fw); very shallow inputs (first layers, Ci in {1, 3}) spend
        relatively more time on address arithmetic and fetch.
    gemm_k_half / gemm_m_half / gemm_n_half:
        Half-saturation constants of the GEMM-shape efficiency model
        ``eff = peak * K/(K+k_half) * M/(M+m_half) * N/(N+n_half)``.
        Small reduction dimensions (K = Ci*Fh*Fw) under-utilize the GEMM,
        which is the paper's explanation for NCHW losing at small C.
    gemm_k_floor:
        Lower bound on the K-shape factor; even degenerate GEMMs retain
        some throughput via cuBLAS's tall-skinny kernels.
    fft_stage_eff:
        Fraction of peak FLOPS achieved inside batched FFT stages.
    fft_product_k_half:
        Half-saturation of the frequency-domain pointwise product, which is
        a batched GEMM with K = Ci only (FFT forfeits the Fh*Fw reduction),
        the reason the FFT path collapses at small channel counts.
    fft_workspace_factor:
        Multiplier on the analytic frequency-domain footprint accounting
        for cuFFT workspace and double buffering; used for the 6 GB OOM
        rule behind the paper's Fig. 5 execution failures.
    winograd_peak_eff / winograd_k_half:
        Efficiency law of the fused Winograd product (the Section VII
        future-work extension): hand-fused register-tiled kernels escape
        the generic GEMM K-shape penalty but still need channels to feed
        their reduction.
    pool_l2_locality:
        Fraction of *redundant* overlapped-pooling loads the L2 absorbs
        (cross-window reuse at short distance); the remainder reaches DRAM.
    mlp_per_thread:
        Memory-level parallelism: outstanding global loads a single thread
        sustains, used by the latency-bound throughput model.
    bw_warp_saturation:
        Resident warps per SM needed to saturate DRAM bandwidth.
    """

    direct_conv_peak_eff: float = 0.50
    direct_conv_n_saturation: int = 128
    direct_conv_tap_half: float = 16.0
    gemm_peak_eff: float = 0.55
    gemm_k_half: float = 350.0
    gemm_m_half: float = 8.0
    gemm_n_half: float = 64.0
    gemm_k_floor: float = 0.15
    fft_stage_eff: float = 0.32
    fft_product_k_half: float = 64.0
    fft_workspace_factor: float = 4.5
    winograd_peak_eff: float = 0.50
    winograd_k_half: float = 128.0
    mlp_per_thread: int = 6
    bw_warp_saturation: int = 16
    pool_l2_locality: float = 0.55


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a GPU for the simulator.

    Bandwidth is the *effective* (achievable) DRAM bandwidth, matching the
    paper's use of 235 GB/s for the Titan Black rather than the theoretical
    336 GB/s.
    """

    name: str
    sm_count: int
    peak_gflops: float
    mem_bandwidth_gbs: float
    clock_ghz: float
    dram_gib: float
    warp_size: int = 32
    max_threads_per_block: int = 1024
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_blocks_per_sm: int = 16
    regs_per_sm: int = 65536
    max_regs_per_thread: int = 255
    smem_per_sm: int = 48 * 1024
    smem_per_block_max: int = 48 * 1024
    l2_bytes: int = 1536 * 1024
    l2_line_bytes: int = 32
    l2_assoc: int = 16
    transaction_bytes: int = 32
    mem_latency_cycles: int = 500
    launch_overhead_us: float = 5.0
    smem_banks: int = 32
    smem_bank_bytes: int = 4
    #: Empirical fraction of effective DRAM bandwidth reachable per access
    #: width.  Plain 4-byte streaming kernels on Kepler top out well below
    #: peak (instruction-issue limited); 8-byte (float2) vectorized access
    #: nearly saturates — the effect the paper exploits in its Opt2
    #: transformation kernel ("to fully utilize the bandwidth in 8-byte
    #: mode, we apply vectorization").
    bw_eff_4b: float = 0.87
    bw_eff_8b: float = 0.97
    bw_eff_16b: float = 1.0
    arch: ArchProfile = field(default_factory=ArchProfile)

    def __post_init__(self) -> None:
        if self.sm_count <= 0 or self.peak_gflops <= 0:
            raise ValueError("device must have positive SM count and FLOPS")
        if self.mem_bandwidth_gbs <= 0 or self.clock_ghz <= 0:
            raise ValueError("device must have positive bandwidth and clock")
        if self.warp_size & (self.warp_size - 1):
            raise ValueError("warp size must be a power of two")

    @property
    def max_concurrent_threads(self) -> int:
        """Total threads resident across all SMs at full occupancy."""
        return self.sm_count * self.max_threads_per_sm

    @property
    def dram_bytes(self) -> int:
        """Device memory capacity in bytes (for OOM checks)."""
        return int(self.dram_gib * (1 << 30))

    @property
    def bytes_per_cycle(self) -> float:
        """Effective DRAM bytes delivered per core clock cycle."""
        return self.mem_bandwidth_gbs * 1e9 / (self.clock_ghz * 1e9)

    def access_bw_efficiency(self, access_bytes: int) -> float:
        """Bandwidth derate for a kernel's dominant access width."""
        if access_bytes >= 16:
            return self.bw_eff_16b
        if access_bytes >= 8:
            return self.bw_eff_8b
        return self.bw_eff_4b


#: GTX Titan Black (Kepler GK110B) — the paper's primary platform.
#: 5121 GFLOPS single precision and 235 GB/s effective bandwidth are the
#: figures quoted in Section III.B.
TITAN_BLACK = DeviceSpec(
    name="GTX Titan Black",
    sm_count=15,
    peak_gflops=5121.0,
    mem_bandwidth_gbs=235.0,
    clock_ghz=0.980,
    dram_gib=6.0,
)

#: GTX Titan X (Maxwell GM200) — the paper's secondary platform.  The arch
#: profile shifts the layout crossovers, reproducing the paper's observation
#: that (Ct, Nt) moves from (32, 128) on Kepler to (128, 64) on Maxwell.
TITAN_X = DeviceSpec(
    name="GTX Titan X",
    sm_count=24,
    peak_gflops=6144.0,
    mem_bandwidth_gbs=280.0,
    clock_ghz=1.000,
    dram_gib=12.0,
    l2_bytes=3 * 1024 * 1024,
    mem_latency_cycles=400,
    arch=ArchProfile(
        direct_conv_peak_eff=0.55,
        direct_conv_n_saturation=64,
        gemm_peak_eff=0.52,
        gemm_k_half=650.0,
        mlp_per_thread=8,
    ),
)

_REGISTRY: dict[str, DeviceSpec] = {
    "titan-black": TITAN_BLACK,
    "titan-x": TITAN_X,
}


def get_device(name: str) -> DeviceSpec:
    """Look up a device spec by registry name (``titan-black``/``titan-x``)."""
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    aliases = {
        "gtx-titan-black": "titan-black",
        "gtx-titan-x": "titan-x",
        "kepler": "titan-black",
        "maxwell": "titan-x",
    }
    key = aliases.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown device {name!r}; known devices: {known}") from None


def list_devices() -> list[str]:
    """Names of all registered device specs."""
    return sorted(_REGISTRY)


def register_device(key: str, spec: DeviceSpec) -> None:
    """Register a custom device spec under ``key`` for CLI/plan lookups."""
    _REGISTRY[key.strip().lower()] = spec
