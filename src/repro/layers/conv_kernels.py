"""GPU kernel models for the convolution implementations the paper compares.

* :class:`DirectConvCHWN` — cuda-convnet's direct convolution on the CHWN
  layout: a warp spans 32 images (coalesced along N), each thread register-
  tiles up to 4 images, so efficiency ramps with batch size and saturates at
  N = 128 on Kepler (the Fig. 4a sensitivity).
* :class:`Im2colGemmNCHW` — Caffe/cuDNN's matrix-multiplication path on
  NCHW: an unroll kernel materializes the (Ci*Fh*Fw) x (N*Ho*Wo) patch
  matrix, then a GEMM whose shape efficiency collapses when C is small
  (the Fig. 4b sensitivity).
* :class:`FFTConvNCHW` — cuDNN v4's FFT and FFT-tiling modes: frequency-
  domain padding and workspace (the Fig. 5 OOM failures), a per-bin batched
  product whose reduction is only Ci, and multi-pass launch overheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import ceil, log2

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import ComposedKernel, KernelModel, LaunchConfig, MemoryProfile
from .base import ConvSpec
from .gemm import GemmKernel


@cache
def next_fast_len(target: int) -> int:
    """Smallest 11-smooth integer >= ``target``: the padded FFT extent.

    cuDNN and pocketfft (SciPy's complex default) run fastest on lengths
    whose only prime factors are 2, 3, 5, 7 and 11, so the modelled FFT
    kernels pad each plane up to the next such length.
    """
    if target < 1:
        raise ValueError(f"FFT length must be positive (got {target})")
    n = target
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class ConvUnsupportedError(RuntimeError):
    """The requested implementation cannot run this layer configuration
    (e.g. cuDNN's FFT algorithms require unit stride)."""


class DirectConvCHWN(KernelModel):
    """cuda-convnet2 style direct convolution on the CHWN layout."""

    name = "conv-direct-chwn"
    #: output feature maps computed per thread block (filter tile held in
    #: shared memory, re-applied across the spatial positions of the block)
    co_tile = 16
    #: spatial outputs per thread block along Ho*Wo
    spatial_tile = 16

    def __init__(self, spec: ConvSpec) -> None:
        self.spec = spec

    def _imgs_per_thread(self, device: DeviceSpec) -> int:
        """Register-tiled images per thread: 4 at N >= 128, fewer below —
        the reuse loss that makes CHWN sensitive to batch size."""
        return max(1, min(4, self.spec.n // device.warp_size))

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        s = self.spec
        ipt = self._imgs_per_thread(device)
        grid = (
            ceil(s.out_h * s.out_w / self.spatial_tile),
            ceil(s.co / self.co_tile),
            ceil(s.n / (device.warp_size * ipt)),
        )
        return LaunchConfig(
            grid=grid,
            block=(device.warp_size, 4, 1),
            regs_per_thread=64,
            smem_per_block=8 * 1024,
        )

    def flop_count(self) -> float:
        return self.spec.flops

    def alu_efficiency(self, device: DeviceSpec) -> float:
        arch = device.arch
        n_factor = min(1.0, self.spec.n / arch.direct_conv_n_saturation)
        taps = self.spec.taps
        tap_factor = taps / (taps + arch.direct_conv_tap_half)
        return arch.direct_conv_peak_eff * n_factor * tap_factor

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        s = self.spec
        in_bytes = float(s.in_desc().nbytes)
        out_bytes = float(s.out_desc().nbytes)
        # Each Co tile sweeps the whole input once; filters are re-fetched
        # per (image-block, spatial-block).
        input_loads = in_bytes * ceil(s.co / self.co_tile)
        ipt = self._imgs_per_thread(device)
        filter_loads = (
            float(s.filter_bytes)
            * ceil(s.n / (device.warp_size * ipt))
            * ceil(s.out_h * s.out_w / self.spatial_tile)
        )
        return MemoryProfile.coalesced(
            load_bytes=input_loads + filter_loads, store_bytes=out_bytes
        )


class Im2colKernel(KernelModel):
    """The matrix-unroll step of the NCHW path.

    Writes the full (Ci*Fh*Fw) x (Ho*Wo) patch matrix per image; reads the
    input with high L2 reuse (each element appears in up to Fh*Fw/stride^2
    patches) but the *stores* are the pure overhead the paper blames for
    NCHW's losses at small C.
    """

    name = "conv-im2col-unroll"

    def __init__(self, spec: ConvSpec) -> None:
        self.spec = spec

    def unroll_bytes(self) -> float:
        s = self.spec
        # each group unrolls its own column matrix
        return 4.0 * s.n * s.groups * s.taps * s.out_h * s.out_w

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        s = self.spec
        total = s.n * s.taps * s.out_h * s.out_w
        return LaunchConfig(
            grid=(ceil(total / 256), 1, 1), block=(256, 1, 1), regs_per_thread=24
        )

    def flop_count(self) -> float:
        return 0.0

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        s = self.spec
        unroll = self.unroll_bytes()
        in_bytes = float(s.in_desc().nbytes)
        # Every patch element is a load; the unique footprint is the input,
        # so the surplus hits L2.
        hit = max(0.0, min(0.95, 1.0 - in_bytes / unroll))
        return MemoryProfile(
            load_bytes=unroll,
            store_bytes=unroll,
            load_transactions=unroll / 32.0,
            store_transactions=unroll / 32.0,
            l2_hit_rate=hit,
        )

    def workspace_bytes(self) -> float:
        # Caffe materializes the column buffer one image at a time; only a
        # pipeline depth's worth of per-image buffers is ever live.
        s = self.spec
        per_image = 4.0 * s.taps * s.out_h * s.out_w
        pipeline_depth = min(s.n, 8)
        return per_image * pipeline_depth


def im2col_gemm_kernels(spec: ConvSpec) -> list[KernelModel]:
    """The two-kernel NCHW pipeline: unroll, then one merged GEMM.

    cuDNN merges the batch into the GEMM's column dimension ("higher
    parallelism due to dimensions merging"), so N_cols = N * Ho * Wo.
    """
    gemm = GemmKernel(
        m=spec.co, n=spec.n * spec.out_h * spec.out_w, k=spec.taps, name="conv-gemm"
    )
    return [Im2colKernel(spec), gemm]


class Im2colGemmNCHW(ComposedKernel):
    """Caffe/cuDNN matrix-multiplication convolution on NCHW."""

    #: the stages are built from ``spec``
    structural_exclude = ComposedKernel.structural_exclude | {"kernels"}

    def __init__(self, spec: ConvSpec) -> None:
        super().__init__(kernels=im2col_gemm_kernels(spec), name="conv-mm-nchw")
        self.spec = spec


@dataclass(frozen=True)
class _FFTGeometry:
    """Padded-transform geometry shared by the FFT variants."""

    pad_h: int
    pad_w: int
    tiles: int  # number of tiles per feature map (1 for untiled)

    @property
    def points(self) -> int:
        """Padded frequency-domain points per feature map."""
        return self.pad_h * self.pad_w * self.tiles


class FFTConvNCHW(KernelModel):
    """cuDNN v4 FFT convolution (``tiled=False``) and FFT-tiling.

    Models the three-stage pipeline of Section IV.A: forward FFTs of inputs
    and zero-padded filters, a per-frequency-bin batched product (reduction
    length = Ci only), and an inverse FFT.  ``n_launches`` folds the many
    cuFFT passes and plan bookkeeping into equivalent launch overheads.
    """

    #: 32x32 frequency tiles, as in cuDNN v4's FFT-Tiling option
    tile_extent = 32
    #: the geometry is computed from ``spec`` and ``tiled``
    structural_exclude = KernelModel.structural_exclude | {"geometry"}

    def __init__(self, spec: ConvSpec, tiled: bool = False) -> None:
        if spec.stride != 1:
            raise ConvUnsupportedError(
                f"cuDNN FFT convolution requires unit stride (got {spec.stride})"
            )
        self.spec = spec
        self.tiled = tiled
        self.name = "conv-fft-tiled-nchw" if tiled else "conv-fft-nchw"
        self.n_launches = 80 if tiled else 60
        self.geometry = self._geometry()

    def _geometry(self) -> _FFTGeometry:
        s = self.spec
        if not self.tiled:
            return _FFTGeometry(
                pad_h=next_fast_len(s.h + 2 * s.pad),
                pad_w=next_fast_len(s.w + 2 * s.pad),
                tiles=1,
            )
        t = self.tile_extent
        useful = t - s.fh + 1
        if useful <= 0:
            raise ConvUnsupportedError(
                f"filter {s.fh} does not fit the {t}x{t} FFT tile"
            )
        tiles = ceil(s.out_h / useful) * ceil(s.out_w / useful)
        return _FFTGeometry(pad_h=t, pad_w=t, tiles=tiles)

    def _map_counts(self) -> tuple[int, int, int]:
        s = self.spec
        return (s.n * s.ci, s.co * s.ci, s.n * s.co)

    def flop_count(self) -> float:
        s = self.spec
        pts = self.geometry.points
        in_maps, filt_maps, out_maps = self._map_counts()
        # 2-D FFT at ~10 * P^2 * log2(P_line) flops per map (row+col passes).
        line = max(2.0, (self.geometry.pad_h * self.geometry.pad_w) ** 0.5)
        fft_flops = (in_maps + filt_maps + out_maps) * 10.0 * pts * log2(line)
        # Per-bin complex product-accumulate over Ci: 8 flops per MAC.
        product_flops = 8.0 * s.n * s.co * s.ci * (pts / 2.0)
        return fft_flops + product_flops

    def alu_efficiency(self, device: DeviceSpec) -> float:
        # The pipeline's throughput is gated by the weaker of the transform
        # stages and the Ci-reduction product.
        arch = device.arch
        ci = self.spec.ci
        product_factor = ci / (ci + arch.fft_product_k_half)
        return arch.fft_stage_eff * max(product_factor, 0.05)

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        s = self.spec
        pts = self.geometry.points
        in_maps, filt_maps, out_maps = self._map_counts()
        # Frequency-domain rfft footprint: ~ pts/2 complex = pts * 4 bytes.
        freq_bytes = 4.0
        traffic = pts * freq_bytes * (
            2.0 * in_maps + 2.0 * filt_maps + 3.0 * out_maps
        )
        real_bytes = float(
            s.in_desc().nbytes + s.filter_bytes + s.out_desc().nbytes
        )
        total = traffic + real_bytes
        # Stage traffic streams with no reuse; split it 60/40 read/write.
        return MemoryProfile.coalesced(load_bytes=0.6 * total, store_bytes=0.4 * total)

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        in_maps, filt_maps, out_maps = self._map_counts()
        blocks = ceil((in_maps + filt_maps + out_maps) * self.geometry.points / 256)
        return LaunchConfig(
            grid=(max(blocks, 1), 1, 1), block=(256, 1, 1), regs_per_thread=40
        )

    def workspace_bytes(self) -> float:
        # 4.5x is the Titan Black ArchProfile's fft_workspace_factor; kept
        # as a plain default here because workspace is checked before the
        # device is known in some planner paths.  ``check_fit`` compares it
        # with the actual card capacity.
        in_maps, filt_maps, out_maps = self._map_counts()
        per_map = self.geometry.points * 8.0  # complex64
        streaming_factor = 0.5 if self.tiled else 1.0  # tiling streams batches
        return streaming_factor * 4.5 * (in_maps + filt_maps + out_maps) * per_map


class _NhwcTransposeKernel(KernelModel):
    """One NHWC <-> NCHW repack pass (per-image channel transpose).

    Coalesced on both sides via tiled shared memory, but still a full
    round trip over the tensor.
    """

    def __init__(self, nbytes: float, name: str) -> None:
        self.nbytes = float(nbytes)
        self.name = name

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        return LaunchConfig(
            grid=(ceil(self.nbytes / 4 / 256), 1, 1),
            block=(32, 8, 1),
            regs_per_thread=24,
            smem_per_block=32 * 33 * 4,
        )

    def flop_count(self) -> float:
        return 0.0

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        return MemoryProfile.coalesced(load_bytes=self.nbytes, store_bytes=self.nbytes)

    def workspace_bytes(self) -> float:
        return self.nbytes


class Im2colGemmNHWC(ComposedKernel):
    """cuDNN's NHWC path of the era: repack to NCHW, run the NCHW pipeline,
    repack the output.

    This is the mechanism behind the paper's footnote 1 ("its NCHW layout
    outperforms its NHWC layout"): NHWC pays the NCHW cost plus two tensor
    round trips.
    """

    #: the stages are built from ``spec``
    structural_exclude = ComposedKernel.structural_exclude | {"kernels"}

    def __init__(self, spec: ConvSpec) -> None:
        kernels: list[KernelModel] = [
            _NhwcTransposeKernel(spec.in_desc().nbytes, "nhwc-to-nchw"),
            *im2col_gemm_kernels(spec),
            _NhwcTransposeKernel(spec.out_desc().nbytes, "nchw-to-nhwc"),
        ]
        super().__init__(kernels=kernels, name="conv-mm-nhwc")
        self.spec = spec


CONV_IMPLEMENTATIONS = (
    "direct", "im2col", "im2col-nhwc", "fft", "fft-tiled", "winograd"
)


def make_conv_kernel(spec: ConvSpec, implementation: str) -> KernelModel:
    """Build the kernel model for one convolution implementation."""
    if implementation == "direct":
        return DirectConvCHWN(spec)
    if implementation == "im2col":
        return Im2colGemmNCHW(spec)
    if implementation == "im2col-nhwc":
        return Im2colGemmNHWC(spec)
    if implementation == "fft":
        return FFTConvNCHW(spec, tiled=False)
    if implementation == "fft-tiled":
        return FFTConvNCHW(spec, tiled=True)
    if implementation == "winograd":
        from .winograd import WinogradConvNCHW

        return WinogradConvNCHW(spec)
    raise ValueError(
        f"unknown implementation {implementation!r}; choose from {CONV_IMPLEMENTATIONS}"
    )

