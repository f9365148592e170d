"""GPU kernel models for pooling in each layout (paper Sections IV.B, V.A).

Four implementations:

* :class:`PoolingCHWN` — cuda-convnet: one thread per output, warps span the
  unit-stride N dimension, every load fully coalesced.  Overlapped windows
  still re-load shared input (Fig. 8); a fraction of that redundancy hits
  L2 (short reuse distance between adjacent output warps).
* :class:`PoolingNCHWLinear` — Caffe: flat thread indexing over
  (N, C, Ho, Wo).  Warp lanes step the W dimension with the pooling stride,
  so loads are strided/un-coalesced; a count over sampled warps measures
  the resulting transaction inflation.  Caffe's training kernel also stores an
  argmax mask, doubling store traffic.
* :class:`PoolingNCHWBlockPerRow` — cuDNN v4 era: one block per output row
  (blockDim.x = Wo).  The tiny blocks cap resident warps far below the
  bandwidth saturation point, which is why the paper measures cuDNN pooling
  at ~42 GB/s average.
* :class:`PoolingCoarsenedCHWN` — the paper's optimization: each thread
  computes a ``ux x uy`` output tile and keeps the tile's input footprint in
  registers, trading register pressure (occupancy) for DRAM traffic.  The
  auto-tuner in ``repro.core.autotune`` hill-climbs (ux, uy).
"""

from __future__ import annotations

from math import ceil

import numpy as np

from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelModel, LaunchConfig, MemoryProfile
from ..gpusim.trace import sample_indices
from .base import PoolSpec
from .pooling import tile_footprint

_ITEM = 4

#: per thread: feature map (``n * C + c``), output row and column
_Lanes = tuple[np.ndarray, np.ndarray, np.ndarray]


class _PoolingKernelBase(KernelModel):
    structural_exclude = KernelModel.structural_exclude | {"_profile_cache"}

    def __init__(self, spec: PoolSpec) -> None:
        self.spec = spec
        self._profile_cache: dict[str, MemoryProfile] = {}

    def flop_count(self) -> float:
        return self.spec.flops

    def alu_efficiency(self, device: DeviceSpec) -> float:
        return 0.25  # comparison/add ops only; pooling is never compute bound

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        cached = self._profile_cache.get(device.name)
        if cached is None:
            cached = self._build_profile(device)
            self._profile_cache[device.name] = cached
        return cached

    def _build_profile(self, device: DeviceSpec) -> MemoryProfile:
        raise NotImplementedError


class PoolingCHWN(_PoolingKernelBase):
    """cuda-convnet pooling: coalesced along N, no register tiling."""

    name = "pool-chwn"
    outputs_per_block_y = 4

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        s = self.spec
        grid = (
            ceil(s.out_h * s.out_w / self.outputs_per_block_y),
            s.c,
            ceil(s.n / device.warp_size),
        )
        return LaunchConfig(
            grid=grid,
            block=(device.warp_size, self.outputs_per_block_y, 1),
            regs_per_thread=24,
        )

    def _build_profile(self, device: DeviceSpec) -> MemoryProfile:
        s = self.spec
        loads = float(s.out_elements * s.window * s.window * _ITEM)
        unique = float(s.in_desc().nbytes)
        redundant = max(0.0, loads - unique)
        # Adjacent output warps re-touch overlap within a short window;
        # the arch profile says how much of that the L2 absorbs.
        hit = device.arch.pool_l2_locality * redundant / loads if loads else 0.0
        return MemoryProfile(
            load_bytes=loads,
            store_bytes=float(s.out_desc().nbytes),
            load_transactions=loads / 32.0,
            store_transactions=s.out_desc().nbytes / 32.0,
            l2_hit_rate=hit,
        )


class PoolingCoarsenedCHWN(_PoolingKernelBase):
    """The paper's optimized pooling: ``ux x uy`` outputs per thread."""

    name = "pool-chwn-coarsened"

    def __init__(self, spec: PoolSpec, ux: int = 2, uy: int = 2) -> None:
        super().__init__(spec)
        if ux <= 0 or uy <= 0:
            raise ValueError("expansion factors must be positive")
        self.ux, self.uy = ux, uy

    def _regs_per_thread(self) -> int:
        # The register working set holds one image's tile footprint plus
        # accumulators — the pressure that eventually throttles occupancy
        # and makes the auto-tuner's search non-trivial.
        footprint = tile_footprint(self.spec, self.ux, self.uy)
        return min(255, 24 + footprint + self.ux * self.uy)

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        s = self.spec
        tiles = ceil(s.out_h / self.uy) * ceil(s.out_w / self.ux)
        grid = (
            ceil(tiles / self.outputs_per_block_y),
            s.c,
            ceil(s.n / device.warp_size),
        )
        return LaunchConfig(
            grid=grid,
            block=(device.warp_size, self.outputs_per_block_y, 1),
            regs_per_thread=self._regs_per_thread(),
        )

    outputs_per_block_y = 4

    def _build_profile(self, device: DeviceSpec) -> MemoryProfile:
        s = self.spec
        tiles_y = ceil(s.out_h / self.uy)
        tiles_x = ceil(s.out_w / self.ux)
        footprint = tile_footprint(s, self.ux, self.uy)
        loads = float(s.n * s.c * tiles_y * tiles_x * footprint * _ITEM)
        unique = float(s.in_desc().nbytes)
        redundant = max(0.0, loads - unique)
        hit = device.arch.pool_l2_locality * redundant / loads if loads else 0.0
        return MemoryProfile(
            load_bytes=loads,
            store_bytes=float(s.out_desc().nbytes),
            load_transactions=loads / 32.0,
            store_transactions=s.out_desc().nbytes / 32.0,
            l2_hit_rate=hit,
        )


class _TracedNCHWPooling(_PoolingKernelBase):
    """Shared traced-load machinery for the NCHW kernels: a subclass maps
    its threads to output positions, this class counts their loads."""

    max_sample_warps = 512
    writes_mask = False

    def _threads(self, device: DeviceSpec) -> int:
        """Threads the launch runs, in warp order."""
        raise NotImplementedError

    def _lanes(self, tid: np.ndarray, device: DeviceSpec) -> _Lanes:
        """``(map, ho, wo)`` per thread id, idle ones on the last running lane."""
        raise NotImplementedError

    def _load_transactions(self, device: DeviceSpec) -> float:
        """The grid's load transactions, counted on sampled warps: one warp
        load per window tap.  Running lanes are a prefix of each warp and
        their addresses never decrease across lanes (lanes go in ``(map,
        ho, wo)`` order, and ceil mode clips only the last output row or
        column, as ``(out - 2) * stride + window - 1 < extent - 1``).  So
        with idle lanes on the last running lane, a warp load touches one
        segment plus one per lane whose segment differs from its
        predecessor's.  The count runs one tap at a time over ``(lane,
        warp)`` arrays, so the working set stays that of one warp load."""
        s = self.spec
        warp = device.warp_size
        n_warps = ceil(self._threads(device) / warp)
        sampled = sample_indices(n_warps, self.max_sample_warps)
        # Thread ids, window origins ((out - 1) * stride < extent) and
        # element indices all stay below this bound.  In int32 a (lane,
        # warp) array is 64 KiB, under glibc's 128 KiB mmap threshold, so
        # freed blocks are reused instead of faulted in afresh
        # (docs/PERFORMANCE.md measures the difference).
        bound = max(n_warps * warp, s.n * s.c * s.h * s.w + max(s.h, s.w), s.stride)
        dtype = np.int32 if bound < 2**31 else np.int64
        # lane-major, so that neighbouring lanes compare as whole rows
        lane = np.arange(warp, dtype=dtype)[:, None]
        fmap, ho, wo = self._lanes(lane + (sampled * warp).astype(dtype), device)
        per_segment = device.transaction_bytes // _ITEM
        # Scaled in place, and the taps write into two reused buffers: no
        # tap allocates a (lane, warp) array.
        fmap *= s.h  # each lane's map, as its first input row
        ho *= s.stride  # each lane's window origin
        wo *= s.stride
        cols = [np.minimum(wo + fx, s.w - 1) for fx in range(s.window)]
        row, segment = np.empty_like(fmap), np.empty_like(fmap)
        changes = 0
        for fy in range(s.window):
            np.add(ho, fy, out=row)
            np.minimum(row, s.h - 1, out=row)
            row += fmap
            row *= s.w  # each lane's input row at this tap, as its first item
            for col in cols:
                np.add(row, col, out=segment)
                segment //= per_segment
                changes += int(np.count_nonzero(segment[1:] != segment[:-1]))
        return (s.window**2 * len(sampled) + changes) * (n_warps / len(sampled))

    def _build_profile(self, device: DeviceSpec) -> MemoryProfile:
        s = self.spec
        loads = float(s.out_elements * s.window * s.window * _ITEM)
        store_factor = 2.0 if self.writes_mask else 1.0
        stores = float(s.out_desc().nbytes) * store_factor
        # The timing model assumes strided multi-map streams thrash L2
        # across warp instructions (the concurrent working set spans N*C
        # feature maps) and charges every fetched transaction to DRAM; see
        # docs/PERFORMANCE_MODEL.md.
        return MemoryProfile(
            load_bytes=loads,
            store_bytes=stores,
            load_transactions=self._load_transactions(device),
            store_transactions=stores / 32.0,
            l2_hit_rate=0.0,
        )


class PoolingNCHWLinear(_TracedNCHWPooling):
    """Caffe pooling: flat 512-thread blocks over (N, C, Ho, Wo), with the
    training-mode argmax mask store."""

    name = "pool-nchw-linear"
    writes_mask = True

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        total = self.spec.out_elements
        return LaunchConfig(
            grid=(ceil(total / 512), 1, 1), block=(512, 1, 1), regs_per_thread=24
        )

    def _threads(self, device: DeviceSpec) -> int:
        return self.spec.out_elements

    def _lanes(self, tid: np.ndarray, device: DeviceSpec) -> _Lanes:
        s = self.spec
        tid = np.minimum(tid, s.out_elements - 1)  # idle threads are the tail
        plane = s.out_h * s.out_w
        return tid // plane, tid % plane // s.out_w, tid % s.out_w


class PoolingNCHWBlockPerRow(_TracedNCHWPooling):
    """cuDNN v4 era pooling: one block per feature-map slice, threads laid
    out over the (ho, wo) plane of that slice.

    Inherits the strided-load trace *and* pays per-map padding: each map's
    output plane is rounded up to whole warps, so small planes (e.g. 6x6
    after a 13x13 input) leave a large fraction of lanes idle — the
    occupancy shortfall behind cuDNN's ~42 GB/s average in Fig. 6.
    """

    name = "pool-nchw-rowblock"

    def _plane(self) -> int:
        return self.spec.out_h * self.spec.out_w

    def _padded_plane(self, device: DeviceSpec) -> int:
        warp = device.warp_size
        return ceil(self._plane() / warp) * warp

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        s = self.spec
        padded = self._padded_plane(device)
        block = min(padded, 256)
        return LaunchConfig(
            grid=(ceil(padded / block), 1, s.n * s.c),
            block=(block, 1, 1),
            regs_per_thread=24,
            active_lane_fraction=self._plane() / padded,
        )

    def _threads(self, device: DeviceSpec) -> int:
        return self.spec.n * self.spec.c * self._padded_plane(device)

    def _lanes(self, tid: np.ndarray, device: DeviceSpec) -> _Lanes:
        # Thread t covers map t // padded_plane, output t % padded_plane
        # (lanes beyond the plane are predicated off); no warp spans two maps.
        padded = self._padded_plane(device)
        out = np.minimum(tid % padded, self._plane() - 1)
        w = self.spec.out_w
        return tid // padded, out // w, out % w


POOL_IMPLEMENTATIONS = ("chwn", "chwn-coarsened", "nchw-linear", "nchw-rowblock")


def make_pool_kernel(
    spec: PoolSpec, implementation: str, coarsen: tuple[int, int] = (2, 2)
) -> KernelModel:
    """Build the kernel model for one pooling implementation."""
    if implementation == "chwn":
        return PoolingCHWN(spec)
    if implementation == "chwn-coarsened":
        return PoolingCoarsenedCHWN(spec, *coarsen)
    if implementation == "nchw-linear":
        return PoolingNCHWLinear(spec)
    if implementation == "nchw-rowblock":
        return PoolingNCHWBlockPerRow(spec)
    raise ValueError(
        f"unknown implementation {implementation!r}; choose from {POOL_IMPLEMENTATIONS}"
    )
