"""GPU kernel models for the 4-D layout transformation (paper Fig. 7).

Three implementations, matching the paper's progression:

* :class:`NaiveTransformKernel` — Fig. 7a: a thread per element reading the
  source in storage order and writing with a long stride.  The traced
  coalescing unit shows ~1 transaction per element on the store side plus
  write-allocate fills, which is why the naive kernel manages only tens of
  GB/s.
* :class:`TiledTransformKernel` (Transform-Opt1) — flatten the 4-D
  permutation to a (batched) 2-D transpose (C, H, W keep their relative
  order between NCHW and CHWN), stage 32x32 tiles through padded shared
  memory so both global directions are coalesced.
* :class:`VectorTransformKernel` (Transform-Opt2) — additionally vectorize
  with float2 (8-byte shared-memory mode), applicable when the merged
  unit-stride group is at least 64 wide (the paper applies it when N >= 64).
"""

from __future__ import annotations

from math import ceil

import numpy as np

from ..gpusim.coalescing import analyze_warps
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelModel, LaunchConfig, MemoryProfile
from ..gpusim.timing import KernelStats
from ..gpusim.trace import sample_indices
from .layout import DataLayout
from .tensor import TensorDesc
from .relayout import TransposeGroups, relayout_linear_indices, transpose_groups

_ITEM = 4  # float32


class _TransformKernelBase(KernelModel):
    """Common plumbing: a relayout moves every element once, no FLOPs."""

    def __init__(self, desc: TensorDesc, target: DataLayout) -> None:
        if target == desc.layout:
            raise ValueError(f"source and target layout are both {target}")
        self.desc = desc
        self.target = target

    def flop_count(self) -> float:
        return 0.0

    def workspace_bytes(self) -> float:
        # Destination buffer; freed immediately after the transform
        # completes (Section VI.A).
        return float(self.desc.nbytes)


class NaiveTransformKernel(_TransformKernelBase):
    """Fig. 7a: one thread per element, un-coalesced strided stores."""

    name = "transform-naive"

    def __init__(
        self, desc: TensorDesc, target: DataLayout, max_sample_warps: int = 2048
    ) -> None:
        super().__init__(desc, target)
        self.max_sample_warps = max_sample_warps

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        lowest_extent = self.desc.physical_shape[-1]
        block_x = min(max(lowest_extent, device.warp_size), 256)
        grid_x = ceil(self.desc.size / block_x)
        return LaunchConfig(grid=(grid_x, 1, 1), block=(block_x, 1, 1), regs_per_thread=16)

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        size = self.desc.size
        nbytes = float(self.desc.nbytes)
        warp = device.warp_size
        n_warps = ceil(size / warp)
        sampled = sample_indices(n_warps, self.max_sample_warps)
        lanes = np.arange(warp, dtype=np.int64)
        thread_ids = sampled[:, None] * warp + lanes
        valid = thread_ids < size
        dst_idx = np.full(thread_ids.shape, -1, dtype=np.int64)
        dst_idx[valid] = relayout_linear_indices(
            self.desc, self.target, thread_ids[valid]
        )
        store_addr = np.where(valid, dst_idx * _ITEM, np.int64(-1))
        report = analyze_warps(store_addr, device, access_bytes=_ITEM)
        scale = n_warps / len(sampled)
        store_transactions = report.transactions * scale
        store_bytes = nbytes
        # Partial-line stores trigger write-allocate fills from DRAM.  The
        # concurrently-resident warps write to segments spread across the
        # whole destination, so the fills get no L2 gathering (working set
        # far exceeds L2) — this is the dominant cost of the naive kernel.
        coverage = min(1.0, store_bytes / max(store_transactions * 32.0, 1.0))
        write_allocate = store_transactions * (1.0 - coverage)
        return MemoryProfile(
            load_bytes=nbytes,
            store_bytes=store_bytes,
            load_transactions=nbytes / 32.0 + write_allocate,
            store_transactions=store_transactions,
            l2_hit_rate=0.0,
            access_bytes=_ITEM,
        )


class _TiledBase(_TransformKernelBase):
    """Shared logic for the tiled (Opt1/Opt2) kernels."""

    tile: int = 32

    def __init__(self, desc: TensorDesc, target: DataLayout) -> None:
        super().__init__(desc, target)
        groups = transpose_groups(desc.layout, target, desc.dims)
        if groups is None:
            raise ValueError(
                f"{desc.layout} -> {target} is not a batched 2-D transpose; "
                "use NaiveTransformKernel"
            )
        self.groups: TransposeGroups = groups

    def _tile_inflation(self) -> float:
        """Transaction inflation from partially-filled edge tiles."""
        g = self.groups
        tiles = ceil(g.rows / self.tile) * ceil(g.cols / self.tile) * g.batch
        active = g.rows * g.cols * g.batch / (tiles * self.tile * self.tile)
        return 1.0 / active

    def _grid(self) -> tuple[int, int, int]:
        g = self.groups
        return (ceil(g.cols / self.tile), ceil(g.rows / self.tile), g.batch)


class TiledTransformKernel(_TiledBase):
    """Transform-Opt1: flatten + padded shared-memory tile transpose."""

    name = "transform-opt1"

    def __init__(
        self, desc: TensorDesc, target: DataLayout, padded: bool = True
    ) -> None:
        super().__init__(desc, target)
        #: padding the tile row (``sh[C][33]``) removes bank conflicts; the
        #: unpadded variant is kept for the ablation benchmark.
        self.padded = padded

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        pitch = self.tile + (1 if self.padded else 0)
        smem = self.tile * pitch * _ITEM
        return LaunchConfig(
            grid=self._grid(), block=(32, 8, 1), regs_per_thread=24, smem_per_block=smem
        )

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        nbytes = float(self.desc.nbytes)
        inflation = self._tile_inflation()
        conflict = 1.0 if self.padded else float(device.smem_banks)
        return MemoryProfile(
            load_bytes=nbytes,
            store_bytes=nbytes,
            load_transactions=nbytes / 32.0 * inflation,
            store_transactions=nbytes / 32.0 * inflation,
            smem_conflict_degree=conflict,
            access_bytes=_ITEM,
        )


class VectorTransformKernel(_TiledBase):
    """Transform-Opt2: Opt1 plus float2 vectorization (8-byte smem mode)."""

    name = "transform-opt2"
    #: the paper enables vectorization when the batch dimension N (the
    #: merged unit-stride group) is at least this wide
    min_vector_extent = 64

    def __init__(self, desc: TensorDesc, target: DataLayout) -> None:
        super().__init__(desc, target)
        if self.groups.cols < self.min_vector_extent:
            raise ValueError(
                f"vectorized transform needs a unit-stride group >= "
                f"{self.min_vector_extent} (got {self.groups.cols}); "
                "fall back to TiledTransformKernel"
            )

    def launch_config(self, device: DeviceSpec) -> LaunchConfig:
        smem = self.tile * (self.tile + 1) * 8  # float2 tile, padded
        return LaunchConfig(
            grid=self._grid(), block=(32, 16, 1), regs_per_thread=28, smem_per_block=smem
        )

    def memory_profile(self, device: DeviceSpec) -> MemoryProfile:
        nbytes = float(self.desc.nbytes)
        inflation = self._tile_inflation()
        return MemoryProfile(
            load_bytes=nbytes,
            store_bytes=nbytes,
            load_transactions=nbytes / 32.0 * inflation,
            store_transactions=nbytes / 32.0 * inflation,
            access_bytes=8,
        )


def make_transform_kernel(
    desc: TensorDesc, target: DataLayout, method: str = "auto"
) -> KernelModel:
    """Pick a transformation kernel.

    ``auto`` mirrors the paper: vectorized tiles when the unit-stride group
    allows it, plain tiles when the permutation flattens to a 2-D transpose,
    the naive kernel otherwise.
    """
    if method == "naive":
        return NaiveTransformKernel(desc, target)
    if method == "opt1":
        return TiledTransformKernel(desc, target)
    if method == "opt2":
        return VectorTransformKernel(desc, target)
    if method != "auto":
        raise ValueError(f"unknown transform method {method!r}")
    groups = transpose_groups(desc.layout, target, desc.dims)
    if groups is None:
        return NaiveTransformKernel(desc, target)
    if groups.cols >= VectorTransformKernel.min_vector_extent:
        return VectorTransformKernel(desc, target)
    return TiledTransformKernel(desc, target)


def transform_stats(
    device: DeviceSpec, desc: TensorDesc, target: DataLayout, method: str = "auto"
) -> KernelStats:
    """Simulate one relayout and return its kernel statistics.

    Served from the device's shared simulation session: the layout planner
    asks for the same boundary transforms many times per plan.
    """
    from ..gpusim.session import default_context

    kernel = make_transform_kernel(desc, target, method)
    return default_context(device).run(kernel, check_memory=False)


def transform_time_ms(
    device: DeviceSpec, desc: TensorDesc, target: DataLayout, method: str = "auto"
) -> float:
    """Modelled wall time of a relayout in milliseconds."""
    if target == desc.layout:
        return 0.0
    return transform_stats(device, desc, target, method).time_ms
