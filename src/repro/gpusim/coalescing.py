"""Warp-level memory coalescing model.

On Kepler-class GPUs a warp's 32 global accesses are serviced as a set of
32-byte DRAM transactions (L1 is bypassed for global loads).  The number of
distinct 32-byte segments a warp touches is therefore the fundamental
measure of access efficiency: a fully coalesced float32 warp load touches 4
segments; a stride-N load can touch up to 32, over-fetching 8x.

This module converts per-warp element indices into transaction counts.  It
is pure NumPy and fully vectorized so the engine can push millions of
sampled indices through it cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceSpec


@dataclass(frozen=True)
class CoalescingReport:
    """Aggregate coalescing statistics for a batch of warps.

    Attributes
    ----------
    warps:
        Number of warps analysed.
    transactions:
        Total memory transactions issued.
    useful_bytes:
        Bytes actually requested by threads.
    fetched_bytes:
        Bytes moved over the memory bus (transactions * segment size).
    """

    warps: int
    transactions: int
    useful_bytes: int
    fetched_bytes: int

    @property
    def transactions_per_warp(self) -> float:
        """Average transactions per warp (1..32 for 4-byte accesses)."""
        return self.transactions / self.warps if self.warps else 0.0

    @property
    def efficiency(self) -> float:
        """Fraction of fetched bytes that were requested (0..1]."""
        return self.useful_bytes / self.fetched_bytes if self.fetched_bytes else 0.0

    @property
    def overfetch(self) -> float:
        """Bus amplification factor (1.0 = perfectly coalesced)."""
        return self.fetched_bytes / self.useful_bytes if self.useful_bytes else 0.0


def _warp_segments(indices: np.ndarray, segment_items: int) -> np.ndarray:
    """The segments each warp of a ``(warps, lanes)`` item trace touches.

    Returns an int64 array with one row per warp, sorted ascending: the
    segment id (``index // segment_items``) of every lane, negative for
    inactive lanes (negative indices).  An item never straddles a segment
    (global accesses are naturally aligned and an item divides a segment),
    so one id per lane covers the access.  A segment touched by several
    lanes repeats, so its copies sit side by side.
    """
    segments = indices // segment_items
    segments.sort(axis=1)
    return segments


def _first_of_segment(segments: np.ndarray) -> np.ndarray:
    """Mask of the first copy of each non-negative id in a row-sorted
    segment array."""
    first = segments >= 0
    first[:, 1:] &= segments[:, 1:] != segments[:, :-1]
    return first


def _segment_items(device: DeviceSpec, item_bytes: int) -> int:
    """Items per transaction segment; ``item_bytes`` must divide it."""
    if item_bytes <= 0 or device.transaction_bytes % item_bytes:
        raise ValueError(
            f"item_bytes must divide the {device.transaction_bytes}-byte "
            f"transaction, got {item_bytes}"
        )
    return device.transaction_bytes // item_bytes


def _warp_trace(indices: np.ndarray, device: DeviceSpec) -> np.ndarray:
    """``indices`` as an int64 ``(warps, lanes)`` array, shape-checked."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2:
        raise ValueError(f"expected (warps, lanes) indices, got shape {idx.shape}")
    if idx.shape[1] > device.warp_size:
        raise ValueError(
            f"{idx.shape[1]} lanes exceeds warp size {device.warp_size}"
        )
    return idx


def warp_transactions(
    indices: np.ndarray, device: DeviceSpec, item_bytes: int = 4
) -> np.ndarray:
    """Count transactions per warp for a ``(warps, warp_size)`` item trace.

    Parameters
    ----------
    indices:
        Integer element indices, shape ``(n_warps, warp_size)``: lane
        ``l`` of warp ``w`` accesses bytes ``[i * item_bytes, (i + 1) *
        item_bytes)`` for ``i = indices[w, l]``.  Negative indices mark
        inactive lanes (predicated-off threads) and are ignored.
    device:
        Device supplying the transaction segment size.
    item_bytes:
        Size of each element (4 for float, 8 for float2); it must divide
        the device's transaction size.

    Returns
    -------
    np.ndarray
        ``(n_warps,)`` int64 array of transaction counts: the distinct
        segments the warp's active accesses touch.
    """
    segment_items = _segment_items(device, item_bytes)
    idx = _warp_trace(indices, device)
    return _first_of_segment(_warp_segments(idx, segment_items)).sum(axis=1)


def analyze_warps(
    indices: np.ndarray, device: DeviceSpec, item_bytes: int = 4
) -> CoalescingReport:
    """Run the coalescing unit over sampled warps' item indices and
    aggregate statistics."""
    segment_items = _segment_items(device, item_bytes)
    idx = _warp_trace(indices, device)
    segments = _warp_segments(idx, segment_items)
    active = int(np.count_nonzero(segments >= 0))
    transactions = int(np.count_nonzero(_first_of_segment(segments)))
    return CoalescingReport(
        warps=idx.shape[0],
        transactions=transactions,
        useful_bytes=active * item_bytes,
        fetched_bytes=transactions * device.transaction_bytes,
    )


def strided_pattern(
    n_warps: int, stride: int, device: DeviceSpec, base: int = 0
) -> np.ndarray:
    """Build a synthetic ``(n_warps, warp_size)`` strided item-index pattern.

    Each warp ``w`` starts at item ``base + w * warp_size * stride`` and its
    lanes step by ``stride`` items.  Stride 1 yields a fully coalesced
    pattern; larger strides model the NCHW pooling and naive transpose
    access patterns the paper identifies as inefficient.
    """
    if n_warps <= 0:
        raise ValueError("n_warps must be positive")
    lanes = np.arange(device.warp_size, dtype=np.int64)
    warps = np.arange(n_warps, dtype=np.int64)[:, None]
    return base + (warps * device.warp_size + lanes) * stride
