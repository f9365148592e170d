"""Warp-level memory coalescing model.

On Kepler-class GPUs a warp's 32 global accesses are serviced as a set of
32-byte DRAM transactions (L1 is bypassed for global loads).  The number of
distinct 32-byte segments a warp touches is therefore the fundamental
measure of access efficiency: a fully coalesced float32 warp load touches 4
segments; a stride-N load can touch up to 32, over-fetching 8x.

This module converts per-warp byte addresses into transaction counts.  It is
pure NumPy and fully vectorized so the engine can push millions of sampled
addresses through it cheaply.
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


def _warp_segments(
    addresses: np.ndarray, segment_bytes: int, access_bytes: int
) -> np.ndarray:
    """The segments each warp of a ``(warps, lanes)`` trace touches.

    Returns an int64 array with one row per warp, sorted ascending: the
    ids (``address // segment_bytes``) of every segment an active lane's
    ``[addr, addr + access_bytes)`` covers, with ``-1`` for inactive lanes
    (negative addresses).  A segment touched by several lanes repeats, so
    its copies sit side by side.  The row holds one entry per lane, widened
    to two per lane only when some active access straddles a segment
    boundary.
    """
    if not 1 <= access_bytes <= segment_bytes:
        raise ValueError(
            f"access_bytes must be in [1, {segment_bytes}], got {access_bytes}"
        )
    inactive = addresses < 0
    segments = addresses // segment_bytes
    spill: np.ndarray | None = None
    if access_bytes > 1:
        last = addresses + (access_bytes - 1)
        last //= segment_bytes
        straddle = last != segments
        straddle &= ~inactive
        if straddle.any():
            spill = np.where(straddle, segments + 1, np.int64(-1))
    np.copyto(segments, -1, where=inactive)
    if spill is not None:
        segments = np.concatenate([segments, spill], axis=1)
    segments.sort(axis=1)
    return segments


def _distinct_per_warp(segments: np.ndarray) -> np.ndarray:
    """Distinct non-negative ids per row of a row-sorted segment array."""
    new = segments >= 0
    new[:, 1:] &= segments[:, 1:] != segments[:, :-1]
    return new.sum(axis=1)


def _warp_trace(addresses: np.ndarray, device: DeviceSpec) -> np.ndarray:
    """``addresses`` as an int64 ``(warps, lanes)`` array, shape-checked."""
    addr = np.asarray(addresses, dtype=np.int64)
    if addr.ndim != 2:
        raise ValueError(f"expected (warps, lanes) addresses, got shape {addr.shape}")
    if addr.shape[1] > device.warp_size:
        raise ValueError(
            f"{addr.shape[1]} lanes exceeds warp size {device.warp_size}"
        )
    return addr


def warp_transactions(
    addresses: np.ndarray, device: DeviceSpec, access_bytes: int = 4
) -> np.ndarray:
    """Count transactions per warp for a ``(warps, warp_size)`` address array.

    Parameters
    ----------
    addresses:
        Integer byte addresses, shape ``(n_warps, warp_size)``.  Negative
        addresses mark inactive lanes (predicated-off threads) and are
        ignored.
    device:
        Device supplying the transaction segment size.
    access_bytes:
        Size of each thread's access (4 for float, 8 for float2), at most
        one segment.

    Returns
    -------
    np.ndarray
        ``(n_warps,)`` int64 array of transaction counts: the distinct
        segments the warp's active accesses cover.
    """
    addr = _warp_trace(addresses, device)
    segments = _warp_segments(addr, device.transaction_bytes, access_bytes)
    return _distinct_per_warp(segments)


def analyze_warps(
    addresses: np.ndarray, device: DeviceSpec, access_bytes: int = 4
) -> CoalescingReport:
    """Run the coalescing unit over sampled warps and aggregate statistics."""
    addr = _warp_trace(addresses, device)
    segments = _warp_segments(addr, device.transaction_bytes, access_bytes)
    active = int(np.count_nonzero(addr >= 0))
    transactions = int(_distinct_per_warp(segments).sum())
    return CoalescingReport(
        warps=addr.shape[0],
        transactions=transactions,
        useful_bytes=active * access_bytes,
        fetched_bytes=transactions * device.transaction_bytes,
    )


def strided_pattern(
    n_warps: int,
    stride_bytes: int,
    device: DeviceSpec,
    base: int = 0,
    access_bytes: int = 4,
) -> np.ndarray:
    """Build a synthetic ``(n_warps, warp_size)`` strided address pattern.

    Each warp ``w`` starts at ``base + w * warp_size * stride_bytes`` and its
    lanes step by ``stride_bytes``.  Stride equal to ``access_bytes`` yields a
    fully coalesced pattern; larger strides model the NCHW pooling and naive
    transpose access patterns the paper identifies as inefficient.
    """
    if n_warps <= 0:
        raise ValueError("n_warps must be positive")
    lanes = np.arange(device.warp_size, dtype=np.int64)
    warps = np.arange(n_warps, dtype=np.int64)[:, None]
    return base + (warps * device.warp_size + lanes) * stride_bytes
