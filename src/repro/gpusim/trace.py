"""Address-trace utilities: turn per-thread addresses into per-warp arrays.

Traced kernel models (the naive layout transform) generate the element
indices their threads touch; these helpers reshape flat per-thread
streams into the ``(warps, lanes)`` arrays the coalescing unit consumes,
turn a byte-address warp trace into the transaction stream the L2 model
replays, and sample blocks (NCHW pooling samples its warps here too) so
that large grids stay cheap to analyse.
"""

from __future__ import annotations

import numpy as np

from .coalescing import _first_of_segment, _warp_segments


def warps_from_threads(
    thread_addresses: np.ndarray, warp_size: int = 32
) -> np.ndarray:
    """Group a flat per-thread address array into warps.

    ``thread_addresses`` is 1-D in thread-id order (lane 0 of warp 0 first);
    the tail is padded with -1 (inactive lanes).  2-D input is interpreted
    as per-thread *sequences*: shape ``(threads, accesses)`` becomes
    ``(warps * accesses, warp_size)`` — one warp-instruction per column.
    """
    addr = np.asarray(thread_addresses, dtype=np.int64)
    if addr.ndim == 1:
        pad = (-addr.size) % warp_size
        if pad:
            addr = np.concatenate([addr, np.full(pad, -1, dtype=np.int64)])
        return addr.reshape(-1, warp_size)
    if addr.ndim == 2:
        threads, accesses = addr.shape
        pad = (-threads) % warp_size
        if pad:
            addr = np.concatenate(
                [addr, np.full((pad, accesses), -1, dtype=np.int64)], axis=0
            )
        # (warps, warp_size, accesses) -> (warps*accesses, warp_size)
        grouped = addr.reshape(-1, warp_size, accesses)
        return np.ascontiguousarray(np.moveaxis(grouped, 2, 1)).reshape(-1, warp_size)
    raise ValueError(f"expected 1-D or 2-D addresses, got shape {addr.shape}")


def transaction_stream(warp_addresses: np.ndarray, segment_bytes: int) -> np.ndarray:
    """Post-coalescing transaction addresses for a ``(warps, lanes)`` trace.

    The single sanctioned bridge between warp arrays and the L2 model:
    inactive lanes (``-1`` padding from :func:`warps_from_threads`) are
    stripped here, so callers can feed padded traces straight through
    without tripping the cache's negative-address check.  Each warp
    contributes the distinct ``segment_bytes``-sized segments holding its
    accesses' first bytes (ascending, as one coalesced burst), in warp
    order — the order the memory system sees them.
    """
    if segment_bytes <= 0:
        raise ValueError("segment_bytes must be positive")
    addr = np.asarray(warp_addresses, dtype=np.int64)
    if addr.ndim == 1:
        addr = addr[None, :]
    elif addr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D addresses, got shape {addr.shape}")
    # byte addresses are indices of 1-byte items
    segments = _warp_segments(addr, segment_bytes)
    return segments[_first_of_segment(segments)] * segment_bytes


def sample_indices(total: int, max_samples: int) -> np.ndarray:
    """Deterministically choose up to ``max_samples`` indices out of ``total``.

    Uses an evenly spaced stride so that sampled blocks cover the whole
    iteration space (important when edge blocks have partial warps).
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if total <= max_samples:
        return np.arange(total, dtype=np.int64)
    step = total / max_samples
    return (np.arange(max_samples, dtype=np.float64) * step).astype(np.int64)

