"""Shared-memory bank-conflict model.

The paper's optimized layout transformation (Fig. 7b) pads its shared-memory
tile by one element (``__shared__ float2 sh[C][33]``) precisely to avoid bank
conflicts during the transposed read.  This module reproduces that effect:
given the per-lane shared-memory addresses of a warp access, it reports the
conflict degree (the number of serialized replays).

Kepler shared memory has 32 banks; in 4-byte mode bank = (addr / 4) % 32, in
8-byte mode bank = (addr / 8) % 32.  Lanes that read the *same* word
broadcast and do not conflict.
"""

from __future__ import annotations

import numpy as np


def conflict_degree(
    addresses: np.ndarray, banks: int = 32, word_bytes: int = 4
) -> np.ndarray:
    """Conflict degree per warp for ``(warps, lanes)`` shared-memory addresses.

    The degree is the maximum, over banks, of the number of *distinct* words
    the warp's lanes request from that bank.  Broadcasts (same word) count
    once.  Inactive lanes use address -1.
    """
    addr = np.asarray(addresses, dtype=np.int64)
    if addr.ndim != 2:
        raise ValueError(f"expected (warps, lanes), got shape {addr.shape}")
    words = addr // word_bytes
    bank = words % banks
    degrees = np.ones(addr.shape[0], dtype=np.int64)
    for w in range(addr.shape[0]):
        active = addr[w] >= 0
        if not active.any():
            continue
        pairs = np.stack([bank[w][active], words[w][active]], axis=1)
        uniq = np.unique(pairs, axis=0)
        _, counts = np.unique(uniq[:, 0], return_counts=True)
        degrees[w] = int(counts.max())
    return degrees


def tile_column_access(
    tile_rows: int, row_pitch_words: int, lanes: int = 32, word_bytes: int = 4
) -> np.ndarray:
    """Addresses for a warp reading one *column* of a shared tile.

    Lane ``i`` reads word ``i * row_pitch_words`` — the canonical transposed
    tile read.  With ``row_pitch_words == 32`` every lane maps to bank 0 (a
    32-way conflict); padding the pitch to 33 makes it conflict-free, which
    is the optimization in the paper's Fig. 7b.
    """
    lanes_idx = np.arange(lanes, dtype=np.int64)
    active = lanes_idx < tile_rows
    addr = lanes_idx * row_pitch_words * word_bytes
    return np.where(active, addr, np.int64(-1))[None, :]
