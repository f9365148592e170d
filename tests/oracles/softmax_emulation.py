"""Executable emulation of the paper's fused softmax kernel (Fig. 9).

One thread block per image (``dim3 blocks(num_img)``), ``block_threads``
cooperating threads.  The emulation walks the listing's structure:

1. strided cooperative load of the row into the shared tile
   (``for i = tidx; i < num_category; i += blockDim``);
2. step 1: tree max-reduction through ``tmp_tile`` with per-level
   synchronization (``max_reduction_thread_block``);
3. step 2: strided subtraction of ``tmp_tile[0]``;
4. step 3: strided exponential;
5. step 4: tree sum-reduction;
6. step 5: strided normalization and write-back.

Tested equal to the reference softmax for any (block size, category count),
including non-power-of-two categories and categories < block size.
"""

from __future__ import annotations

import numpy as np

from repro.layers.base import SoftmaxSpec

_F = np.float32


def _tree_reduce(values: np.ndarray, op) -> float:
    """Shared-memory style tree reduction with power-of-two strides.

    ``values`` is the per-thread partial array (one slot per thread); the
    loop halves the active thread count each level, like the
    ``__syncthreads``-separated levels of the kernel's reduction helper.
    """
    tmp = values.copy()
    active = 1
    while active < tmp.size:
        active <<= 1
    active >>= 1
    # Pad the virtual tile up to the next power of two with identity slots.
    while active >= 1:
        for tid in range(active):
            partner = tid + active
            if partner < tmp.size:
                tmp[tid] = op(tmp[tid], tmp[partner])
        active >>= 1
    return float(tmp[0])


def softmax_fused_blockwise(
    x: np.ndarray, spec: SoftmaxSpec, block_threads: int = 128
) -> np.ndarray:
    """Execute the Fig. 9 kernel structure numerically."""
    if block_threads <= 0:
        raise ValueError("block_threads must be positive")
    x = np.asarray(x, dtype=_F)
    if x.shape != (spec.n, spec.categories):
        raise ValueError(f"input shape {x.shape} != {(spec.n, spec.categories)}")
    c = spec.categories
    out = np.empty_like(x)

    for block in range(spec.n):  # one thread block per image
        in_tile = np.empty(c, dtype=_F)
        # cooperative strided load (line 6-7 of the listing)
        for tidx in range(min(block_threads, c)):
            in_tile[tidx::block_threads] = x[block, tidx::block_threads]

        # step 1: per-thread partial max, then tree reduction in tmp_tile
        partial = np.full(min(block_threads, c), -np.inf, dtype=_F)
        for tidx in range(partial.size):
            partial[tidx] = in_tile[tidx::block_threads].max()
        maxv = _tree_reduce(partial, max)

        # step 2 + 3: shift and exponentiate, strided over threads
        for tidx in range(min(block_threads, c)):
            seg = in_tile[tidx::block_threads]
            in_tile[tidx::block_threads] = np.exp(seg - maxv)

        # step 4: per-thread partial sums, tree reduction
        partial_sum = np.zeros(min(block_threads, c), dtype=np.float64)
        for tidx in range(partial_sum.size):
            partial_sum[tidx] = in_tile[tidx::block_threads].sum(dtype=np.float64)
        sumv = _tree_reduce(partial_sum, lambda a, b: a + b)

        # step 5: normalize and write back
        for tidx in range(min(block_threads, c)):
            out[block, tidx::block_threads] = in_tile[tidx::block_threads] / _F(sumv)
    return out
