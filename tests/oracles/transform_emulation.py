"""Executable emulations of the paper's transformation kernels (Fig. 7).

The kernel *models* in :mod:`repro.tensors.transform_kernels` predict cost;
these functions execute the same algorithms — with the paper's exact thread
indexing — so the test suite can prove the published code computes a
correct CHWN -> NCHW transposition:

* :func:`naive_transform_emulated` evaluates Fig. 7a's index expressions
  ``out[(((tx*gridDim.z+bz)*gridDim.y+by)*gridDim.x)+bx] =
  in[(((bz*gridDim.y+by)*gridDim.x)+bx)*blockDim.x+tx]`` for every
  (block, thread) coordinate, vectorized;
* :func:`tiled_transform_emulated` runs the Opt1/Opt2 structure: flatten
  4-D to 2-D ([C*H*W][N] -> [N][C*H*W]), stage 32x32 tiles through a padded
  scratch "shared memory" array, and write back transposed — including the
  float2 pairing of the vectorized variant.
"""

from __future__ import annotations

import numpy as np

from repro.tensors.layout import CHWN, NCHW, DataLayout
from repro.tensors.tensor import Tensor4D

_F = np.float32
TILE = 32


def _require_chwn_to_nchw(tensor: Tensor4D, target: DataLayout) -> None:
    if tensor.layout != CHWN or target != NCHW:
        raise ValueError(
            "the Fig. 7 kernels implement the CHWN -> NCHW transposition; "
            f"got {tensor.layout} -> {target}"
        )


def naive_transform_emulated(tensor: Tensor4D, target: DataLayout = NCHW) -> Tensor4D:
    """Fig. 7a, executed: one thread per element, 4-D thread hierarchy.

    Thread geometry mirrors the listing: ``blockDim.x = N`` (tx walks the
    batch), ``grid = (W, H, C)`` (bx, by, bz).
    """
    _require_chwn_to_nchw(tensor, target)
    n, c, h, w = tensor.desc.dims
    flat_in = tensor.data.reshape(-1)  # CHWN storage order
    out = np.empty(n * c * h * w, dtype=_F)

    # Vectorized evaluation of the listing's two index expressions.
    tx = np.arange(n)  # threadIdx.x
    bx = np.arange(w)[:, None]  # blockIdx.x
    by = np.arange(h)[:, None, None]  # blockIdx.y
    bz = np.arange(c)[:, None, None, None]  # blockIdx.z
    grid_x, grid_y, grid_z = w, h, c
    in_idx = (((bz * grid_y + by) * grid_x) + bx) * n + tx
    out_idx = ((tx * grid_z + bz) * grid_y + by) * grid_x + bx
    out[out_idx.reshape(-1)] = flat_in[in_idx.reshape(-1)]
    return Tensor4D(out.reshape(NCHW.shape_of(n, c, h, w)), tensor.desc.with_layout(NCHW))


def tiled_transform_emulated(
    tensor: Tensor4D, target: DataLayout = NCHW, vectorized: bool = False
) -> Tensor4D:
    """Fig. 7b, executed: flatten to 2-D, transpose 32x32 tiles through a
    padded scratch array.

    ``vectorized=True`` emulates the float2 variant: lanes move pairs of
    consecutive N-elements through the tile, so the scratch holds 2-wide
    vectors and each write-back scatters two rows (lines 16-24 of the
    listing).  Requires N to be a multiple of 64, like the paper's kernel.
    """
    _require_chwn_to_nchw(tensor, target)
    n, c, h, w = tensor.desc.dims
    rows = c * h * w  # D2_H: the merged CHW dimension
    cols = n  # D2_W: the batch dimension
    if vectorized and n % 64:
        raise ValueError("the vectorized kernel requires N to be a multiple of 64")

    src = tensor.data.reshape(rows, cols)  # [C*H*W][N]
    dst = np.empty((cols, rows), dtype=_F)  # [N][C*H*W]

    if not vectorized:
        # Padded shared tile: TILE x (TILE + 1) floats.
        sh = np.zeros((TILE, TILE + 1), dtype=_F)
        for r0 in range(0, rows, TILE):
            r1 = min(r0 + TILE, rows)
            for c0 in range(0, cols, TILE):
                c1 = min(c0 + TILE, cols)
                sh[: r1 - r0, : c1 - c0] = src[r0:r1, c0:c1]
                dst[c0:c1, r0:r1] = sh[: r1 - r0, : c1 - c0].T
        return Tensor4D(
            dst.reshape(NCHW.shape_of(n, c, h, w)), tensor.desc.with_layout(NCHW)
        )

    # float2 variant: pair consecutive batch elements; the tile is
    # TILE x (TILE + 1) float2 (last-dim axis 2 holds .x/.y).
    paired = src.reshape(rows, cols // 2, 2)
    sh2 = np.zeros((TILE, TILE + 1, 2), dtype=_F)
    pair_cols = cols // 2
    for r0 in range(0, rows, TILE):
        r1 = min(r0 + TILE, rows)
        for p0 in range(0, pair_cols, TILE):
            p1 = min(p0 + TILE, pair_cols)
            sh2[: r1 - r0, : p1 - p0] = paired[r0:r1, p0:p1]
            tile = sh2[: r1 - r0, : p1 - p0]
            # Write-back scatters each float2 into two consecutive output
            # rows (the listing's out[2*ty...] / out[2*ty+1...] pair).
            dst[2 * p0 : 2 * p1 : 2, r0:r1] = tile[:, :, 0].T
            dst[2 * p0 + 1 : 2 * p1 : 2, r0:r1] = tile[:, :, 1].T
    return Tensor4D(
        dst.reshape(NCHW.shape_of(n, c, h, w)), tensor.desc.with_layout(NCHW)
    )
