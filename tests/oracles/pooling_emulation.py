"""Executable emulation of the CHWN pooling kernels (Sections IV.B, V.A).

Completes the emulation set (transform, softmax, direct conv): the
cuda-convnet pooling kernel and the paper's coarsened variant, executed
with their native CHWN data order and warp structure.

* :func:`pool_chwn_emulated` — one thread per output element, warps span
  32 consecutive images along the unit-stride N axis; every load in the
  window loop is one coalesced warp access.
* :func:`pool_chwn_coarsened_emulated` — each thread owns a ``ux x uy``
  output tile; the tile's input footprint is loaded into a register array
  once and every window reduces from it (Section V.A's working-set
  expansion).

Both are bit-compatible with the logical reference `pool_plain`.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from repro.layers.base import PoolSpec
from repro.tensors.layout import CHWN
from repro.tensors.tensor import Tensor4D

_F = np.float32


def _reduce(window: np.ndarray, op: str, count: int) -> np.ndarray:
    if op == "max":
        return window.max(axis=0)
    return (window.sum(axis=0, dtype=np.float64) / count).astype(_F)


def pool_chwn_emulated(x: Tensor4D, spec: PoolSpec) -> Tensor4D:
    """cuda-convnet pooling on physical (C, H, W, N) data."""
    if x.layout != CHWN:
        raise ValueError(f"expected CHWN input, got {x.layout}")
    if x.desc.dims != (spec.n, spec.c, spec.h, spec.w):
        raise ValueError("input dims do not match the pooling spec")
    data = x.data  # (C, H, W, N): the N axis is unit-stride
    ho, wo, s, f = spec.out_h, spec.out_w, spec.stride, spec.window
    out = np.empty((spec.c, ho, wo, spec.n), dtype=_F)
    warp = 32
    n_warps = ceil(spec.n / warp)

    for c in range(spec.c):  # grid.y in the kernel model
        for oy in range(ho):
            for ox in range(wo):
                y0, x0 = oy * s, ox * s
                y1, x1 = min(spec.h, y0 + f), min(spec.w, x0 + f)
                count = (y1 - y0) * (x1 - x0)
                for wid in range(n_warps):  # warps along the batch
                    lo = wid * warp
                    hi = min(spec.n, lo + warp)
                    # Each (iy, ix) tap is ONE coalesced warp load of the
                    # 32 consecutive N-elements at data[c, iy, ix, lo:hi].
                    taps = data[c, y0:y1, x0:x1, lo:hi].reshape(count, hi - lo)
                    out[c, oy, ox, lo:hi] = _reduce(taps, spec.op, count)
    return Tensor4D(out, spec.out_desc(CHWN))


def pool_chwn_coarsened_emulated(
    x: Tensor4D, spec: PoolSpec, ux: int = 2, uy: int = 2
) -> Tensor4D:
    """The Section V.A kernel: register-cached input tile per thread."""
    if ux <= 0 or uy <= 0:
        raise ValueError("expansion factors must be positive")
    if x.layout != CHWN:
        raise ValueError(f"expected CHWN input, got {x.layout}")
    if x.desc.dims != (spec.n, spec.c, spec.h, spec.w):
        raise ValueError("input dims do not match the pooling spec")
    data = x.data
    ho, wo, s, f = spec.out_h, spec.out_w, spec.stride, spec.window
    out = np.empty((spec.c, ho, wo, spec.n), dtype=_F)
    warp = 32
    n_warps = ceil(spec.n / warp)

    for c in range(spec.c):
        for ty in range(0, ho, uy):
            for tx in range(0, wo, ux):
                ny, nx = min(uy, ho - ty), min(ux, wo - tx)
                fy0, fx0 = ty * s, tx * s
                fy1 = min(spec.h, fy0 + (ny - 1) * s + f)
                fx1 = min(spec.w, fx0 + (nx - 1) * s + f)
                for wid in range(n_warps):
                    lo = wid * warp
                    hi = min(spec.n, lo + warp)
                    # ONE load of the tile footprint into the "register
                    # file"; every window below reads registers, not DRAM.
                    regs = data[c, fy0:fy1, fx0:fx1, lo:hi]
                    for oy in range(ny):
                        for ox in range(nx):
                            win = regs[
                                oy * s : oy * s + f, ox * s : ox * s + f
                            ]
                            count = win.shape[0] * win.shape[1]
                            out[c, ty + oy, tx + ox, lo:hi] = _reduce(
                                win.reshape(count, hi - lo), spec.op, count
                            )
    return Tensor4D(out, spec.out_desc(CHWN))


def footprint_loads(spec: PoolSpec, ux: int, uy: int) -> tuple[int, int]:
    """(loads without coarsening, loads with a ux x uy tile) per image slice.

    The counters behind Fig. 8: the plain kernel re-loads every window
    element; the coarsened kernel loads each tile footprint once.
    """
    plain = spec.out_h * spec.out_w * spec.window * spec.window
    tiles_y = ceil(spec.out_h / uy)
    tiles_x = ceil(spec.out_w / ux)
    from repro.layers.pooling import tile_footprint

    coarse = tiles_y * tiles_x * tile_footprint(spec, ux, uy)
    return plain, coarse
