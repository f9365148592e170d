"""Executable emulation of the NCHW im2col + tiled-GEMM convolution.

Completes the emulation set: the Caffe/cuDNN strategy, run the way the GPU
does — an unroll kernel materializes each image's column buffer one thread
per element (the traffic the paper blames at small C), then a 64x64-tile
GEMM marches over the merged matrix staging operand tiles through a
"shared memory" scratch pair (the structure the model's GEMM traffic
formula assumes: each operand re-read once per tile row/column of the
other).

Verified bit-compatible with ``conv_im2col`` for arbitrary shapes.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from repro.layers.base import ConvSpec
from repro.layers.conv import im2col

_F = np.float32
TILE = 64


def tiled_gemm_emulated(
    a: np.ndarray, b: np.ndarray, tile: int = TILE
) -> tuple[np.ndarray, int]:
    """C = A @ B via explicit (tile x tile) blocking.

    Returns (C, operand_tile_loads): the number of operand tiles staged
    through shared memory — the counter the kernel model's traffic formula
    is built on.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"bad GEMM shapes {a.shape} @ {b.shape}")
    m, k = a.shape
    _, n = b.shape
    c = np.zeros((m, n), dtype=np.float64)
    tile_loads = 0
    for i0 in range(0, m, tile):
        i1 = min(m, i0 + tile)
        for j0 in range(0, n, tile):
            j1 = min(n, j0 + tile)
            acc = np.zeros((i1 - i0, j1 - j0), dtype=np.float64)
            for k0 in range(0, k, tile):
                k1 = min(k, k0 + tile)
                # stage one tile of each operand through "shared memory"
                sh_a = a[i0:i1, k0:k1].astype(np.float64)
                sh_b = b[k0:k1, j0:j1].astype(np.float64)
                tile_loads += 2
                acc += sh_a @ sh_b
            c[i0:i1, j0:j1] = acc
    return c.astype(_F), tile_loads


def conv_im2col_emulated(
    x: np.ndarray, weights: np.ndarray, spec: ConvSpec, tile: int = TILE
) -> tuple[np.ndarray, dict]:
    """The full NCHW pipeline with counters.

    Returns (output, counters) where counters holds the unroll buffer size
    and GEMM tile loads — the quantities behind ``Im2colKernel`` and
    ``GemmKernel``'s memory profiles.
    """
    if spec.groups != 1:
        raise ValueError("the emulation covers single-group convolutions")
    x = np.asarray(x, dtype=_F)
    if x.shape != (spec.n, spec.ci, spec.h, spec.w):
        raise ValueError("input shape does not match the spec")
    cols = im2col(x, spec)  # (N, K, Ho*Wo) — the materialized unroll
    # cuDNN's dimension merging: columns of all images side by side.
    merged = np.ascontiguousarray(
        cols.transpose(1, 0, 2).reshape(spec.taps, spec.n * spec.out_h * spec.out_w)
    )
    wmat = weights.reshape(spec.co, spec.taps)
    out2d, tile_loads = tiled_gemm_emulated(wmat, merged, tile)
    out = (
        out2d.reshape(spec.co, spec.n, spec.out_h, spec.out_w)
        .transpose(1, 0, 2, 3)
    )
    counters = {
        "unroll_elements": int(cols.size),
        "gemm_tile_loads": tile_loads,
        "gemm_shape": (spec.co, spec.n * spec.out_h * spec.out_w, spec.taps),
    }
    return np.ascontiguousarray(out, dtype=_F), counters


def expected_tile_loads(m: int, n: int, k: int, tile: int = TILE) -> int:
    """The kernel model's closed-form tile count, cross-checked in tests."""
    return 2 * ceil(m / tile) * ceil(n / tile) * ceil(k / tile)
