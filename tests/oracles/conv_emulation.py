"""Executable emulation of cuda-convnet's direct convolution (CHWN).

The performance model's ``DirectConvCHWN`` assumes a specific blocking
structure (Section IV.A's description of cuda-convnet): a warp of 32
threads spans 32 images along the unit-stride N dimension, each thread
register-tiles ``imgs_per_thread`` images and ``filters_per_thread``
output maps, and the block's filter slice is staged through shared memory.
This module *executes* that structure on CHWN-ordered data so the test
suite can prove the blocked algorithm computes Equation 1 exactly — and so
the register-reuse arithmetic the model's batch-sensitivity law relies on
is visible in code.

The emulation is organized exactly like the kernel:

* grid: (spatial blocks, output-map blocks, image blocks)
* block: 32 lanes (images) x ``filters_per_block/filters_per_thread`` rows
* per thread: an accumulator register tile
  ``[filters_per_thread][imgs_per_thread]``
* inner loop: over the filter taps of the block's shared-memory slice.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from repro.layers.base import ConvSpec
from repro.tensors.layout import CHWN
from repro.tensors.tensor import Tensor4D

_F = np.float32


def direct_conv_chwn_emulated(
    x: Tensor4D,
    weights: np.ndarray,
    spec: ConvSpec,
    imgs_per_thread: int | None = None,
    filters_per_thread: int = 4,
    filters_per_block: int = 16,
) -> Tensor4D:
    """Run the blocked CHWN direct convolution.

    ``imgs_per_thread`` defaults to the cuda-convnet rule
    ``min(4, N // 32)`` (Section IV.A: at N=128 each thread handles four
    images so their data is reused in the register file).
    """
    if spec.groups != 1:
        raise ValueError("the emulation covers single-group convolutions")
    if x.layout != CHWN:
        raise ValueError(f"expected CHWN input, got {x.layout}")
    n, ci, h, w = spec.n, spec.ci, spec.h, spec.w
    if x.desc.dims != (n, ci, h, w):
        raise ValueError(f"input dims {x.desc.dims} != spec")
    weights = np.asarray(weights, dtype=_F)
    warp = 32
    if imgs_per_thread is None:
        imgs_per_thread = max(1, min(4, n // warp))
    img_block = warp * imgs_per_thread

    data = x.data  # physical (C, H, W, N)
    pad = spec.pad
    ho, wo, s = spec.out_h, spec.out_w, spec.stride
    out = np.zeros((spec.co, ho, wo, n), dtype=_F)  # CHWN output

    n_img_blocks = ceil(n / img_block)
    n_filter_blocks = ceil(spec.co / filters_per_block)
    spatial = ho * wo

    for bz in range(n_img_blocks):  # grid.z: image blocks
        img0 = bz * img_block
        imgs = min(img_block, n - img0)
        for by in range(n_filter_blocks):  # grid.y: output-map blocks
            f0 = by * filters_per_block
            f1 = min(spec.co, f0 + filters_per_block)
            # The block stages its filter slice through shared memory once.
            shared_filters = weights[f0:f1]  # [fpb, ci, fh, fw]
            for pos in range(spatial):  # grid.x: output positions
                oy, ox = divmod(pos, wo)
                # accumulator register tile: [filters, images]
                acc = np.zeros((f1 - f0, imgs), dtype=np.float64)
                for c in range(ci):
                    for fy in range(spec.fh):
                        iy = oy * s + fy - pad
                        if not 0 <= iy < h:
                            continue
                        for fx in range(spec.fw):
                            ix = ox * s + fx - pad
                            if not 0 <= ix < w:
                                continue
                            # One coalesced warp load: 32*ipt consecutive
                            # N-elements of the (c, iy, ix) pixel row.
                            pixel = data[c, iy, ix, img0 : img0 + imgs]
                            taps = shared_filters[:, c, fy, fx]
                            # register-tile FMA: every filter reuses the
                            # loaded pixels, every image reuses the taps
                            acc += np.outer(taps, pixel)
                out[f0:f1, oy, ox, img0 : img0 + imgs] = acc.astype(_F)

    desc = spec.out_desc(CHWN)
    return Tensor4D(out, desc)


def register_tile_reuse(spec: ConvSpec, imgs_per_thread: int | None = None) -> float:
    """FMAs per load instruction inside the register tile.

    The quantity behind Fig. 4a: per inner step a thread issues
    ``imgs_per_thread`` pixel loads and ``filters_per_thread`` tap loads,
    then performs their full outer product of FMAs.  At N >= 128 (4 images
    per thread) each instruction feeds 2 FMAs; at N = 32 (one image) only
    0.8 — the reuse collapse that makes CHWN batch-sensitive.
    """
    warp = 32
    if imgs_per_thread is None:
        imgs_per_thread = max(1, min(4, spec.n // warp))
    filters_per_thread = 4
    fmas = filters_per_thread * imgs_per_thread
    loads = imgs_per_thread + filters_per_thread
    return fmas / loads
