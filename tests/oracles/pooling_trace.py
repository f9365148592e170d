"""The NCHW pooling kernels' sampled load trace, materialized.

:class:`repro.layers.PoolingNCHWLinear` and
:class:`repro.layers.PoolingNCHWBlockPerRow` count their load transactions
directly, without building a trace.  :func:`reference_trace` builds the
trace those counts stand for, one window tap at a time, so the tests can
count it with :func:`repro.gpusim.analyze_warps` and replay it through the
L2 model.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from repro.gpusim import DeviceSpec, sample_indices
from repro.layers import PoolingNCHWBlockPerRow


def reference_trace(kernel, device: DeviceSpec) -> tuple[np.ndarray, int, int]:
    """(trace, grid warps, sampled warps) of an NCHW pooling kernel.

    The trace holds item indices, one row per (tap, warp) in tap-major
    order, with idle lanes at -1.
    """
    s = kernel.spec
    warp = device.warp_size
    plane = s.out_h * s.out_w
    padded = ceil(plane / warp) * warp
    rowblock = isinstance(kernel, PoolingNCHWBlockPerRow)
    threads = s.n * s.c * padded if rowblock else s.out_elements
    n_warps = ceil(threads / warp)
    sampled = sample_indices(n_warps, kernel.max_sample_warps)
    tid = sampled[:, None] * warp + np.arange(warp)
    if rowblock:
        fmap, pos, active = tid // padded, tid % padded, tid % padded < plane
    else:
        fmap, pos, active = tid // plane, tid % plane, tid < threads
    ho, wo = pos // s.out_w, pos % s.out_w
    rows = []
    for fy in range(s.window):
        for fx in range(s.window):
            hi = np.minimum(ho * s.stride + fy, s.h - 1)
            wi = np.minimum(wo * s.stride + fx, s.w - 1)
            rows.append(np.where(active, (fmap * s.h + hi) * s.w + wi, -1))
    return np.concatenate(rows), n_warps, len(sampled)
