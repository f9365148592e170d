"""Numeric convolution: direct, im2col+GEMM, and FFT implementations.

These are the exact (NumPy) counterparts of the three GPU strategies the
paper compares — cuda-convnet's direct convolution, Caffe/cuDNN's matrix
multiplication after an im2col unroll, and cuDNN v4's FFT modes.  All three
compute Equation 1 (a cross-correlation, as usual in CNNs) and are
cross-validated by the property-based tests.

All functions take/return *logical* (N, C, H, W) arrays; the layout-aware
entry point :func:`conv_forward` accepts a :class:`~repro.tensors.Tensor4D`
in any storage layout.
"""

from __future__ import annotations

import numpy as np

from ..tensors.layout import DataLayout
from ..tensors.tensor import Tensor4D
from .base import ConvSpec

_F = np.float32


def _check_shapes(x: np.ndarray, weights: np.ndarray, spec: ConvSpec) -> None:
    expect_x = (spec.n, spec.ci, spec.h, spec.w)
    expect_w = (spec.co, spec.ci // spec.groups, spec.fh, spec.fw)
    if x.shape != expect_x:
        raise ValueError(f"input shape {x.shape} != spec {expect_x}")
    if weights.shape != expect_w:
        raise ValueError(f"filter shape {weights.shape} != spec {expect_w}")


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))


def grouped(conv_fn):
    """Wrap a single-group convolution so it handles grouped specs: each
    group convolves its channel slice independently (AlexNet's two-tower
    structure)."""

    def wrapper(x: np.ndarray, weights: np.ndarray, spec: ConvSpec) -> np.ndarray:
        if spec.groups == 1:
            return conv_fn(x, weights, spec)
        _check_shapes(np.asarray(x), np.asarray(weights), spec)
        g = spec.groups
        sub = spec.group_spec()
        ci_g, co_g = spec.ci // g, spec.co // g
        outs = [
            conv_fn(
                np.ascontiguousarray(x[:, k * ci_g : (k + 1) * ci_g]),
                np.ascontiguousarray(weights[k * co_g : (k + 1) * co_g]),
                sub,
            )
            for k in range(g)
        ]
        return np.concatenate(outs, axis=1)

    wrapper.__name__ = f"grouped_{conv_fn.__name__}"
    return wrapper


def _conv_direct_one_group(x: np.ndarray, weights: np.ndarray, spec: ConvSpec) -> np.ndarray:
    _check_shapes(x, weights, spec)
    xp = _pad(np.asarray(x, dtype=_F), spec.pad)
    ho, wo, s = spec.out_h, spec.out_w, spec.stride
    out = np.zeros((spec.n, spec.co, ho, wo), dtype=_F)
    for fh in range(spec.fh):
        for fw in range(spec.fw):
            patch = xp[:, :, fh : fh + (ho - 1) * s + 1 : s, fw : fw + (wo - 1) * s + 1 : s]
            out += np.einsum(
                "nchw,oc->nohw", patch, weights[:, :, fh, fw], optimize=True
            ).astype(_F)
    return out


conv_direct = grouped(_conv_direct_one_group)
conv_direct.__doc__ = """Direct convolution: accumulate one filter tap at a time.

Mirrors the structure of the cuda-convnet kernel (each tap is one pass
over a shifted input window) while staying fully vectorized.  Grouped
specs run one slice per group.
"""


def im2col(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Unroll input patches into a ``(N, Ci*Fh*Fw, Ho*Wo)`` matrix.

    This is the "matrix unroll step (along H and W)" the paper identifies as
    the NCHW path's overhead at small C.
    """
    xp = _pad(np.asarray(x, dtype=_F), spec.pad)
    ho, wo, s = spec.out_h, spec.out_w, spec.stride
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, (spec.fh, spec.fw), axis=(2, 3)
    )  # (N, Ci, Hp-fh+1, Wp-fw+1, fh, fw)
    windows = windows[:, :, ::s, ::s][:, :, :ho, :wo]
    # (N, Ci, fh, fw, Ho, Wo) -> (N, Ci*fh*fw, Ho*Wo)
    cols = windows.transpose(0, 1, 4, 5, 2, 3).reshape(
        spec.n, spec.ci * spec.fh * spec.fw, ho * wo
    )
    return np.ascontiguousarray(cols)


def _conv_im2col_one_group(x: np.ndarray, weights: np.ndarray, spec: ConvSpec) -> np.ndarray:
    _check_shapes(x, weights, spec)
    cols = im2col(x, spec)  # (N, K, Ho*Wo)
    wmat = weights.reshape(spec.co, spec.taps)  # (Co, K)
    out = np.einsum("ok,nkp->nop", wmat, cols, optimize=True)
    return out.reshape(spec.n, spec.co, spec.out_h, spec.out_w).astype(_F)


conv_im2col = grouped(_conv_im2col_one_group)
conv_im2col.__doc__ = """im2col + GEMM convolution (the Caffe/cuDNN-MM strategy)."""


def _conv_fft_one_group(x: np.ndarray, weights: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """FFT convolution: pointwise product in the frequency domain.

    Requires unit stride, like the cuDNN FFT algorithm (see
    ``repro.layers.conv_kernels.FFTUnsupportedError``).  Filters are padded
    to the input size — the memory overhead the paper highlights.
    """
    from scipy import fft as sfft  # the only SciPy user; kept off start-up

    _check_shapes(x, weights, spec)
    if spec.stride != 1:
        raise ValueError("FFT convolution requires stride 1")
    xp = _pad(np.asarray(x, dtype=np.float64), spec.pad)
    hp, wp = xp.shape[2], xp.shape[3]
    fft_h = sfft.next_fast_len(hp)
    fft_w = sfft.next_fast_len(wp)
    xf = sfft.rfft2(xp, s=(fft_h, fft_w))  # (N, Ci, fh?, ...)
    wf = sfft.rfft2(weights.astype(np.float64), s=(fft_h, fft_w))
    # Cross-correlation = convolution with the conjugate spectrum.
    prod = np.einsum("ncij,ocij->noij", xf, np.conj(wf), optimize=True)
    full = sfft.irfft2(prod, s=(fft_h, fft_w))
    # Valid cross-correlation region starts at (0, 0); frequency-domain
    # conjugation shifts the kernel anchor, so no offset is needed.
    out = full[:, :, : spec.out_h, : spec.out_w]
    return np.ascontiguousarray(out, dtype=_F)


conv_fft = grouped(_conv_fft_one_group)
conv_fft.__doc__ = _conv_fft_one_group.__doc__


def _conv_winograd_lazy(x, weights, spec):
    from .winograd import conv_winograd

    return conv_winograd(x, weights, spec)


_IMPLEMENTATIONS = {
    "direct": conv_direct,
    "im2col": conv_im2col,
    "fft": conv_fft,
    "winograd": _conv_winograd_lazy,
}


def conv_forward(
    x: Tensor4D,
    weights: np.ndarray,
    spec: ConvSpec,
    implementation: str = "direct",
    out_layout: DataLayout | None = None,
) -> Tensor4D:
    """Layout-aware convolution on a :class:`Tensor4D`.

    The output is stored in ``out_layout`` (defaults to the input's layout),
    so chains of layers keep their data in the planner-chosen layout exactly
    as the integrated framework does.
    """
    try:
        impl = _IMPLEMENTATIONS[implementation]
    except KeyError:
        raise ValueError(
            f"unknown convolution implementation {implementation!r}; "
            f"choose from {sorted(_IMPLEMENTATIONS)}"
        ) from None
    out = impl(x.as_nchw(), np.asarray(weights, dtype=_F), spec)
    return Tensor4D.from_nchw(out, out_layout or x.layout)


def make_filters(spec: ConvSpec, seed: int = 1) -> np.ndarray:
    """Seeded Gaussian filters shaped (Co, Ci/groups, Fh, Fw)."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(spec.taps)
    shape = (spec.co, spec.ci // spec.groups, spec.fh, spec.fw)
    return (rng.standard_normal(shape) * scale).astype(_F)
