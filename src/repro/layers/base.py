"""Layer specifications shared by numeric implementations and kernel models.

A *spec* is the pure geometry of a layer — the rows of the paper's Table 1.
Numeric layers and GPU kernel models both consume specs, so correctness
tests and performance benchmarks always agree on shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..tensors.layout import DataLayout, NCHW
from ..tensors.tensor import TensorDesc, require_int_fields


def conv_out_extent(extent: int, filt: int, stride: int, pad: int) -> int:
    """Output spatial extent of a convolution window sweep (floor mode)."""
    out = (extent + 2 * pad - filt) // stride + 1
    if out <= 0:
        raise ValueError(
            f"window {filt} with stride {stride} does not fit extent {extent} "
            f"(pad {pad})"
        )
    return out


def pool_out_extent(extent: int, window: int, stride: int) -> int:
    """Output extent of a pooling sweep (ceil mode, as in Caffe).

    Ceil mode lets the last window overhang and be clipped, which is what
    produces the paper's shape chains (e.g. ZFNet 110 -> 55 -> 26 -> 13).
    """
    if window > extent:
        raise ValueError(f"window {window} larger than extent {extent}")
    out = -(-(extent - window) // stride) + 1
    # The last window must start inside the input.
    while (out - 1) * stride >= extent:  # pragma: no cover - defensive
        out -= 1
    return out


@dataclass(frozen=True)
class ConvSpec:
    """Convolutional layer geometry (Equation 1 of the paper)."""

    n: int
    ci: int
    h: int
    w: int
    co: int
    fh: int
    fw: int
    stride: int = 1
    pad: int = 0
    #: channel groups (AlexNet's two-tower convolutions use groups=2);
    #: each group convolves ci/groups inputs into co/groups outputs
    groups: int = 1

    def __post_init__(self) -> None:
        require_int_fields(self)
        if min(self.n, self.ci, self.h, self.w, self.co, self.fh, self.fw) <= 0:
            raise ValueError("all convolution dimensions must be positive")
        if self.stride <= 0 or self.pad < 0:
            raise ValueError("stride must be positive and pad non-negative")
        if self.groups <= 0 or self.ci % self.groups or self.co % self.groups:
            raise ValueError(
                f"groups={self.groups} must divide ci={self.ci} and co={self.co}"
            )
        conv_out_extent(self.h, self.fh, self.stride, self.pad)
        conv_out_extent(self.w, self.fw, self.stride, self.pad)

    @property
    def out_h(self) -> int:
        return conv_out_extent(self.h, self.fh, self.stride, self.pad)

    @property
    def out_w(self) -> int:
        return conv_out_extent(self.w, self.fw, self.stride, self.pad)

    @property
    def flops(self) -> float:
        """Multiply-adds counted as 2 FLOPs, the GFLOPS convention of Fig. 4."""
        return (
            2.0 * self.n * self.co * self.out_h * self.out_w * self.taps
        )

    @property
    def taps(self) -> int:
        """Reduction length per output element (the GEMM K dimension)."""
        return (self.ci // self.groups) * self.fh * self.fw

    def group_spec(self) -> "ConvSpec":
        """The single-group convolution each group computes."""
        if self.groups == 1:
            return self
        return replace(
            self, ci=self.ci // self.groups, co=self.co // self.groups, groups=1
        )

    def in_desc(self, layout: DataLayout = NCHW) -> TensorDesc:
        return TensorDesc(self.n, self.ci, self.h, self.w, layout)

    def out_desc(self, layout: DataLayout = NCHW) -> TensorDesc:
        return TensorDesc(self.n, self.co, self.out_h, self.out_w, layout)

    @property
    def filter_bytes(self) -> int:
        return self.co * (self.ci // self.groups) * self.fh * self.fw * 4

    def with_batch(self, n: int) -> "ConvSpec":
        return replace(self, n=n)

    def with_channels(self, ci: int) -> "ConvSpec":
        return replace(self, ci=ci)


@dataclass(frozen=True)
class PoolSpec:
    """Pooling layer geometry (Equation 2).  Overlapped when window > stride."""

    n: int
    c: int
    h: int
    w: int
    window: int
    stride: int
    op: str = "max"

    def __post_init__(self) -> None:
        require_int_fields(self)
        if min(self.n, self.c, self.h, self.w, self.window, self.stride) <= 0:
            raise ValueError("all pooling dimensions must be positive")
        if self.op not in ("max", "avg"):
            raise ValueError(f"pooling op must be 'max' or 'avg', got {self.op!r}")
        pool_out_extent(self.h, self.window, self.stride)
        pool_out_extent(self.w, self.window, self.stride)

    @property
    def out_h(self) -> int:
        return pool_out_extent(self.h, self.window, self.stride)

    @property
    def out_w(self) -> int:
        return pool_out_extent(self.w, self.window, self.stride)

    @property
    def overlapped(self) -> bool:
        """True when successive windows share input elements (Fig. 8)."""
        return self.window > self.stride

    @property
    def out_elements(self) -> int:
        return self.n * self.c * self.out_h * self.out_w

    @property
    def flops(self) -> float:
        return float(self.out_elements * self.window * self.window)

    def in_desc(self, layout: DataLayout = NCHW) -> TensorDesc:
        return TensorDesc(self.n, self.c, self.h, self.w, layout)

    def out_desc(self, layout: DataLayout = NCHW) -> TensorDesc:
        return TensorDesc(self.n, self.c, self.out_h, self.out_w, layout)


@dataclass(frozen=True)
class SoftmaxSpec:
    """Classifier layer geometry: a batch of N probability rows over
    ``categories`` labels (the paper's CLASS1–CLASS5 configurations)."""

    n: int
    categories: int

    def __post_init__(self) -> None:
        require_int_fields(self)
        if self.n <= 0 or self.categories <= 0:
            raise ValueError("batch and category counts must be positive")

    @property
    def elements(self) -> int:
        return self.n * self.categories

    @property
    def nbytes(self) -> int:
        return self.elements * 4

    @property
    def flops(self) -> float:
        # max pass + subtract + exp(~4 flops) + sum + divide
        return float(self.elements * 8)


@dataclass(frozen=True)
class FCSpec:
    """Fully-connected layer: an (N x in) @ (in x out) matrix product."""

    n: int
    in_features: int
    out_features: int

    def __post_init__(self) -> None:
        require_int_fields(self)
        if min(self.n, self.in_features, self.out_features) <= 0:
            raise ValueError("all dimensions must be positive")

    @property
    def flops(self) -> float:
        return 2.0 * self.n * self.in_features * self.out_features
