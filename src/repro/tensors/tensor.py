"""Layout-aware 4-D tensors backed by NumPy.

:class:`TensorDesc` is the shape/layout metadata the planner and kernel
models work with; :class:`Tensor4D` adds actual data for the numeric layer
implementations.  Data is always stored *physically* in the tensor's layout
order (C-contiguous in that order), so converting between layouts really
moves memory — the numeric twin of the paper's transformation kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache

import numpy as np

from .layout import CHWN, NCHW, DataLayout

_FLOAT = np.float32


@cache
def _int_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.type in ("int", int))


def require_int_fields(spec: object) -> None:
    """Raise ``TypeError`` naming the first ``int`` field of the dataclass
    ``spec`` that holds no ``int``.

    A float, a ``bool`` or a NumPy integer is refused even when it equals
    an int: it would describe the spec differently in a structural cache
    key, and equal specs share one key text.
    """
    for name in _int_fields(type(spec)):
        value = getattr(spec, name)
        if type(value) is not int:
            raise TypeError(
                f"{type(spec).__name__}.{name} must be an int, "
                f"not {type(value).__name__} {value!r}"
            )


@dataclass(frozen=True)
class TensorDesc:
    """Logical shape (N, C, H, W) plus storage layout."""

    n: int
    c: int
    h: int
    w: int
    layout: DataLayout = NCHW
    itemsize: int = 4

    def __post_init__(self) -> None:
        require_int_fields(self)
        if min(self.n, self.c, self.h, self.w) <= 0:
            raise ValueError(f"tensor dims must be positive, got {self.dims}")

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """Logical extents in canonical (N, C, H, W) order."""
        return (self.n, self.c, self.h, self.w)

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.n * self.c * self.h * self.w

    @property
    def nbytes(self) -> int:
        return self.size * self.itemsize

    @property
    def physical_shape(self) -> tuple[int, int, int, int]:
        return self.layout.shape_of(*self.dims)

    def stride_bytes(self, axis: str) -> int:
        """Byte stride along a logical axis."""
        return self.layout.strides_of(*self.dims, itemsize=self.itemsize)[axis]

    def with_layout(self, layout: DataLayout) -> "TensorDesc":
        return TensorDesc(self.n, self.c, self.h, self.w, layout, self.itemsize)

    def address_of(self, n: int, c: int, h: int, w: int, base: int = 0) -> int:
        """Byte address of a logical element (for the traced kernel models)."""
        return base + self.itemsize * self.layout.linear_index(n, c, h, w, self.dims)


class Tensor4D:
    """A 4-D float32 tensor stored physically in a chosen layout.

    The canonical *logical* view is always (N, C, H, W); ``to_layout``
    produces a new tensor whose backing array is contiguous in the target
    layout, mirroring what the paper's transformation kernels do on the GPU.
    """

    def __init__(self, data: np.ndarray, desc: TensorDesc) -> None:
        data = np.ascontiguousarray(data, dtype=_FLOAT)
        if data.shape != desc.physical_shape:
            raise ValueError(
                f"data shape {data.shape} does not match layout "
                f"{desc.layout} physical shape {desc.physical_shape}"
            )
        self.data = data
        self.desc = desc

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_nchw(cls, array: np.ndarray, layout: DataLayout = NCHW) -> "Tensor4D":
        """Build from a logical (N, C, H, W) array, storing it in ``layout``."""
        array = np.asarray(array, dtype=_FLOAT)
        if array.ndim != 4:
            raise ValueError(f"expected a 4-D array, got ndim={array.ndim}")
        n, c, h, w = array.shape
        desc = TensorDesc(n, c, h, w, layout)
        physical = array.transpose(layout.permutation_from(NCHW))
        return cls(np.ascontiguousarray(physical), desc)

    @classmethod
    def zeros(cls, desc: TensorDesc) -> "Tensor4D":
        return cls(np.zeros(desc.physical_shape, dtype=_FLOAT), desc)

    @classmethod
    def random(cls, desc: TensorDesc, seed: int = 0) -> "Tensor4D":
        rng = np.random.default_rng(seed)
        return cls(
            rng.standard_normal(desc.physical_shape, dtype=_FLOAT), desc
        )

    # -- views and conversions -------------------------------------------
    @property
    def layout(self) -> DataLayout:
        return self.desc.layout

    def as_nchw(self) -> np.ndarray:
        """Logical (N, C, H, W) view of the data (no copy when possible)."""
        return self.data.transpose(NCHW.permutation_from(self.layout))

    def to_layout(self, layout: DataLayout) -> "Tensor4D":
        """Relayout into ``layout`` (copies unless already there)."""
        if layout == self.layout:
            return self
        perm = layout.permutation_from(self.layout)
        physical = np.ascontiguousarray(self.data.transpose(perm))
        return Tensor4D(physical, self.desc.with_layout(layout))

    def allclose(self, other: "Tensor4D", rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        """Logical equality regardless of storage layout."""
        return bool(
            self.desc.dims == other.desc.dims
            and np.allclose(self.as_nchw(), other.as_nchw(), rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        n, c, h, w = self.desc.dims
        return f"Tensor4D(N={n}, C={c}, H={h}, W={w}, layout={self.layout})"


def make_input(
    n: int, c: int, h: int, w: int, layout: DataLayout = CHWN, seed: int = 0
) -> Tensor4D:
    """Synthetic input tensor with the paper's Table-1 shapes.

    Memory behaviour depends only on shape and layout, so seeded Gaussian
    noise stands in for the image datasets (see DESIGN.md substitutions).
    """
    return Tensor4D.random(TensorDesc(n, c, h, w, layout), seed=seed)
