"""Synthetic dataset substitutes for MNIST / CIFAR (see DESIGN.md)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "synthetic": ("Dataset", "batches", "synthetic_digits", "synthetic_objects"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
