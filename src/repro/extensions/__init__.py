"""Forward-looking extensions the paper's Section VII anticipates:
Winograd fast convolution (in ``repro.layers.winograd``) and FP16/Pascal
execution (here)."""

from .._lazy import lazy_exports

_EXPORTS = {
    "fp16": (
        "Fp16LayerComparison",
        "TESLA_P100",
        "as_fp16",
        "compare_layouts_fp16",
        "fp16_device",
        "memory_bound_share",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
