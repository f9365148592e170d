"""Layout-aware 4-D tensor substrate: layouts, tensors, and relayout kernels."""

from .._lazy import lazy_exports

_EXPORTS = {
    "layout": (
        "ALL_LAYOUTS",
        "CHWN",
        "HWCN",
        "NCHW",
        "NHWC",
        "DataLayout",
        "parse_layout",
    ),
    "tensor": ("Tensor4D", "TensorDesc", "make_input"),
    "relayout": (
        "TransformCost",
        "TransposeGroups",
        "relayout_linear_indices",
        "transform",
        "transform_cost",
        "transpose_groups",
    ),
    "transform_kernels": (
        "NaiveTransformKernel",
        "TiledTransformKernel",
        "VectorTransformKernel",
        "make_transform_kernel",
        "transform_stats",
        "transform_time_ms",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
