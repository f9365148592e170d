"""Caffe-analog framework: network definitions, memory accounting, and
layout-plan-driven numeric execution."""

from .._lazy import lazy_exports

_EXPORTS = {
    "annotate": (
        "LayerAnnotation",
        "annotations_from_plan",
        "format_annotated_netdef",
        "parse_annotated_netdef",
    ),
    "memory": (
        "MemoryFootprint",
        "format_footprint",
        "network_footprint",
        "plan_within_memory",
    ),
    "net": ("Net",),
    "training": ("Trainer", "TrainStep", "train"),
    "netdef": (
        "ConvDef",
        "FCDef",
        "LayerDef",
        "LRNDef",
        "NetworkDef",
        "PoolDef",
        "SoftmaxDef",
        "format_netdef",
        "parse_netdef",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
