"""Caffe-analog framework: network definitions, memory accounting, and
layout-plan-driven numeric execution."""

from .annotate import (
    LayerAnnotation,
    annotations_from_plan,
    format_annotated_netdef,
    parse_annotated_netdef,
)
from .memory import (
    MemoryFootprint,
    format_footprint,
    network_footprint,
    plan_within_memory,
)
from .net import Net
from .training import Trainer, TrainStep, train
from .netdef import (
    ConvDef,
    FCDef,
    LayerDef,
    LRNDef,
    NetworkDef,
    PoolDef,
    SoftmaxDef,
    format_netdef,
    parse_netdef,
)

__all__ = [
    "ConvDef",
    "LayerAnnotation",
    "MemoryFootprint",
    "annotations_from_plan",
    "format_annotated_netdef",
    "format_footprint",
    "network_footprint",
    "parse_annotated_netdef",
    "plan_within_memory",
    "FCDef",
    "LRNDef",
    "LayerDef",
    "Net",
    "NetworkDef",
    "PoolDef",
    "SoftmaxDef",
    "TrainStep",
    "Trainer",
    "format_netdef",
    "parse_netdef",
    "train",
]
