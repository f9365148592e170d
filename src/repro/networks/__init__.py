"""Benchmark networks and the paper's Table-1 layer configurations."""

from .._lazy import lazy_exports

_EXPORTS = {
    "definitions": (
        "NETWORK_BUILDERS",
        "alexnet",
        "build_network",
        "cifar",
        "inception",
        "lenet",
        "vgg",
        "zfnet",
    ),
    "table1": (
        "ALEXNET_CONV",
        "ALEXNET_POOL",
        "CLASS_LAYERS",
        "CONV_LAYERS",
        "FIG13_SOFTMAX",
        "POOL_LAYERS",
        "conv_layer",
        "pool_layer",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
