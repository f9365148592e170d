"""Execution models of the baseline libraries (cuda-convnet, Caffe, cuDNN)
and the paper's optimized framework, as whole-network schemes."""

from .._lazy import lazy_exports

_EXPORTS = {
    "names": ("SCHEMES",),
    "schemes": ("LayerTiming", "NetworkTiming", "compare_schemes", "time_network"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
