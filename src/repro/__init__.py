"""repro — memory-efficiency optimizations for deep CNNs on GPUs.

A faithful reproduction of Li et al., *Optimizing Memory Efficiency for
Deep Convolutional Neural Networks on GPUs* (SC'16), built on a warp-level
GPU memory-hierarchy simulator:

* :mod:`repro.gpusim` — device specs, coalescing, L2, occupancy, timing;
* :mod:`repro.tensors` — 4-D layouts, layout-aware tensors, the fast
  transformation kernels (Fig. 7);
* :mod:`repro.layers` — conv/pool/softmax/FC layers, each with a numeric
  implementation and GPU kernel models per layout;
* :mod:`repro.core` — the paper's contribution: layout heuristic,
  calibration, network planner, pooling auto-tuner, softmax fusion;
* :mod:`repro.framework` — the Caffe-analog runtime with plan-driven
  execution;
* :mod:`repro.networks` — LeNet / CIFAR / AlexNet / ZFNet / VGG and the
  Table-1 layer zoo;
* :mod:`repro.baselines` — cuda-convnet / Caffe / cuDNN execution models
  and the ``Opt`` whole-network scheme (Fig. 14).

Quickstart::

    from repro import TITAN_BLACK, build_network, time_network
    net = build_network("alexnet")
    opt = time_network(net, TITAN_BLACK, "opt")
    mm = time_network(net, TITAN_BLACK, "cudnn-mm")
    print(f"Opt speedup over cuDNN-MM: {opt.speedup_over(mm):.2f}x")
"""

from ._lazy import lazy_exports

#: subpackage -> the public names it defines.  Resolved on first access
#: (PEP 562), so ``import repro.obs`` or ``import repro.cli`` pays only
#: for the submodules it actually uses.
_EXPORTS = {
    "baselines": ("SCHEMES", "NetworkTiming", "compare_schemes", "time_network"),
    "core": (
        "LayoutThresholds",
        "autotune_pooling",
        "calibrate",
        "fuse_softmax",
        "plan_optimal",
        "plan_single_layout",
        "plan_with_heuristic",
        "preferred_conv_layout",
        "preferred_pool_layout",
        "thresholds_for",
    ),
    "analysis": ("crossovers", "sweep_conv", "sweep_pool", "sweep_softmax"),
    "framework": (
        "Net",
        "NetworkDef",
        "Trainer",
        "format_netdef",
        "parse_netdef",
        "train",
    ),
    "gpusim": (
        "TITAN_BLACK",
        "TITAN_X",
        "DeviceSpec",
        "SimStats",
        "SimulationContext",
        "default_context",
        "get_device",
        "global_sim_stats",
    ),
    "layers": ("ConvSpec", "FCSpec", "PoolSpec", "SoftmaxSpec"),
    "networks": ("CONV_LAYERS", "POOL_LAYERS", "build_network"),
    "tensors": ("CHWN", "NCHW", "DataLayout", "Tensor4D", "TensorDesc", "transform"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
__all__ = ["__version__", *__all__]

__version__ = "1.0.0"
