"""The paper's contribution: layout heuristics, calibration, planning,
pooling auto-tuning, and softmax kernel fusion."""

from .._lazy import lazy_exports

_EXPORTS = {
    "autotune": ("TuneResult", "autotune_pooling"),
    "calibration": (
        "C_SWEEP",
        "CalibrationResult",
        "N_SWEEP",
        "REFERENCE_SHAPE",
        "SweepPoint",
        "calibrate",
    ),
    "fusion": ("FusionReport", "can_fuse_softmax", "fuse_softmax", "fusion_report"),
    "heuristic": (
        "LayoutThresholds",
        "PAPER_THRESHOLDS",
        "ThresholdMargins",
        "conv_threshold_margins",
        "explain_conv_choice",
        "is_threshold_ambiguous",
        "preferred_conv_layout",
        "preferred_pool_layout",
        "thresholds_for",
    ),
    "pipeline": (
        "PassContext",
        "PassManager",
        "PassTrace",
        "PipelineOptions",
        "PipelineResult",
        "default_passes",
        "plan_network",
        "run_pipeline",
    ),
    "planner": (
        "NodeKind",
        "plan_optimal",
        "plan_single_layout",
        "plan_with_heuristic",
    ),
    "selector": (
        "ConvChoice",
        "LAYOUT_IMPLEMENTATIONS",
        "POOL_LAYOUT_IMPLEMENTATIONS",
        "best_conv_for_layout",
        "cudnn_mode_conv",
        "try_conv_time",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
