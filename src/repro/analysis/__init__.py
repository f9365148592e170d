"""Analysis tools: Fig. 4-style sensitivity sweeps, gain attribution, the
``repro lint`` static analyzer for netdefs, layout plans, kernels and
graphs, and the ``repro verify`` dataflow verification layer."""

from .._lazy import lazy_exports

_EXPORTS = {
    "attribution": ("GainAttribution", "attribute_gains"),
    "dataflow.verify": ("verify_graph", "verify_network"),
    # the interval choice of the one footprint model (repro.framework.memory)
    ".framework.memory": ("BufferInterval", "buffer_intervals", "liveness_footprint"),
    "lint": (
        "DEFAULT_CONFIG",
        "LintConfig",
        "LintReport",
        "UnknownRuleError",
        "iter_rules",
        "lint_kernel",
        "lint_netdef",
        "lint_netdef_text",
        "lint_network",
        "lint_plan",
    ),
    "rules.base": ("REGISTRY", "Diagnostic", "Finding", "GraphScope", "Rule", "Severity"),
    "sweeps": (
        "SweepPoint",
        "SweepResult",
        "crossovers",
        "sweep_conv",
        "sweep_pool",
        "sweep_softmax",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
