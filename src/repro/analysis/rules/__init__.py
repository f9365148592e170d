"""Rule catalog for the static analyzer.

Reading :data:`REGISTRY` imports every built-in rule module:
``N0xx`` network-definition checks, ``L0xx`` layout-plan checks, ``K0xx``
kernel/device-limit checks, and ``D0xx`` graph-dataflow checks.
"""

from ..._lazy import lazy_exports

_EXPORTS = {
    "base": (
        "Diagnostic",
        "Finding",
        "GraphScope",
        "KernelScope",
        "NetdefScope",
        "PlanScope",
        "REGISTRY",
        "Rule",
        "Severity",
        "rule",
        "rules_for",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
