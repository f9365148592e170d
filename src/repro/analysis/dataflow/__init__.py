"""Dataflow verification layer over the network-graph IR.

A generic worklist framework (:mod:`.framework`) and three analyses built
on it: abstract shape/layout interpretation (:mod:`.interp`), buffer
liveness with the interval-based peak-memory model (:mod:`.liveness`),
and the pass-contract invariants (:mod:`.contracts`).  :mod:`.verify`
exposes them as :func:`verify_graph` / :func:`verify_network`, surfaced
on the CLI as ``repro verify`` and as the ``D0xx`` rules of
``repro lint``.
"""

from ..._lazy import lazy_exports

_EXPORTS = {
    "contracts": (
        "CONTRACTS",
        "Contract",
        "ContractViolation",
        "check_contracts",
        "contract",
    ),
    "framework": (
        "ConvergenceError",
        "DataflowAnalysis",
        "DataflowResult",
        "run_analysis",
    ),
    "interp": (
        "CONFLICT",
        "LayoutPropagation",
        "check_inverse_pairs",
        "check_layout_coherence",
        "check_shapes",
        "check_structure",
        "check_transform_annotations",
        "propagate_layouts",
    ),
    "liveness": (
        "BufferInterval",
        "LivenessAnalysis",
        "LivenessFootprint",
        "buffer_intervals",
        "check_double_counts",
        "check_liveness",
        "liveness_footprint",
    ),
    "verify": ("verify_graph", "verify_network"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
