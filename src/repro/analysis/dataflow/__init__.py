"""Dataflow verification layer over the network-graph IR.

Two analyses, each one sweep over the graph in topological order:
abstract shape/layout interpretation (:mod:`.interp`) and buffer-liveness
hazards (:mod:`.liveness`).  The ``D0xx`` rules of ``repro lint`` wrap
their checks; :mod:`.verify` runs those rules as :func:`verify_graph` /
:func:`verify_network`, surfaced on the CLI as ``repro verify`` and
between pipeline passes.  The peak-memory curve ``repro verify`` prints
is the last-use interval choice of the one footprint model in
``framework.memory``, re-exported here as :func:`liveness_footprint`.
"""

from ..._lazy import lazy_exports

_EXPORTS = {
    "interp": (
        "CONFLICT",
        "check_inverse_pairs",
        "check_layout_coherence",
        "check_shapes",
        "check_structure",
        "check_transform_annotations",
        "delivered_layouts",
    ),
    "liveness": ("check_double_counts", "check_liveness"),
    # the interval choice of the one footprint model (repro.framework.memory)
    "..framework.memory": ("BufferInterval", "buffer_intervals", "liveness_footprint"),
    "verify": ("verify_graph", "verify_network"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
