"""repro.ir — the typed network-graph IR the pass pipeline runs over.

``repro.ir.graph`` defines the data model (:class:`Graph`,
:class:`GraphNode`, :class:`EdgeTransform`, :class:`NodeKind`);
``repro.ir.build`` lowers :class:`~repro.framework.netdef.NetworkDef` into
it.  See docs/ARCHITECTURE.md.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "graph": ("Dims", "EdgeTransform", "Graph", "GraphError", "GraphNode", "NodeKind"),
    "build": ("infer_shapes", "lower_netdef"),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
