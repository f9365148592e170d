"""repro.ir — the typed network-graph IR the pass pipeline runs over.

``repro.ir.graph`` defines the data model (:class:`Graph`,
:class:`GraphNode`, :class:`EdgeTransform`, :class:`NodeKind`);
``repro.ir.build`` lowers :class:`~repro.framework.netdef.NetworkDef` into
it.  See docs/ARCHITECTURE.md.
"""

from .graph import (
    Dims,
    EdgeTransform,
    Graph,
    GraphError,
    GraphNode,
    NodeKind,
)
from .build import infer_shapes, lower_netdef

__all__ = [
    "Dims",
    "EdgeTransform",
    "Graph",
    "GraphError",
    "GraphNode",
    "NodeKind",
    "infer_shapes",
    "lower_netdef",
]
