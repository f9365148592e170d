"""The network-graph IR: typed nodes with explicit producer/consumer edges.

The paper's framework integration (Section IV.D) is a sequence of
whole-network transformations — layout assignment, transform insertion,
transform fine-tuning, kernel fusion.  Each of those is naturally a *pass*
over one explicit graph representation of the network, the way a compiler
runs passes over its IR.  This module is that IR:

* :class:`GraphNode` — one layer with explicit ``inputs`` edges, resolved
  shape/spec annotations, and the layout/implementation/transform
  annotations the passes attach;
* :class:`Graph` — an insertion-ordered node set with topological
  iteration, producer/consumer queries, chain detection, and a JSON
  round-trip for tooling;
* :class:`EdgeTransform` — a layout transformation inserted on one
  producer→consumer edge (a chain node has at most one; a concat node may
  carry one per mismatched input).

The graph represents chains and branching (Inception/ResNet-style)
networks alike: a node may feed several consumers and a
:attr:`NodeKind.CONCAT` node joins several producers.
``repro.ir.build.lower_netdef`` builds it from a network definition and
``repro.core.pipeline`` runs the passes over it; the annotated graph is
the plan every consumer reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator

from ..tensors.layout import DataLayout

Dims = tuple[int, int, int, int]


class NodeKind(Enum):
    """What a graph node computes."""

    CONV = "conv"
    POOL = "pool"
    ELEMENTWISE = "elementwise"  # relu / lrn: layout-transparent
    CLASSIFIER = "classifier"  # fc / softmax: layout-irrelevant (flattened)
    CONCAT = "concat"  # channel-axis join of several producers

    @property
    def layout_bearing(self) -> bool:
        """Whether the node's own kernel cost depends on the storage layout."""
        return self in (NodeKind.CONV, NodeKind.POOL)

    @property
    def layout_agnostic(self) -> bool:
        """Whether the node streams bytes identically under any layout (and
        can therefore host or absorb a boundary transform for free)."""
        return self in (NodeKind.ELEMENTWISE, NodeKind.CONCAT)


@dataclass(frozen=True)
class EdgeTransform:
    """A layout transformation on one producer→consumer edge.

    ``src`` names the producer node ("" for the network input); the
    transform relayouts that producer's output from ``from_layout`` to
    ``to_layout`` before the owning node consumes it.
    """

    src: str
    from_layout: DataLayout
    to_layout: DataLayout
    ms: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "src": self.src,
            "from": str(self.from_layout),
            "to": str(self.to_layout),
            "ms": self.ms,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EdgeTransform":
        return cls(
            src=data["src"],
            from_layout=DataLayout(data["from"]),
            to_layout=DataLayout(data["to"]),
            ms=float(data["ms"]),
        )


@dataclass
class GraphNode:
    """One layer as the pass pipeline sees it.

    Construction needs only identity and wiring (``name``, ``kind``,
    ``inputs``, and optionally the source ``defn``); the passes fill in the
    rest — ``ResolveShapes`` the specs/dims/fixed costs, ``AssignLayouts``
    the layout, ``InsertTransforms`` the edge transforms, and
    ``SelectImplementations`` the implementation/time annotations.
    """

    name: str
    kind: NodeKind
    inputs: tuple[str, ...] = ()
    #: source layer definition, when lowered from a NetworkDef
    defn: object | None = None
    #: resolved kernel spec (ConvSpec | PoolSpec | SoftmaxSpec | ...)
    spec: object | None = None
    in_dims: Dims | None = None
    out_dims: Dims | None = None
    out_features: int | None = None
    #: per-layer time for kinds whose cost does not depend on layout
    fixed_ms: float = 0.0
    # -- pass annotations ---------------------------------------------------
    #: assigned storage layout (None until AssignLayouts; stays None for
    #: CLASSIFIER nodes, whose flattened data has no 4-D layout)
    layout: DataLayout | None = None
    implementation: str | None = None
    layer_ms: float = 0.0
    coarsening: tuple[int, int] | None = None
    #: layout transforms on this node's input edges
    transforms: tuple[EdgeTransform, ...] = ()

    @property
    def transform_ms(self) -> float:
        return sum(t.ms for t in self.transforms)

    @property
    def kernel_layout(self) -> DataLayout | None:
        """The layout this node's own kernel runs in: the assigned layout of
        a conv/pool node, None elsewhere (those kernels are
        layout-transparent).  Plan reports show this one."""
        return self.layout if self.kind.layout_bearing else None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable view (annotations included, specs by repr)."""
        return {
            "name": self.name,
            "kind": self.kind.value,
            "inputs": list(self.inputs),
            "in_dims": list(self.in_dims) if self.in_dims else None,
            "out_dims": list(self.out_dims) if self.out_dims else None,
            "out_features": self.out_features,
            "fixed_ms": self.fixed_ms,
            "layout": str(self.layout) if self.layout else None,
            "implementation": self.implementation,
            "layer_ms": self.layer_ms,
            "coarsening": list(self.coarsening) if self.coarsening else None,
            "transforms": [t.to_dict() for t in self.transforms],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GraphNode":
        return cls(
            name=data["name"],
            kind=NodeKind(data["kind"]),
            inputs=tuple(data.get("inputs", ())),
            in_dims=tuple(data["in_dims"]) if data.get("in_dims") else None,
            out_dims=tuple(data["out_dims"]) if data.get("out_dims") else None,
            out_features=data.get("out_features"),
            fixed_ms=float(data.get("fixed_ms", 0.0)),
            layout=DataLayout(data["layout"]) if data.get("layout") else None,
            implementation=data.get("implementation"),
            layer_ms=float(data.get("layer_ms", 0.0)),
            coarsening=tuple(data["coarsening"]) if data.get("coarsening") else None,
            transforms=tuple(
                EdgeTransform.from_dict(t) for t in data.get("transforms", ())
            ),
        )


class GraphError(ValueError):
    """The graph is structurally invalid (bad edge, cycle, duplicate)."""


@dataclass
class Graph:
    """A network as a DAG of :class:`GraphNode`, plus the input geometry."""

    name: str
    batch: int = 0
    in_channels: int = 0
    in_h: int = 0
    in_w: int = 0
    nodes: dict[str, GraphNode] = field(default_factory=dict)

    @property
    def in_dims(self) -> Dims:
        return (self.batch, self.in_channels, self.in_h, self.in_w)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def __getitem__(self, name: str) -> GraphNode:
        return self.nodes[name]

    def add(self, node: GraphNode) -> GraphNode:
        """Append a node; its inputs must reference already-added nodes."""
        if node.name in self.nodes:
            raise GraphError(f"duplicate node name {node.name!r}")
        for src in node.inputs:
            if src not in self.nodes:
                raise GraphError(
                    f"{node.name}: input {src!r} is not a node added before it"
                )
        self.nodes[node.name] = node
        return node

    def producers(self, name: str) -> tuple[GraphNode, ...]:
        return tuple(self.nodes[src] for src in self.nodes[name].inputs)

    def consumers(self, name: str) -> tuple[GraphNode, ...]:
        return tuple(n for n in self.nodes.values() if name in n.inputs)

    def topological(self) -> tuple[GraphNode, ...]:
        """Nodes in dependency order (insertion order is one by
        construction, since ``add`` rejects forward references)."""
        return tuple(self.nodes.values())

    def __iter__(self) -> Iterator[GraphNode]:
        return iter(self.topological())

    def transform_dims(self, node: GraphNode, transform: EdgeTransform) -> Dims | None:
        """Dims of the tensor ``transform`` relays into ``node``: its
        producer's output (one branch of a concat, not the joined tensor),
        or ``node``'s input when the edge comes from the network input."""
        if transform.src in self.nodes:
            return self.nodes[transform.src].out_dims
        return node.in_dims

    def is_chain(self) -> bool:
        """True when every node feeds exactly the next one — the shape the
        training backprop chain (``framework.training``) requires."""
        order = self.topological()
        for i, node in enumerate(order):
            expected = (order[i - 1].name,) if i else ()
            if node.inputs != expected and not (i == 0 and not node.inputs):
                return False
        return True

    def validate(self) -> None:
        """Check structural invariants beyond what ``add`` enforces."""
        for node in self.nodes.values():
            if node.kind is NodeKind.CONCAT and len(node.inputs) < 2:
                raise GraphError(
                    f"{node.name}: concat needs at least two inputs, "
                    f"got {len(node.inputs)}"
                )
            seen: set[str] = set()
            for src in node.inputs:
                if src in seen:
                    raise GraphError(f"{node.name}: duplicate input {src!r}")
                seen.add(src)

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "input": {
                "batch": self.batch,
                "channels": self.in_channels,
                "h": self.in_h,
                "w": self.in_w,
            },
            "nodes": [n.to_dict() for n in self.topological()],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Graph":
        inp = data.get("input", {})
        graph = cls(
            name=data["name"],
            batch=int(inp.get("batch", 0)),
            in_channels=int(inp.get("channels", 0)),
            in_h=int(inp.get("h", 0)),
            in_w=int(inp.get("w", 0)),
        )
        for node_data in data.get("nodes", ()):
            graph.add(GraphNode.from_dict(node_data))
        return graph

    def summary(self) -> str:
        lines = [f"graph {self.name}: {len(self.nodes)} nodes"]
        for node in self.topological():
            layout = str(node.layout) if node.layout else "-"
            wires = ",".join(node.inputs) or "(input)"
            lines.append(
                f"  {node.name:14s} {node.kind.value:12s} {layout:5s} <- {wires}"
            )
        return "\n".join(lines)
