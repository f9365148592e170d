"""Abstract shape/layout interpretation over the graph IR.

The pass pipeline annotates every node with shapes, a layout, and the
edge transforms that reconcile disagreeing layouts.  These checks *prove*
the annotations consistent by abstract interpretation: a forward dataflow
propagates the layout each producer actually delivers (carried through
classifiers the same way ``core.pipeline.InsertTransforms`` carries it),
and every node's annotations are compared against the facts arriving on
its real edges.  These checks run on arbitrary DAGs and are shared by the
``D0xx`` lint rules, :func:`~repro.analysis.dataflow.verify.verify_graph`,
and the pass-contract verifier.

Check functions return :class:`~repro.analysis.rules.base.Finding` records
(the rule registry stamps IDs/severities onto them) and never raise on
malformed graphs — a verifier that crashes on the graphs it exists to
reject is useless.
"""

from __future__ import annotations

from typing import Iterator

from ...ir.graph import Dims, Graph, GraphNode, NodeKind
from ...layers.base import ConvSpec, FCSpec, PoolSpec
from ...tensors.layout import DataLayout
from ..rules.base import Finding
from .framework import DataflowAnalysis, DataflowResult, run_analysis

#: lattice top/conflict sentinel for the layout domain
CONFLICT = DataLayout.__new__(DataLayout)
object.__setattr__(CONFLICT, "order", "????")

LayoutFact = DataLayout | None  # None = unknown / not yet assigned


class LayoutPropagation(DataflowAnalysis[LayoutFact]):
    """Forward analysis: the effective storage layout each node delivers.

    Classifier nodes flatten the data and never change the carried
    layout; every other node delivers its assigned ``layout``.  An edge
    transform rewrites the fact on that edge alone.  Facts that disagree
    at a join become :data:`CONFLICT`.
    """

    name = "layout-propagation"
    direction = "forward"

    def boundary(self, graph: Graph) -> LayoutFact:
        return None

    def join(self, a: LayoutFact, b: LayoutFact) -> LayoutFact:
        if a is None:
            return b
        if b is None or a == b:
            return a
        return CONFLICT

    def transfer(self, graph: Graph, node: GraphNode, fact: LayoutFact) -> LayoutFact:
        if node.kind is NodeKind.CLASSIFIER:
            return fact
        return node.layout if node.layout is not None else fact

    def edge_transfer(
        self, graph: Graph, producer: GraphNode, consumer: GraphNode, fact: LayoutFact
    ) -> LayoutFact:
        for t in consumer.transforms:
            if t.src == producer.name:
                return t.to_layout
        return fact


def propagate_layouts(graph: Graph) -> DataflowResult[LayoutFact]:
    """Run the layout propagation to fixpoint."""
    return run_analysis(graph, LayoutPropagation())


def _arriving_layout(
    result: DataflowResult[LayoutFact], producer: GraphNode, consumer: GraphNode
) -> LayoutFact:
    """Layout delivered on one edge: producer's effective out fact, after
    the edge's transform (if any)."""
    return result.fact_on_edge(producer.name, consumer.name)


# ---------------------------------------------------------------------------
# structural checks (no dataflow needed, but every analysis assumes them)
# ---------------------------------------------------------------------------


def check_structure(graph: Graph) -> Iterator[Finding]:
    """Dangling edges and malformed annotations.

    ``Graph.add`` enforces these at construction, but passes mutate nodes
    in place and serialized graphs can be edited — the verifier re-proves
    them instead of trusting them.  Schedule-order violations and
    duplicate edges are liveness hazards and live in
    :mod:`~repro.analysis.dataflow.liveness` (D006/D007).
    """
    for node in graph.topological():
        for src in node.inputs:
            if src not in graph.nodes:
                yield Finding(
                    node.name,
                    f"input edge references {src!r}, which is not a node in "
                    f"the graph",
                    {"edge": src, "kind": "dangling"},
                )
        if node.kind is NodeKind.CONCAT and len(node.inputs) < 2:
            yield Finding(
                node.name,
                f"concat has {len(node.inputs)} input(s); needs at least two",
                {"kind": "arity", "inputs": list(node.inputs)},
            )
        for t in node.transforms:
            if t.src not in node.inputs and not (t.src == "" and not node.inputs):
                yield Finding(
                    node.name,
                    f"transform annotation names source {t.src!r}, which is "
                    f"not one of the node's inputs {list(node.inputs)}",
                    {"edge": t.src, "kind": "transform-dangling"},
                )


def _structurally_sound(graph: Graph) -> bool:
    return next(iter(check_structure(graph)), None) is None


# ---------------------------------------------------------------------------
# abstract shape interpretation
# ---------------------------------------------------------------------------


def _expected_out_dims(node: GraphNode) -> Dims | None:
    """Output dims implied by the node's spec, when computable."""
    spec = node.spec
    if node.kind is NodeKind.CONV and isinstance(spec, ConvSpec):
        return (spec.n, spec.co, spec.out_h, spec.out_w)
    if node.kind is NodeKind.POOL and isinstance(spec, PoolSpec):
        return (spec.n, spec.c, spec.out_h, spec.out_w)
    return None


def _spec_in_dims(node: GraphNode) -> Dims | None:
    """Input dims implied by the node's spec, when computable."""
    spec = node.spec
    if node.kind is NodeKind.CONV and isinstance(spec, ConvSpec):
        return (spec.n, spec.ci, spec.h, spec.w)
    if node.kind is NodeKind.POOL and isinstance(spec, PoolSpec):
        return (spec.n, spec.c, spec.h, spec.w)
    return None


def check_shapes(graph: Graph) -> Iterator[Finding]:
    """Shape facts along every edge must agree with the node annotations.

    Propagates the producers' ``out_dims`` facts and compares them with
    each consumer's ``in_dims``/spec geometry; concat is the join point
    (same N/H/W, channels sum).  Nothing is reported for edges whose
    facts are still unresolved — unresolved is not inconsistent.
    """
    if not _structurally_sound(graph):
        return  # structural findings already explain everything downstream
    for node in graph.topological():
        producers = [graph[s] for s in node.inputs]
        spec_in = _spec_in_dims(node)
        if spec_in is not None and node.in_dims is not None and spec_in != node.in_dims:
            yield Finding(
                node.name,
                f"spec expects input dims {spec_in} but the node is "
                f"annotated with in_dims {node.in_dims}",
                {"spec": list(spec_in), "annotated": list(node.in_dims)},
            )
        spec_out = _expected_out_dims(node)
        if (
            spec_out is not None
            and node.out_dims is not None
            and spec_out != node.out_dims
        ):
            yield Finding(
                node.name,
                f"spec produces dims {spec_out} but the node is annotated "
                f"with out_dims {node.out_dims}",
                {"spec": list(spec_out), "annotated": list(node.out_dims)},
            )
        if node.kind is NodeKind.CONCAT:
            shapes = [p.out_dims for p in producers]
            known = [s for s in shapes if s is not None]
            if not known:
                continue
            base = known[0]
            for producer, dims in zip(producers, shapes):
                if dims is None:
                    continue
                if (dims[0], dims[2], dims[3]) != (base[0], base[2], base[3]):
                    yield Finding(
                        node.name,
                        f"concat input {producer.name!r} delivers "
                        f"{dims[0]}x{dims[2]}x{dims[3]} (NxHxW), expected "
                        f"{base[0]}x{base[2]}x{base[3]}",
                        {"edge": producer.name, "dims": list(dims)},
                    )
            if len(known) == len(shapes) and node.out_dims is not None:
                joined = (base[0], sum(s[1] for s in known), base[2], base[3])
                if joined != node.out_dims:
                    yield Finding(
                        node.name,
                        f"concat inputs join to {joined} but the node is "
                        f"annotated with out_dims {node.out_dims}",
                        {"joined": list(joined), "annotated": list(node.out_dims)},
                    )
            continue
        if node.kind is NodeKind.CLASSIFIER:
            if isinstance(node.spec, FCSpec) and producers:
                dims = producers[0].out_dims
                if dims is not None:
                    features = dims[1] * dims[2] * dims[3]
                    if features != node.spec.in_features:
                        yield Finding(
                            node.name,
                            f"FC expects {node.spec.in_features} input "
                            f"features but producer {producers[0].name!r} "
                            f"delivers {features}",
                            {
                                "edge": producers[0].name,
                                "expected": node.spec.in_features,
                                "delivered": features,
                            },
                        )
            continue
        # conv / pool / elementwise: a single 4-D input edge
        arriving: Dims | None
        if producers:
            arriving = producers[0].out_dims
            edge = producers[0].name
        else:
            arriving = graph.in_dims if any(graph.in_dims) else None
            edge = ""
        if arriving is not None and node.in_dims is not None and arriving != node.in_dims:
            yield Finding(
                node.name,
                f"input from {edge or 'the network input'} delivers dims "
                f"{arriving} but the node expects in_dims {node.in_dims}",
                {"edge": edge, "delivered": list(arriving), "expected": list(node.in_dims)},
            )


# ---------------------------------------------------------------------------
# layout coherence
# ---------------------------------------------------------------------------


def check_layout_coherence(graph: Graph) -> Iterator[Finding]:
    """Every consumed layout must be produced: the layout arriving on each
    edge (after its transform, if any) must equal the consumer's layout."""
    if not _structurally_sound(graph):
        return
    result = propagate_layouts(graph)
    for node in graph.topological():
        if node.kind is NodeKind.CLASSIFIER or node.layout is None:
            continue  # flattened data / unassigned: nothing to check yet
        for producer in graph.producers(node.name):
            arriving = _arriving_layout(result, producer, node)
            if arriving is None:
                continue
            if arriving is CONFLICT:
                yield Finding(
                    node.name,
                    f"input from {producer.name!r} arrives with conflicting "
                    f"layout facts (its own producers disagree)",
                    {"edge": producer.name},
                )
            elif arriving != node.layout:
                yield Finding(
                    node.name,
                    f"input from {producer.name!r} arrives in {arriving} but "
                    f"the node runs in {node.layout} with no transform on "
                    f"the edge",
                    {
                        "edge": producer.name,
                        "arriving": str(arriving),
                        "consumer": str(node.layout),
                    },
                )


def check_transform_annotations(graph: Graph) -> Iterator[Finding]:
    """Each edge transform's endpoints must match the dataflow facts: its
    source layout is what the producer actually delivers, its target is
    what the consumer runs in."""
    if not _structurally_sound(graph):
        return
    result = propagate_layouts(graph)
    for node in graph.topological():
        for t in node.transforms:
            if t.src not in graph.nodes:
                continue  # structural check reports dangling sources
            delivered = result.out_facts.get(t.src)
            if (
                delivered is not None
                and delivered is not CONFLICT
                and delivered != t.from_layout
            ):
                yield Finding(
                    node.name,
                    f"transform on the edge from {t.src!r} reads "
                    f"{t.from_layout} but the producer delivers {delivered}",
                    {
                        "edge": t.src,
                        "transform_source": str(t.from_layout),
                        "producer": str(delivered),
                    },
                )
            if (
                node.layout is not None
                and node.kind is not NodeKind.CLASSIFIER
                and t.to_layout != node.layout
            ):
                yield Finding(
                    node.name,
                    f"transform on the edge from {t.src!r} produces "
                    f"{t.to_layout} but the node runs in {node.layout}",
                    {
                        "edge": t.src,
                        "transform_target": str(t.to_layout),
                        "consumer": str(node.layout),
                    },
                )
            if t.from_layout == t.to_layout:
                yield Finding(
                    node.name,
                    f"transform on the edge from {t.src!r} is the identity "
                    f"({t.from_layout} -> {t.to_layout})",
                    {"edge": t.src, "layout": str(t.from_layout)},
                )


# ---------------------------------------------------------------------------
# uneliminated transform-inverse pairs
# ---------------------------------------------------------------------------


def check_inverse_pairs(graph: Graph) -> Iterator[Finding]:
    """A layout-agnostic node whose relabeling would cancel *all* of its
    incident layout disagreements hosts an uneliminated transform-inverse
    pair: the layout assignment should have relabeled it (the relabel
    removes transforms and adds none, a strict win)."""
    if not _structurally_sound(graph):
        return
    result = propagate_layouts(graph)
    consumers: dict[str, list[GraphNode]] = {name: [] for name in graph.nodes}
    for node in graph:
        for src in node.inputs:
            consumers[src].append(node)

    for node in graph.topological():
        if not node.kind.layout_agnostic or node.layout is None:
            continue

        def mismatches(candidate: DataLayout) -> int:
            count = 0
            for producer in graph.producers(node.name):
                delivered = result.out_facts.get(producer.name)
                if delivered is None or delivered is CONFLICT:
                    continue
                if delivered != candidate:
                    count += 1
            for consumer in consumers[node.name]:
                if consumer.kind is NodeKind.CLASSIFIER or consumer.layout is None:
                    continue
                if consumer.layout != candidate:
                    count += 1
            return count

        current = mismatches(node.layout)
        if current == 0:
            continue
        candidates: set[DataLayout] = set()
        for producer in graph.producers(node.name):
            delivered = result.out_facts.get(producer.name)
            if delivered is not None and delivered is not CONFLICT:
                candidates.add(delivered)
        for consumer in consumers[node.name]:
            if consumer.kind is not NodeKind.CLASSIFIER and consumer.layout is not None:
                candidates.add(consumer.layout)
        for candidate in sorted(candidates, key=str):
            if candidate != node.layout and mismatches(candidate) == 0:
                yield Finding(
                    node.name,
                    f"layout-agnostic node labeled {node.layout} sits between "
                    f"{candidate} neighbours on every side; relabeling it to "
                    f"{candidate} cancels the transform-inverse pair at zero "
                    f"cost",
                    {
                        "current": str(node.layout),
                        "candidate": str(candidate),
                        "mismatched_edges": current,
                    },
                )
                break
