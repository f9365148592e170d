"""D0xx rules: dataflow verification of annotated network graphs.

The L-rules pattern-match the linear plan-step list; these rules run the
abstract-interpretation and liveness analyses from
:mod:`repro.analysis.dataflow` over the graph IR's real producer→consumer
edges, so they are sound on branching (Inception/ResNet-style) networks.
They back three surfaces with one implementation: ``repro lint`` (this
registry), ``repro verify`` / :func:`~repro.analysis.dataflow.verify.verify_graph`,
and the verifier between pipeline passes, where each pass's ``contracts``
name the D-rules its output graph must pass.
"""

from __future__ import annotations

from collections.abc import Iterator

from ..dataflow.interp import (
    check_inverse_pairs,
    check_layout_coherence,
    check_shapes,
    check_structure,
    check_transform_annotations,
)
from ..dataflow.liveness import check_double_counts, check_liveness
from ...ir.graph import NodeKind
from ...layers.base import ConvSpec, PoolSpec
from .base import Finding, GraphScope, Severity, rule


@rule(
    "D001",
    Severity.ERROR,
    "edge shape fact contradicts the consumer's annotations",
    rationale="Abstract shape interpretation propagates each producer's "
    "output dims along its real edges; a consumer whose in_dims or spec "
    "geometry disagrees would read out-of-bounds or mis-strided data.",
    example="a conv annotated for 64x64 input fed by a 32x32 producer, or "
    "a concat whose branch spatial dims differ",
)
def edge_shape_mismatch(scope: GraphScope) -> Iterator[Finding]:
    yield from check_shapes(scope.graph)


@rule(
    "D002",
    Severity.ERROR,
    "dangling edge or malformed graph structure",
    rationale="Every input edge must name a node present in the graph and "
    "every transform must sit on a real edge; a dangling reference means "
    "a pass dropped a producer without rewiring its consumers.",
    example="a pass deletes node 'conv2' but 'pool2' still lists it as "
    "an input",
)
def dangling_edge(scope: GraphScope) -> Iterator[Finding]:
    yield from check_structure(scope.graph)


@rule(
    "D003",
    Severity.ERROR,
    "consumed layout is not produced on an edge (missing transform)",
    rationale="The layout arriving over each edge — the producer's "
    "propagated layout, rewritten by the edge's transform if one exists — "
    "must equal the consumer's assigned layout; otherwise the consumer "
    "reads permuted garbage (Section IV.D: the framework must insert a "
    "transformation kernel wherever layouts disagree).",
    example="a CHWN branch feeding an NCHW conv with no EdgeTransform "
    "recorded on that edge",
)
def missing_transform(scope: GraphScope) -> Iterator[Finding]:
    yield from check_layout_coherence(scope.graph)


@rule(
    "D004",
    Severity.ERROR,
    "transform annotation contradicts the propagated layout facts",
    rationale="A transform claiming to read a layout its producer does "
    "not deliver (or to produce one its consumer does not run in) would "
    "execute the wrong permutation kernel — the plan looks repaired but "
    "the data is still scrambled.",
    example="an edge transform NCHW->CHWN under a producer whose "
    "propagated layout fact is CHWN",
)
def transform_fact_mismatch(scope: GraphScope) -> Iterator[Finding]:
    yield from check_transform_annotations(scope.graph)


@rule(
    "D005",
    Severity.WARNING,
    "transform-inverse pair not eliminated across a layout-agnostic node",
    rationale="A layout-agnostic node (LRN, concat) whose neighbours all "
    "share one other layout drops every incident transform when relabeled "
    "to it, at zero kernel cost; such a surviving pair means the layout "
    "assignment missed a free win.  Only that all-or-nothing case is "
    "checked: a relabel that wins on cost while leaving some disagreement "
    "(the heuristic fine-tune's strict cost wins, such as inception's "
    "concat) is invisible here, and the golden plan tests guard those.",
    example="CHWN branches joining an NCHW-labeled concat whose only "
    "consumer immediately transforms back to CHWN",
)
def uneliminated_inverse_pair(scope: GraphScope) -> Iterator[Finding]:
    yield from check_inverse_pairs(scope.graph)


@rule(
    "D006",
    Severity.ERROR,
    "buffer used outside its liveness interval (use-after-free)",
    rationale="Under the last-use-free allocator the liveness model "
    "assumes, a consumer scheduled at or before its producer reads a "
    "buffer that is not (or no longer) allocated.",
    example="a corrupted schedule placing 'pool1' before the 'conv1' "
    "whose output it reads",
)
def use_outside_interval(scope: GraphScope) -> Iterator[Finding]:
    yield from check_liveness(scope.graph)


@rule(
    "D007",
    Severity.ERROR,
    "duplicate edge double-counts and double-frees a buffer",
    rationale="The allocator model releases a buffer once per consuming "
    "edge at its last use; a duplicate edge frees it twice and the "
    "footprint model counts it twice.",
    example="a concat listing the same branch output as two of its inputs",
)
def double_count_hazard(scope: GraphScope) -> Iterator[Finding]:
    yield from check_double_counts(scope.graph)


@rule(
    "D008",
    Severity.ERROR,
    "layout-bearing node carries no layout",
    rationale="A conv or pooling kernel reads one specific 4-D order, so "
    "every such node must carry an assigned layout; D003 skips unassigned "
    "nodes, so without this rule a plan missing a layout verifies clean.",
    example='a serialized plan whose conv node has "layout": null',
)
def unassigned_layout(scope: GraphScope) -> Iterator[Finding]:
    for node in scope.graph.topological():
        if node.kind.layout_bearing and node.layout is None:
            yield Finding(
                node.name,
                f"{node.kind.value} node has no layout",
                {"kind": node.kind.value},
            )


#: the spec class each spec-bearing node kind must carry
_SPEC_OF_KIND = {NodeKind.CONV: ConvSpec, NodeKind.POOL: PoolSpec}


@rule(
    "D009",
    Severity.ERROR,
    "conv or pool node has no spec of its kind",
    rationale="A conv or pooling node's spec sizes its kernel, its "
    "weights and its workspace; D001's geometry checks and the footprint "
    "skip a node without one, so a plan missing a spec verifies clean and "
    "under-reports its memory.",
    example='a serialized plan whose conv node has "spec": null',
)
def missing_spec(scope: GraphScope) -> Iterator[Finding]:
    for node in scope.graph.topological():
        expected = _SPEC_OF_KIND.get(node.kind)
        if expected is not None and not isinstance(node.spec, expected):
            yield Finding(
                node.name,
                f"{node.kind.value} node has no {expected.__name__}",
                {"kind": node.kind.value, "spec": type(node.spec).__name__},
            )
