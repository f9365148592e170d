"""D0xx rules: dataflow verification of annotated network graphs.

The L-rules pattern-match the linear plan-step list; these rules run the
abstract-interpretation and liveness analyses from
:mod:`repro.analysis.dataflow` over the graph IR's real producer→consumer
edges, so they are sound on branching (Inception/ResNet-style) networks.
They back three surfaces with one implementation: ``repro lint`` (this
registry), ``repro verify`` / :func:`~repro.analysis.dataflow.verify.verify_graph`,
and the pass-contract verifier between pipeline passes.
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
    rationale="A layout-agnostic node (LRN, concat) relabeled to its "
    "neighbours' layout drops its incident transforms at zero kernel "
    "cost; a surviving cancellable pair means "
    "EliminateRedundantTransforms missed a strict win.",
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
