"""L0xx rules: layout-plan verification over the planned graph.

The edge rule walks the graph's producer→consumer edges and flags
transform/inverse-transform islands (:attr:`GraphNode.transforms`) for
review; that every layout change carries a transform is the dataflow
rules' D003/D004 check.  The node rules check that each conv/pool node's
implementation belongs to its layout's family.
"""

from __future__ import annotations

from collections.abc import Iterator

from ...core.heuristic import (
    conv_threshold_margins,
    is_threshold_ambiguous,
    thresholds_for,
)
from ...core.selector import LAYOUT_IMPLEMENTATIONS, POOL_LAYOUT_IMPLEMENTATIONS
from ...ir.graph import NodeKind
from ...layers.base import ConvSpec
from ...tensors.layout import CHWN
from .base import Finding, PlanScope, Severity, rule


@rule(
    "L002",
    Severity.WARNING,
    "transform immediately undone by its inverse",
    rationale="A single-layer layout island pays two boundary transforms; "
    "the fine-tuning step (Section IV.D) keeps it only when the layer's "
    "layout benefit exceeds both — verify that trade-off holds.",
    example="NCHW -> CHWN for one pool, then CHWN -> NCHW straight back",
)
def redundant_transform_pair(scope: PlanScope) -> Iterator[Finding]:
    """A transform on an incoming edge undone on an outgoing edge is a
    layout island regardless of chain position."""
    graph = scope.graph
    for node in graph.topological():
        for t_in in node.transforms:
            for consumer in graph.consumers(node.name):
                for t_out in consumer.transforms:
                    if (
                        t_out.src == node.name
                        and t_out.from_layout == t_in.to_layout
                        and t_out.to_layout == t_in.from_layout
                    ):
                        yield Finding(
                            node.name,
                            f"transform {t_in.from_layout} -> {t_in.to_layout} "
                            f"is undone on the edge to {consumer.name}; the "
                            f"island costs {t_in.ms + t_out.ms:.3f} ms of "
                            f"transforms",
                            {
                                "island_layout": str(t_in.to_layout),
                                "surrounding_layout": str(t_out.to_layout),
                                "transform_ms": t_in.ms + t_out.ms,
                            },
                        )


@rule(
    "L003",
    Severity.WARNING,
    "layer sits in the ambiguous region around the (Ct, Nt) thresholds",
    rationale="Within +/-1 of a threshold the heuristic's answer flips "
    "under a trivial shape change; the paper's one-time profiling "
    "fine-tune, not the raw rule, should arbitrate these layers.",
    example="a conv with C equal to Ct, or N one below Nt",
)
def threshold_ambiguity(scope: PlanScope) -> Iterator[Finding]:
    thresholds = scope.thresholds or thresholds_for(scope.device)
    for node in scope.nodes:
        if node.kind is not NodeKind.CONV or not isinstance(node.spec, ConvSpec):
            continue
        if is_threshold_ambiguous(node.spec, thresholds, scope.margin):
            margins = conv_threshold_margins(node.spec, thresholds)
            yield Finding(
                node.name,
                f"layout choice flips within +/-{scope.margin} of a "
                f"threshold (C-Ct={margins.c_distance:+d}, "
                f"N-Nt={margins.n_distance:+d})",
                {
                    "c_distance": margins.c_distance,
                    "n_distance": margins.n_distance,
                    "margin": scope.margin,
                },
            )


@rule(
    "L004",
    Severity.ERROR,
    "conv step assigned a layout with no implementation family",
    rationale="Every candidate layout needs a registered convolution "
    "implementation (Section IV.D); an unknown layout cannot execute.",
    example="a plan placing a conv in NHWC without the im2col-nhwc family",
)
def unsupported_layout(scope: PlanScope) -> Iterator[Finding]:
    for node in scope.layout_nodes:
        if node.kind is NodeKind.CONV and str(node.layout) not in LAYOUT_IMPLEMENTATIONS:
            yield Finding(
                node.name,
                f"no convolution implementation family is registered for "
                f"layout {node.layout}",
                {"layout": str(node.layout)},
            )


@rule(
    "L005",
    Severity.ERROR,
    "implementation does not belong to the step's layout family",
    rationale="Each layout has its preferred implementations (direct for "
    "CHWN, MM/FFT for NCHW); a cross-family assignment would read the "
    "tensor with the wrong stride pattern.",
    example="'direct' (a CHWN kernel) scheduled on an NCHW step",
)
def implementation_layout_mismatch(scope: PlanScope) -> Iterator[Finding]:
    for node in scope.layout_nodes:
        key = str(node.layout)
        implementation = node.implementation or ""
        if node.kind is NodeKind.CONV:
            allowed = LAYOUT_IMPLEMENTATIONS.get(key)
        else:
            # Every non-CHWN pooling layout shares the channel-major kernels.
            allowed = POOL_LAYOUT_IMPLEMENTATIONS.get(
                key, POOL_LAYOUT_IMPLEMENTATIONS["NCHW"]
            )
        if allowed is not None and implementation not in allowed:
            yield Finding(
                node.name,
                f"implementation {implementation!r} is not in the "
                f"{node.layout} family {sorted(allowed)}",
                {"implementation": implementation, "layout": key},
            )


@rule(
    "L007",
    Severity.INFO,
    "pooling layer left in a channel-major layout",
    rationale="Pooling always prefers CHWN (Section IV.B); staying "
    "channel-major is legitimate only when the boundary transforms cost "
    "more than the kernel saves.",
    example="an NCHW pool inside a long NCHW conv run",
)
def pool_channel_major(scope: PlanScope) -> Iterator[Finding]:
    for node in scope.layout_nodes:
        if node.kind is NodeKind.POOL and node.layout != CHWN:
            yield Finding(
                node.name,
                f"pool runs in {node.layout}; CHWN is always preferred for "
                "pooling when the boundary transforms pay for themselves",
                {"layout": str(node.layout)},
            )
