"""Network-level layout planning (Section IV.D).

The planner assigns a storage layout to every conv/pool layer, inserting
layout transformations where consecutive layers disagree, and weighing each
transform's cost against the layout's benefit — the paper's "one-time
profiling can be applied to fine tune the data layout settings
automatically".

Two planners are provided:

* :func:`plan_with_heuristic` — apply the (Ct, Nt) rules per layer, then
  drop any transform whose cost exceeds the layout benefit it enables
  (the paper's fine-tuning step, e.g. keeping CV5/CV9 in the surrounding
  layout because their preference is worth less than the transpose).
* :func:`plan_optimal` — the exact version of the same trade-off: the
  minimum total time over every CHWN/NCHW assignment, on chains and DAGs
  alike (one s-t min cut).  Used in tests to prove the heuristic plan is
  near-optimal.

:func:`plan_single_layout` prices the whole network in one fixed layout
(the existing libraries' behaviour), the baseline both planners beat.

All three take a :class:`~repro.framework.netdef.NetworkDef` and are
one-line presets of :func:`repro.core.pipeline.plan_network`, which lowers
the definition to the graph IR and runs the pass pipeline; each returns
its :class:`~repro.core.pipeline.PipelineResult`, whose planned graph is
the plan.  This module also holds the per-node layer cost model the
passes share, over the one planning space :data:`PLAN_LAYOUTS`.  The
golden plans in ``tests/core/golden/plans.json`` pin
every preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext
from ..ir.graph import GraphNode, NodeKind
from ..layers.base import ConvSpec, PoolSpec, SoftmaxSpec
from ..layers.softmax_kernels import make_softmax_kernel
from ..tensors.layout import CHWN, NCHW, DataLayout
from .autotune import autotune_pooling
from .selector import best_conv_for_layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..framework.netdef import NetworkDef
    from .pipeline import PipelineResult

#: the layouts the planners choose between (NCHW dominates NHWC, paper
#: footnote 1, so NHWC is not one of them)
PLAN_LAYOUTS: tuple[DataLayout, ...] = (CHWN, NCHW)


@dataclass
class _LayerCosts:
    """Per-layout cost and chosen implementation for one node."""

    node: GraphNode
    per_layout: dict[str, tuple[float, str, tuple[int, int] | None]] = field(
        default_factory=dict
    )

    def cost(self, layout: DataLayout) -> float:
        return self.per_layout[str(layout)][0]

    def choice(self, layout: DataLayout) -> tuple[float, str, tuple[int, int] | None]:
        return self.per_layout[str(layout)]


def _node_costs(
    context: SimulationContext,
    node: GraphNode,
    device: DeviceSpec,
    tune_pooling: bool,
    allow_fft: bool,
) -> _LayerCosts:
    costs = _LayerCosts(node)
    if node.kind is NodeKind.CONV:
        assert isinstance(node.spec, ConvSpec)
        for layout in PLAN_LAYOUTS:
            choice = best_conv_for_layout(
                context, node.spec, layout, allow_fft=allow_fft
            )
            costs.per_layout[str(layout)] = (choice.time_ms, choice.implementation, None)
    elif node.kind is NodeKind.POOL:
        assert isinstance(node.spec, PoolSpec)
        from ..layers.pooling_kernels import make_pool_kernel

        if tune_pooling:
            tuned = autotune_pooling(device, node.spec, context=context)
            coarsen = (tuned.ux, tuned.uy)
            chwn_ms = tuned.time_ms
            impl = (
                "chwn-coarsened" if coarsen != (1, 1) else "chwn"
            )
        else:
            chwn_ms = context.run(make_pool_kernel(node.spec, "chwn")).time_ms
            coarsen, impl = None, "chwn"
        costs.per_layout[str(CHWN)] = (chwn_ms, impl, coarsen)
        # When a pool stays out of CHWN (transform not worth it), the
        # framework still picks the faster of the available channel-major
        # kernels.
        nchw_ms, nchw_impl = min(
            (
                context.run(make_pool_kernel(node.spec, impl_name)).time_ms,
                impl_name,
            )
            for impl_name in ("nchw-linear", "nchw-rowblock")
        )
        costs.per_layout[str(NCHW)] = (nchw_ms, nchw_impl, None)
    elif node.kind is NodeKind.ELEMENTWISE:
        for layout in PLAN_LAYOUTS:
            costs.per_layout[str(layout)] = (node.fixed_ms, "elementwise", None)
    elif node.kind is NodeKind.CONCAT:
        for layout in PLAN_LAYOUTS:
            costs.per_layout[str(layout)] = (node.fixed_ms, "concat", None)
    else:  # CLASSIFIER
        if isinstance(node.spec, SoftmaxSpec):
            ms = context.run(make_softmax_kernel(node.spec, "opt")).time_ms
            impl = "softmax-opt"
        else:
            ms, impl = node.fixed_ms, "gemm"
        for layout in PLAN_LAYOUTS:
            costs.per_layout[str(layout)] = (ms, impl, None)
    return costs


def plan_single_layout(
    device: DeviceSpec,
    net: NetworkDef,
    layout: DataLayout,
    tune_pooling: bool = False,
    allow_fft: bool = True,
    context: SimulationContext | None = None,
) -> PipelineResult:
    """Cost of running the whole network in one fixed layout (the existing
    libraries' behaviour): the pipeline with ``strategy="single"``.  A
    ``layout`` outside :data:`PLAN_LAYOUTS` raises :class:`ValueError`."""
    from .pipeline import PipelineOptions, plan_network

    options = PipelineOptions(
        strategy="single",
        single_layout=layout,
        tune_pooling=tune_pooling,
        allow_fft=allow_fft,
    )
    return plan_network(device, net, options, context=context)


def plan_with_heuristic(
    device: DeviceSpec,
    net: NetworkDef,
    tune_pooling: bool = True,
    allow_fft: bool = True,
    context: SimulationContext | None = None,
) -> PipelineResult:
    """The paper's mechanism: per-layer (Ct, Nt) rules + transform-cost
    fine-tuning.

    After the per-layer preferences are set, each connected *region* of
    same-layout layers (a maximal run, on a chain) is kept only if its
    benefit exceeds the transforms on its boundary (this is what keeps
    tiny first-layer convolutions like CV9 in the surrounding layout).
    ``AssignLayouts`` runs the fine-tune; this is the pipeline with
    ``strategy="heuristic"``.
    """
    from .pipeline import PipelineOptions, plan_network

    options = PipelineOptions(
        strategy="heuristic",
        tune_pooling=tune_pooling,
        allow_fft=allow_fft,
    )
    return plan_network(device, net, options, context=context)


def plan_optimal(
    device: DeviceSpec,
    net: NetworkDef,
    tune_pooling: bool = True,
    allow_fft: bool = True,
    context: SimulationContext | None = None,
) -> PipelineResult:
    """Minimal total time including transforms: the pipeline with
    ``strategy="optimal"``.

    The plan is the exact minimum over every assignment of the
    :data:`PLAN_LAYOUTS` pair, chain or DAG, found by one s-t min cut; at
    equal cost a layer keeps CHWN.
    """
    from .pipeline import PipelineOptions, plan_network

    options = PipelineOptions(
        strategy="optimal",
        tune_pooling=tune_pooling,
        allow_fft=allow_fft,
    )
    return plan_network(device, net, options, context=context)
