"""Compiler-style pass pipeline over the network graph IR.

The paper's framework integration (Section IV.D) — layout assignment
with transformation fine-tuning, transform insertion, kernel selection —
runs here as ordered passes over a :class:`repro.ir.Graph`:

1. ``ResolveShapes``        — shape inference + fixed per-layer costs;
2. ``AssignLayouts``        — one algorithm per strategy, on chains and
   DAGs alike: ``heuristic`` is the (Ct, Nt) preferences plus the paper's
   fine-tune, flipping each same-layout region whose benefit does not pay
   for its boundary transforms, then each layout-agnostic node (LRN,
   concat) whose incident transforms get cheaper; ``optimal`` is the
   exact minimum over the two planning layouts, found by one s-t min cut
   (the frozen plans in ``tests/core/golden/plans.json`` pin both);
3. ``InsertTransforms``     — materialize an :class:`EdgeTransform` on
   every producer→consumer edge whose layouts disagree;
4. ``SelectImplementations`` — bind each node to its fastest
   implementation under the assigned layout (the fused softmax included).

:class:`PassManager` records per-pass wall time and before/after node
counts; ``repro plan --explain`` prints the table.  The annotated graph is
the plan: :class:`PipelineResult` holds it with the trace and reads the
plan totals off its nodes, and every consumer (framework, schemes, lint,
CLI, benches) reads that graph.  The one planner input is a
:class:`~repro.framework.netdef.NetworkDef`: :func:`plan_network` lowers
it to the IR and runs the passes, and
``plan_single_layout``/``plan_with_heuristic``/``plan_optimal`` in
``repro.core.planner`` are presets of it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from math import prod
from typing import TYPE_CHECKING, Mapping, Sequence

from ..gpusim.device import DeviceSpec
from ..gpusim.session import SimulationContext, default_context
from ..obs.metrics import global_registry
from ..obs.tracer import active_tracer, json_safe
from ..obs.tracer import span as obs_span
from ..ir.build import infer_shapes, lower_netdef
from ..ir.graph import EdgeTransform, Graph, GraphNode, NodeKind, edge_dims
from ..layers.base import FCSpec
from ..layers.elementwise import ElementwiseKernel, LRNSpec, make_lrn_kernel
from ..layers.fc import make_fc_kernel
from ..tensors.layout import CHWN, NCHW, DataLayout
from ..tensors.tensor import TensorDesc
from ..tensors.transform_kernels import make_transform_kernel
from .heuristic import preferred_conv_layout, preferred_pool_layout, thresholds_for
from .planner import PLAN_LAYOUTS, _LayerCosts, _node_costs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.rules.base import Diagnostic
    from ..framework.netdef import NetworkDef

__all__ = [
    "PassContext",
    "PassContractError",
    "PassManager",
    "PassTrace",
    "PipelineOptions",
    "PipelineResult",
    "TransformCostTable",
    "default_passes",
    "min_cut_layouts",
    "plan_network",
    "run_pipeline",
]

#: cost differences at or below this count as ties (min cut, agnostic relabel)
_TIE_MS = 1e-12

#: the ``algorithm`` stat each strategy's layout assignment reports
_ALGORITHMS = {"single": "single", "heuristic": "region-finetune", "optimal": "min-cut"}


@dataclass(frozen=True)
class PipelineOptions:
    """Everything that parameterizes one pipeline run."""

    strategy: str = "optimal"  # "heuristic" | "optimal" | "single"
    #: the layout of ``strategy="single"``, one of ``PLAN_LAYOUTS``
    single_layout: DataLayout | None = None
    tune_pooling: bool = True
    allow_fft: bool = True
    #: run each pass's declared D-rules on its output graph and raise
    #: :class:`PassContractError` attributing the first failure to the
    #: offending pass.  Verification is observational: the planned result
    #: is byte-identical with it on or off.
    verify: bool = False

    def __post_init__(self) -> None:
        if self.strategy not in _ALGORITHMS:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "single" and self.single_layout not in PLAN_LAYOUTS:
            allowed = ", ".join(str(layout) for layout in PLAN_LAYOUTS)
            raise ValueError(
                f"strategy 'single' plans in one of the planning layouts "
                f"({allowed}), got {self.single_layout}"
            )

    def strategy_name(self) -> str:
        if self.strategy == "single":
            return f"single-{self.single_layout}"
        return self.strategy


@dataclass
class PassContext:
    """Mutable state the passes share (simulation context, cost tables)."""

    device: DeviceSpec
    options: PipelineOptions
    #: the simulation context every pass times kernels on
    engine: SimulationContext
    #: per-edge transform costs (batch-priced by ``AssignLayouts``)
    edge_costs: TransformCostTable
    costs: dict[str, _LayerCosts] = field(default_factory=dict)


@dataclass(frozen=True)
class PassTrace:
    """One pass's footprint: wall time, node counts, pass-specific stats."""

    name: str
    ms: float
    nodes_before: int
    nodes_after: int
    stats: dict[str, object] = field(default_factory=dict)


class PassContractError(RuntimeError):
    """A pass produced a graph that fails a D-rule it declared.

    ``pass_name`` attributes the failure to the offending pass;
    ``diagnostics`` holds every finding of its declared rules, whatever
    the rule's severity.
    """

    def __init__(self, pass_name: str, diagnostics: Sequence[Diagnostic]) -> None:
        self.pass_name = pass_name
        self.diagnostics = tuple(diagnostics)
        lines = [
            f"pass {pass_name!r} violated its contracts "
            f"({len(self.diagnostics)} finding(s)):"
        ]
        lines += [f"  {d.format()}" for d in self.diagnostics]
        super().__init__("\n".join(lines))


class Pass:
    """A named graph transformation.  Subclasses mutate and return the
    graph; anything worth reporting goes into ``self.stats``.

    ``contracts`` names the D-rules (``repro lint --list-rules``) that
    must pass on the graph this pass returns; the verifying
    :class:`PassManager` runs them after the pass.  Every pass keeps the
    structural three: no dangling edge (D002), no read outside a buffer's
    liveness interval (D006), no duplicate edge (D007).
    """

    name = "pass"
    #: D-rule ids that hold on this pass's output graph
    contracts: tuple[str, ...] = ("D002", "D006", "D007")

    def __init__(self) -> None:
        self.stats: dict[str, object] = {}

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        raise NotImplementedError


class PassManager:
    """Run passes in order, timing each and snapshotting node counts.

    Each pass is *always* recorded: its wall time lands in a
    :class:`PassTrace`, in the ``pipeline.pass_ms.*`` histograms of the
    global metrics registry, and — when a tracer is installed — in a
    ``pipeline.pass`` span whose attributes carry the pass's stats.  The
    trace is available from every caller (``repro plan --trace``), not
    just the ``--explain`` table.

    With ``verify=True`` each pass's declared D-rules run on its output
    graph and the first pass with a finding raises
    :class:`PassContractError` naming that pass — a compiler-style
    "verify between passes" mode (``repro plan --verify``).
    """

    def __init__(self, passes: Sequence[Pass], verify: bool = False) -> None:
        self.passes = list(passes)
        self.verify = verify

    def run(self, graph: Graph, ctx: PassContext) -> tuple[Graph, tuple[PassTrace, ...]]:
        registry = global_registry()
        traces: list[PassTrace] = []
        for p in self.passes:
            before = len(graph)
            started = time.perf_counter()
            with obs_span(p.name, "pipeline.pass", nodes_before=before) as sp:
                graph = p.run(graph, ctx)
                if sp is not None:
                    sp.attrs["nodes_after"] = len(graph)
                    sp.attrs.update({k: json_safe(v) for k, v in p.stats.items()})
            elapsed_ms = (time.perf_counter() - started) * 1e3
            registry.histogram(f"pipeline.pass_ms.{p.name}").observe(elapsed_ms)
            traces.append(
                PassTrace(
                    name=p.name,
                    ms=elapsed_ms,
                    nodes_before=before,
                    nodes_after=len(graph),
                    stats=dict(p.stats),
                )
            )
            if self.verify and p.contracts:
                self._check(graph, p)
        return graph, tuple(traces)

    @staticmethod
    def _check(graph: Graph, p: Pass) -> None:
        # Imported lazily: the analysis layer depends on this module, so
        # the verifier cannot be a module-level import here.
        from ..analysis.dataflow.verify import verify_graph
        from ..analysis.lint import LintConfig

        not_graph = [rule_id for rule_id in p.contracts if rule_id[:1] != "D"]
        if not_graph:
            raise ValueError(f"{p.name}: contracts {not_graph} are not D-rule ids")
        # LintConfig rejects an unregistered id; the user's --select and
        # --disable never reach this check.
        config = LintConfig(selected=frozenset(p.contracts))
        diagnostics = verify_graph(graph, config=config)
        if diagnostics:
            raise PassContractError(p.name, diagnostics)


# ---------------------------------------------------------------------------
# shared helpers


def _edge_desc(
    producer: GraphNode,
    consumer: GraphNode,
    src: DataLayout,
    dst: DataLayout,
) -> tuple[tuple[int, ...], DataLayout, DataLayout] | None:
    """The (dims, src, dst) a transform on this edge would move, or ``None``
    when the edge is free (same layout, classifier consumer, unknown dims)."""
    if src == dst or consumer.kind is NodeKind.CLASSIFIER:
        return None
    dims = edge_dims(producer, consumer)
    if dims is None:
        return None
    return dims, src, dst


class TransformCostTable:
    """Per-edge transform costs for one planning run.

    ``precompute`` enumerates every distinct (dims, src layout, dst layout)
    transform the planner can query on a graph — edges × planning layouts²
    collapse to a handful of unique tensor shapes — and prices them all on
    the run's simulation context (``PassContext.engine``), so they land in
    that context's memo, counters and persisted cache like every other
    kernel of the plan.  ``edge_ms`` is then a dict probe; a query outside
    the precomputed set raises.
    ``tests/integration/test_batched_consumers.py`` prices every edge with
    a scalar oracle and checks that the plans are byte-identical to this
    table's.
    """

    def __init__(self, context: SimulationContext) -> None:
        self.context = context
        self._ms: dict[tuple[tuple[int, ...], str, str], float] = {}

    def precompute(self, graph: Graph) -> int:
        """Price every transform reachable on ``graph``'s edges.

        Returns the number of distinct transform kernels evaluated.
        """
        priced = 0
        for node in graph:
            for src_name in node.inputs:
                producer = graph[src_name]
                for src in PLAN_LAYOUTS:
                    for dst in PLAN_LAYOUTS:
                        desc = _edge_desc(producer, node, src, dst)
                        if desc is None:
                            continue
                        dims, src_l, dst_l = desc
                        key = (dims, str(src_l), str(dst_l))
                        if key in self._ms:
                            continue
                        kernel = make_transform_kernel(
                            TensorDesc(*dims, layout=src_l), dst_l, method="auto"
                        )
                        self._ms[key] = self.context.run(kernel).time_ms
                        priced += 1
        return priced

    def edge_ms(
        self,
        producer: GraphNode,
        consumer: GraphNode,
        src: DataLayout,
        dst: DataLayout,
    ) -> float:
        """Transform cost on one producer→consumer edge, from the table.

        The transformed tensor is the producer's output (on a concat, one
        branch, not the joined tensor).
        """
        desc = _edge_desc(producer, consumer, src, dst)
        if desc is None:
            return 0.0
        dims, src_l, dst_l = desc
        try:
            return self._ms[(dims, str(src_l), str(dst_l))]
        except KeyError:
            raise KeyError(
                f"{producer.name}->{consumer.name}: transform {src_l}->{dst_l} "
                f"of {dims} was not precomputed"
            ) from None


# ---------------------------------------------------------------------------
# passes


class ResolveShapes(Pass):
    """Shape inference plus fixed per-layer costs (LRN, FC, concat).

    Graphs lowered from a ``NetworkDef`` carry layer definitions and get
    full inference; a hand-built graph without definitions must arrive
    resolved and only has its cost gaps filled.
    """

    name = "ResolveShapes"
    contracts = ("D001", "D002", "D006", "D007")

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        if len(graph) and all(n.defn is not None for n in graph):
            infer_shapes(graph)
            self.stats["resolved"] = len(graph)
        timed = 0
        for node in graph:
            if node.fixed_ms:
                continue
            if node.kind is NodeKind.ELEMENTWISE and isinstance(node.spec, LRNSpec):
                assert node.in_dims is not None
                kernel = make_lrn_kernel(prod(node.in_dims), node.spec)
            elif node.kind is NodeKind.CLASSIFIER and isinstance(node.spec, FCSpec):
                kernel = make_fc_kernel(node.spec)
            elif node.kind is NodeKind.CONCAT:
                assert node.out_dims is not None
                kernel = ElementwiseKernel(prod(node.out_dims), name="concat")
            else:
                continue
            node.fixed_ms = ctx.engine.run(kernel).time_ms
            timed += 1
        self.stats["fixed_cost_nodes"] = timed
        return graph


class AssignLayouts(Pass):
    """Assign a storage layout to every node, on chains and DAGs alike.

    Both strategies weigh the same objective: each node's cost under its
    layout plus, on every producer→consumer edge whose layouts differ, the
    transform's cost.

    * ``heuristic`` (``region-finetune``) starts from the (Ct, Nt)/pooling
      preferences and runs the paper's fine-tune,
      :func:`_finetune_regions`: a connected region of same-layout nodes
      flips to the other layout when its benefit does not pay for its
      boundary transforms, and a layout-agnostic node flips on its own
      when that makes its incident transforms strictly cheaper.
    * ``optimal`` (``min-cut``) is exact: over the two planning layouts,
      with free agreeing edges, the objective is a submodular binary
      labelling, and :func:`min_cut_layouts` minimizes it with one s-t
      min cut (ties go to CHWN).
    * ``single`` puts every node in ``single_layout``.
    """

    name = "AssignLayouts"
    contracts = ("D001", "D002", "D006", "D007", "D008")

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        opts = ctx.options
        ctx.costs = {
            node.name: _node_costs(
                ctx.engine, node, ctx.device, opts.tune_pooling, opts.allow_fft
            )
            for node in graph
        }
        self.stats["edge_kernels_batched"] = ctx.edge_costs.precompute(graph)
        prefs = self._preferences(graph, ctx.device)
        if opts.strategy == "single":
            assign = {node.name: opts.single_layout for node in graph}
        elif opts.strategy == "heuristic":
            assign = _finetune_regions(graph, ctx, prefs)
        else:
            edge = ctx.edge_costs.edge_ms
            assign = min_cut_layouts(
                [node.name for node in graph],
                {name: (c.cost(CHWN), c.cost(NCHW)) for name, c in ctx.costs.items()},
                {
                    (src, node.name): (
                        edge(graph[src], node, CHWN, NCHW),
                        edge(graph[src], node, NCHW, CHWN),
                    )
                    for node in graph
                    for src in node.inputs
                },
            )
        algorithm = _ALGORITHMS[opts.strategy]
        histogram: dict[str, int] = {}
        for node in graph:
            node.layout = assign[node.name]
            histogram[str(node.layout)] = histogram.get(str(node.layout), 0) + 1
        self.stats["algorithm"] = algorithm
        self.stats["layouts"] = histogram
        self._trace_decisions(graph, ctx, assign, prefs, algorithm)
        return graph

    def _trace_decisions(
        self,
        graph: Graph,
        ctx: PassContext,
        assign: dict[str, DataLayout],
        prefs: dict[str, DataLayout],
        algorithm: str,
    ) -> None:
        """Emit one instant event per node: the layout that won, the raw
        (Ct, Nt)/pooling preference it started from, and the per-layout
        layer costs the decision weighed — the planner's "why"."""
        tracer = active_tracer()
        if tracer is None:
            return
        for node in graph.topological():
            costs = ctx.costs[node.name]
            tracer.event(
                f"layout:{node.name}",
                "pipeline.decision",
                node=node.name,
                kind=node.kind.value,
                algorithm=algorithm,
                layout=str(assign[node.name]),
                preferred=str(prefs[node.name]),
                overridden=assign[node.name] != prefs[node.name],
                costs_ms={
                    layout: round(choice[0], 6)
                    for layout, choice in costs.per_layout.items()
                },
            )

    # -- shared preference seeding ------------------------------------------
    @staticmethod
    def _preferences(
        graph: Graph, device: DeviceSpec
    ) -> dict[str, DataLayout]:
        """Per-node (Ct, Nt)/pooling preferences under the device's
        thresholds; non-layout-bearing nodes inherit their first producer's
        (the chain planner's ``preferred[-1]`` generalized to DAGs)."""
        thresholds = thresholds_for(device)
        prefs: dict[str, DataLayout] = {}
        for node in graph.topological():
            if node.kind is NodeKind.CONV:
                prefs[node.name] = preferred_conv_layout(node.spec, thresholds)  # type: ignore[arg-type]
            elif node.kind is NodeKind.POOL:
                prefs[node.name] = preferred_pool_layout(node.spec)  # type: ignore[arg-type]
            elif node.inputs:
                prefs[node.name] = prefs[node.inputs[0]]
            else:
                prefs[node.name] = CHWN
        return prefs


def _finetune_regions(
    graph: Graph, ctx: PassContext, preferred: dict[str, DataLayout]
) -> dict[str, DataLayout]:
    """The paper's fine-tune: flip a region of same-layout nodes to the
    other layout when its benefit does not pay for its boundary transforms.

    A sweep visits the nodes in topological order.  From each node not yet
    visited in the sweep it grows the connected region of unvisited nodes
    sharing that node's layout, through both edge directions, and flips
    the region when its node costs plus the transforms on its boundary
    edges are strictly cheaper under the other layout.  Sweeps repeat until
    one flips nothing.  On a chain the region is the forward run of equal
    layouts, so this is the chain planner's run flattening.

    Whole-region flips can leave a layout-agnostic node (LRN, concat)
    between a transform and its inverse.  Such a node costs the same under
    either layout, so once the sweeps converge each one flips alone when
    its incident transforms get cheaper by more than :data:`_TIE_MS`,
    until none does: on heuristic inception the concat goes CHWN, trading
    the transforms into and out of it for one per NCHW branch.
    """
    order = graph.topological()
    consumers = {node.name: graph.consumers(node.name) for node in order}
    neighbours = {
        node.name: (*node.inputs, *(c.name for c in consumers[node.name]))
        for node in order
    }
    layouts = dict(preferred)

    def region_ms(region: list[str], label: DataLayout) -> float:
        members = set(region)
        t = sum(ctx.costs[name].cost(label) for name in region)
        for name in region:
            node = graph[name]
            for src in node.inputs:
                if src not in members:
                    t += ctx.edge_costs.edge_ms(graph[src], node, layouts[src], label)
            for cons in consumers[name]:
                if cons.name not in members:
                    t += ctx.edge_costs.edge_ms(node, cons, label, layouts[cons.name])
        return t

    changed = True
    while changed:
        changed = False
        visited: set[str] = set()
        for seed in order:
            if seed.name in visited:
                continue
            label = layouts[seed.name]
            alt = NCHW if label == CHWN else CHWN
            grown, stack, borders_alt = {seed.name}, [seed.name], False
            while stack:
                for nb in neighbours[stack.pop()]:
                    if layouts[nb] == alt:
                        borders_alt = True
                    elif nb not in visited and nb not in grown:
                        grown.add(nb)
                        stack.append(nb)
            visited |= grown
            region = [node.name for node in order if node.name in grown]
            if borders_alt and region_ms(region, alt) < region_ms(region, label):
                for name in region:
                    layouts[name] = alt
                changed = True

    agnostic = [node.name for node in order if node.kind.layout_agnostic]
    changed = True
    while changed:
        changed = False
        for name in agnostic:
            label = layouts[name]
            alt = NCHW if label == CHWN else CHWN
            if region_ms([name], alt) + _TIE_MS < region_ms([name], label):
                layouts[name] = alt
                changed = True
    return layouts


def min_cut_layouts(
    nodes: Sequence[str],
    node_ms: Mapping[str, tuple[float, float]],
    edge_ms: Mapping[tuple[str, str], tuple[float, float]],
) -> dict[str, DataLayout]:
    """The exact two-layout assignment, by one s-t minimum cut.

    ``node_ms[v]`` is ``v``'s (CHWN, NCHW) cost; ``edge_ms[u, v]`` is the
    (CHWN→NCHW, NCHW→CHWN) transform cost on the edge ``u → v``, paid when
    ``u`` and ``v`` take those layouts and nothing when they agree.  With
    free agreeing edges and non-negative costs (they are times), the total
    is a submodular binary labelling, which one cut minimizes exactly:
    CHWN is the source side, a node's NCHW cost sits on ``s → v`` and its
    CHWN cost on ``v → t`` (both less their minimum, a constant), and an
    edge's two transform costs sit on ``u → v`` and ``v → u``.  Residual
    capacities at or below :data:`_TIE_MS` count as saturated.

    **Tie rule:** the result is the *maximal* source set.  Every node that
    cannot reach the sink in the final residual graph is CHWN, so among all
    optimal assignments a node is CHWN exactly when it is CHWN in any of
    them.
    """
    index = {name: i for i, name in enumerate(nodes)}
    source, sink = len(nodes), len(nodes) + 1
    residual: list[dict[int, float]] = [{} for _ in range(len(nodes) + 2)]

    def add(u: int, v: int, cap: float) -> None:
        if cap > 0:
            residual[u][v] = residual[u].get(v, 0.0) + cap
            residual[v].setdefault(u, 0.0)

    for name in nodes:
        chwn, nchw = node_ms[name]
        floor = min(chwn, nchw)
        add(source, index[name], nchw - floor)
        add(index[name], sink, chwn - floor)
    for (u, v), (to_nchw, to_chwn) in edge_ms.items():
        add(index[u], index[v], to_nchw)
        add(index[v], index[u], to_chwn)

    # Edmonds-Karp: augment along shortest residual paths until none is left.
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > _TIE_MS and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        push = min(residual[parent[v]][v] for v in path[:-1])
        for v in path[:-1]:
            residual[parent[v]][v] -= push
            residual[v][parent[v]] += push

    # Nodes that still reach the sink are NCHW; everything else is CHWN.
    reaches_sink = {sink}
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        for u in residual[v]:
            if u not in reaches_sink and residual[u][v] > _TIE_MS:
                reaches_sink.add(u)
                queue.append(u)
    return {name: NCHW if index[name] in reaches_sink else CHWN for name in nodes}


class InsertTransforms(Pass):
    """Materialize an :class:`EdgeTransform` on every edge whose layouts
    disagree, priced by the transform kernel model.

    The layout "carried" past a CLASSIFIER node is its producer's
    (flattening erases the 4-D layout, so classifiers never update it),
    and a transform is only recorded when its modeled cost is positive.
    """

    name = "InsertTransforms"
    contracts = ("D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008")

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        count, total = 0, 0.0
        carried: dict[str, DataLayout | None] = {}
        for node in graph.topological():
            if node.kind is NodeKind.CLASSIFIER and node.inputs:
                carried[node.name] = carried[node.inputs[0]]
            else:
                carried[node.name] = node.layout
            transforms: list[EdgeTransform] = []
            for src in node.inputs:
                src_layout = carried[src]
                if src_layout is None or node.layout is None:
                    continue
                t_ms = ctx.edge_costs.edge_ms(graph[src], node, src_layout, node.layout)
                if t_ms > 0:
                    transforms.append(
                        EdgeTransform(src, src_layout, node.layout, t_ms)
                    )
                    count += 1
                    total += t_ms
            node.transforms = tuple(transforms)
        self.stats["inserted"] = count
        self.stats["transform_ms"] = round(total, 6)
        return graph


# perfbench (under BENCHMARK.json ``paths``) wraps ``<Name>.run`` of these
# two deleted passes by name, so they stay as bare stubs outside the
# pipeline and the exports until ROADMAP item 1 derives its targets from
# ``default_passes()``.
class EliminateRedundantTransforms:
    run = Pass.run


class FuseKernels:
    run = Pass.run


class SelectImplementations(Pass):
    """Bind each node to the fastest implementation under its layout."""

    name = "SelectImplementations"
    contracts = ("D001", "D002", "D003", "D004", "D006", "D007", "D008")

    def run(self, graph: Graph, ctx: PassContext) -> Graph:
        histogram: dict[str, int] = {}
        for node in graph:
            costs = ctx.costs[node.name]
            layout = node.layout if node.layout is not None else PLAN_LAYOUTS[0]
            layer_ms, impl, coarsen = costs.choice(layout)
            node.layer_ms = layer_ms
            node.implementation = impl
            node.coarsening = coarsen
            histogram[impl] = histogram.get(impl, 0) + 1
        self.stats["implementations"] = histogram
        return graph


# ---------------------------------------------------------------------------
# plan record + entry points


@dataclass
class PipelineResult:
    """The one plan record: the planned graph and the per-pass trace.

    Every node carries its layout, implementation, timing and input-edge
    transforms; the totals below are read off those annotations in
    topological order.
    """

    graph: Graph
    trace: tuple[PassTrace, ...]
    device: str
    strategy: str

    @property
    def total_ms(self) -> float:
        return sum(n.layer_ms + n.transform_ms for n in self.graph.topological())

    @property
    def transform_count(self) -> int:
        return sum(1 for n in self.graph.topological() if n.transform_ms > 0)

    @property
    def transform_ms(self) -> float:
        return sum(n.transform_ms for n in self.graph.topological())

    def summary(self) -> str:
        """One line per node; layouts show on conv/pool nodes only."""
        lines = [f"plan[{self.strategy}] on {self.device}: {self.total_ms:.3f} ms"]
        for n in self.graph.topological():
            layout = str(n.kernel_layout) if n.kernel_layout else "-"
            extra = f" (+transform {n.transform_ms:.3f} ms)" if n.transform_ms else ""
            lines.append(
                f"  {n.name:12s} {n.kind.value:12s} {layout:5s} "
                f"{n.implementation or '':16s} {n.layer_ms:8.3f} ms{extra}"
            )
        return "\n".join(lines)

    def explain(self) -> str:
        """The per-pass timing/stat table (``repro plan --explain``)."""
        lines = [
            f"pipeline[{self.strategy}] on {self.device}: "
            f"{len(self.graph)} nodes, {self.total_ms:.3f} ms planned"
        ]
        header = f"  {'pass':32s} {'ms':5s} {'nodes':>9s}  stats"
        lines.append(header)
        for t in self.trace:
            nodes = f"{t.nodes_before}->{t.nodes_after}"
            stats = ", ".join(f"{k}={v}" for k, v in t.stats.items()) or "-"
            # Unpadded ms: a wall time gaining a digit shifts the rest of the
            # row instead of the number, so masking the ms leaves one string.
            lines.append(f"  {t.name:32s} {t.ms:.3f} {nodes:>9s}  {stats}")
        return "\n".join(lines)


def default_passes() -> tuple[Pass, ...]:
    """The standard pipeline, in order."""
    return (
        ResolveShapes(),
        AssignLayouts(),
        InsertTransforms(),
        SelectImplementations(),
    )


def run_pipeline(
    device: DeviceSpec,
    graph: Graph,
    options: PipelineOptions | None = None,
    context: SimulationContext | None = None,
    passes: Sequence[Pass] | None = None,
) -> PipelineResult:
    """Run the pass pipeline over ``graph``; the annotated graph is the plan."""
    options = options or PipelineOptions()
    strategy = options.strategy_name()
    if len(graph) == 0:
        return PipelineResult(graph, (), device.name, strategy)
    engine = context or default_context(device)
    ctx = PassContext(
        device=device,
        options=options,
        engine=engine,
        edge_costs=TransformCostTable(engine),
    )
    manager = PassManager(
        passes if passes is not None else default_passes(),
        verify=options.verify,
    )
    with obs_span(
        "run_pipeline",
        "pipeline",
        strategy=strategy,
        device=device.name,
        nodes=len(graph),
    ) as sp:
        graph, trace = manager.run(graph, ctx)
        result = PipelineResult(graph, trace, device.name, strategy)
        if sp is not None:
            sp.attrs["total_ms"] = result.total_ms
            sp.attrs["transform_count"] = result.transform_count
    return result


def plan_network(
    device: DeviceSpec,
    net: NetworkDef,
    options: PipelineOptions | None = None,
    context: SimulationContext | None = None,
) -> PipelineResult:
    """Lower a :class:`NetworkDef` and run the pipeline over it."""
    return run_pipeline(device, lower_netdef(net), options, context)
