"""Plan & kernel static analysis: ``repro lint``.

The framework integration of Section IV.D silently inserts layout
transforms, and the performance model trusts every kernel's launch
configuration to fit the device — so a bad network definition, a missing
CHWN↔NCHW transform, or a kernel exceeding shared-memory limits would only
surface (if at all) deep inside a simulation run.  This module validates
all three *before* simulation, the way cuDNN-style libraries validate
descriptors up front:

* **N0xx** — network definitions: shape/stride/padding arithmetic, channel
  propagation, dead layers (:mod:`repro.analysis.rules.netdef_rules`);
* **L0xx** — layout plans: no transform/inverse islands, implementations
  match their layout family, threshold-ambiguous layers are surfaced
  (:mod:`repro.analysis.rules.layout_rules`);
* **K0xx** — kernel models against :class:`DeviceSpec` limits via the same
  :func:`~repro.gpusim.occupancy.check_launch` predicate the occupancy
  calculator enforces (:mod:`repro.analysis.rules.kernel_rules`);
* **D0xx** — dataflow verification of the annotated graph IR: abstract
  shape/layout interpretation (every producer→consumer layout change
  carries an explicit transform), transform-fact consistency, and liveness
  hazards over real producer→consumer edges
  (:mod:`repro.analysis.rules.dataflow_rules`, backed by
  :mod:`repro.analysis.dataflow`).

Entry points: :func:`lint_netdef` / :func:`lint_plan` / :func:`lint_kernel`
/ :func:`lint_graph` for one scope each, and :func:`lint_network` for the
whole pipeline (definition → plan → graph dataflow → per-step kernels →
transforms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.heuristic import LayoutThresholds, thresholds_for
from ..core.pipeline import PipelineOptions, run_pipeline
from ..framework.netdef import NetworkDef, parse_netdef
from ..ir.build import lower_netdef
from ..ir.graph import Graph, GraphNode, NodeKind
from ..gpusim.device import DeviceSpec
from ..gpusim.kernel import KernelModel
from ..gpusim.session import SimulationContext
from ..layers.base import ConvSpec, PoolSpec
from ..layers.conv_kernels import make_conv_kernel
from ..layers.pooling_kernels import make_pool_kernel
from ..tensors.tensor import TensorDesc
from ..tensors.transform_kernels import make_transform_kernel
from .rules.base import (
    REGISTRY,
    Diagnostic,
    GraphScope,
    KernelScope,
    NetdefScope,
    PlanScope,
    Rule,
    Severity,
    rules_for,
)


class UnknownRuleError(ValueError):
    """A rule ID referenced by configuration does not exist."""


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection.

    ``disabled`` switches individual rules off; ``selected`` (when given)
    runs *only* those rules; ``margin`` widens/narrows the L003 ambiguous
    region around the (Ct, Nt) thresholds.
    """

    disabled: frozenset[str] = frozenset()
    selected: frozenset[str] | None = None
    margin: int = 1

    def __post_init__(self) -> None:
        named = set(self.disabled) | set(self.selected or ())
        unknown = {rule_id for rule_id in named if rule_id not in REGISTRY}
        if unknown:
            raise UnknownRuleError(
                f"unknown rule id(s): {', '.join(sorted(unknown))}; "
                f"known rules: {', '.join(sorted(REGISTRY))}"
            )

    def active(self, rule: Rule) -> bool:
        if rule.id in self.disabled:
            return False
        return self.selected is None or rule.id in self.selected


DEFAULT_CONFIG = LintConfig()


def iter_rules() -> list[Rule]:
    """The full rule catalog in ID order (the ``--list-rules`` view)."""
    return [REGISTRY[rule_id] for rule_id in sorted(REGISTRY)]


def _run_scope(
    scope_kind: str,
    scope: NetdefScope | PlanScope | KernelScope | GraphScope,
    config: LintConfig,
    network: str = "",
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for rule in rules_for(scope_kind):
        if not config.active(rule):
            continue
        for finding in rule.check(scope):
            diagnostics.append(
                Diagnostic(
                    rule_id=rule.id,
                    severity=rule.severity,
                    subject=finding.subject,
                    message=finding.message,
                    network=network,
                    detail=dict(finding.detail),
                )
            )
    return diagnostics


# ---------------------------------------------------------------------------
# Single-scope entry points
# ---------------------------------------------------------------------------


def lint_netdef(
    net: NetworkDef, config: LintConfig = DEFAULT_CONFIG
) -> list[Diagnostic]:
    """Run the N0xx rules over one network definition."""
    return _run_scope("netdef", NetdefScope(net), config, network=net.name)


def lint_netdef_text(
    text: str, config: LintConfig = DEFAULT_CONFIG
) -> list[Diagnostic]:
    """Parse and lint a textual netdef; parse failures become rule N000."""
    try:
        net = parse_netdef(text)
    except ValueError as exc:
        return _run_scope("netdef", NetdefScope(None, error=str(exc)), config)
    return lint_netdef(net, config)


def lint_plan(
    device: DeviceSpec,
    graph: Graph,
    thresholds: LayoutThresholds | None = None,
    config: LintConfig = DEFAULT_CONFIG,
    network: str = "",
) -> list[Diagnostic]:
    """Run the L0xx rules over one planned graph.

    The edge-walking rule (L002) follows the graph's producer/consumer
    edges; the threshold rule (L003) reads its conv nodes; the layout
    rules (L004/L005/L007) read its conv/pool nodes.
    """
    scope = PlanScope(
        device=device,
        graph=graph,
        thresholds=thresholds,
        margin=config.margin,
    )
    return _run_scope("plan", scope, config, network=network)


def lint_graph(
    graph: Graph,
    device: DeviceSpec | None = None,
    config: LintConfig = DEFAULT_CONFIG,
    network: str = "",
) -> list[Diagnostic]:
    """Run the D0xx dataflow rules over one annotated graph IR."""
    return _run_scope(
        "graph",
        GraphScope(graph=graph, device=device),
        config,
        network=network or graph.name,
    )


def lint_kernel(
    device: DeviceSpec,
    kernel: KernelModel,
    owner: str = "",
    config: LintConfig = DEFAULT_CONFIG,
    network: str = "",
) -> list[Diagnostic]:
    """Run the K0xx rules over one kernel model on one device."""
    scope = KernelScope(device=device, kernel=kernel, owner=owner)
    return _run_scope("kernel", scope, config, network=network)


# ---------------------------------------------------------------------------
# Whole-network pipeline
# ---------------------------------------------------------------------------


@dataclass
class LintReport:
    """All diagnostics for one lint target, with severity bookkeeping."""

    target: str
    device: str
    strategy: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def _of(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self._of(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self._of(Severity.WARNING)

    @property
    def infos(self) -> list[Diagnostic]:
        return self._of(Severity.INFO)

    @property
    def counts(self) -> dict[str, int]:
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
        }

    def failed(self, strict: bool = False) -> bool:
        """Nonzero-exit condition: errors, or any warning under --strict."""
        if self.errors:
            return True
        return strict and bool(self.warnings)

    def sorted_diagnostics(self) -> list[Diagnostic]:
        return sorted(
            self.diagnostics,
            key=lambda d: (d.severity.rank, d.rule_id, d.subject),
        )

    def render_text(self) -> str:
        counts = self.counts
        lines = [
            f"{self.target} ({self.device}, {self.strategy}): "
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info"
        ]
        lines += [f"  {d.format()}" for d in self.sorted_diagnostics()]
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "device": self.device,
            "strategy": self.strategy,
            "counts": self.counts,
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
        }


def _node_kernel(node: GraphNode) -> KernelModel | None:
    """Rebuild the kernel model a conv/pool node selected, if reconstructible."""
    spec, implementation = node.spec, node.implementation or ""
    try:
        if node.kind is NodeKind.CONV and isinstance(spec, ConvSpec):
            return make_conv_kernel(spec, implementation)
        if node.kind is NodeKind.POOL and isinstance(spec, PoolSpec):
            if implementation == "chwn-coarsened" and node.coarsening is not None:
                return make_pool_kernel(spec, implementation, coarsen=node.coarsening)
            return make_pool_kernel(spec, implementation)
    except ValueError:
        return None  # unknown implementation: L005 already reports it
    return None


def lint_network(
    device: DeviceSpec,
    netdef: NetworkDef,
    strategy: str = "heuristic",
    config: LintConfig = DEFAULT_CONFIG,
    context: SimulationContext | None = None,
) -> LintReport:
    """Lint one network end to end: definition, plan, kernels, transforms.

    Netdef errors stop the pipeline (an inconsistent definition has no
    well-defined plan); otherwise the requested planner runs and its output
    is checked layer by layer, including one layout-transform kernel per
    edge transform the plan inserts, sized from the tensor it relays.
    """
    report = LintReport(target=netdef.name, device=device.name, strategy=strategy)
    report.diagnostics += lint_netdef(netdef, config)
    if any(d.severity is Severity.ERROR for d in report.diagnostics):
        return report

    options = PipelineOptions(
        strategy="heuristic" if strategy == "heuristic" else "optimal"
    )
    result = run_pipeline(
        device, lower_netdef(netdef), options, context=context
    )
    graph = result.graph
    thresholds = thresholds_for(device)
    report.diagnostics += lint_plan(
        device, graph, thresholds, config, network=netdef.name
    )
    report.diagnostics += lint_graph(graph, device, config, network=netdef.name)

    for node in graph.topological():
        for t in node.transforms:
            dims = graph.transform_dims(node, t)
            if dims is None:
                continue
            desc = TensorDesc(*dims, layout=t.from_layout)
            transform = make_transform_kernel(desc, t.to_layout, method="auto")
            report.diagnostics += lint_kernel(
                device,
                transform,
                owner=f"{node.name}[{transform.name}]",
                config=config,
                network=netdef.name,
            )
        if node.kernel_layout is None:
            continue
        kernel = _node_kernel(node)
        if kernel is not None:
            report.diagnostics += lint_kernel(
                device,
                kernel,
                owner=f"{node.name}[{node.implementation}]",
                config=config,
                network=netdef.name,
            )
    return report
