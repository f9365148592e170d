"""Graph verification entry points: ``verify_graph`` and ``repro verify``.

:func:`verify_graph` runs every D-rule (the dataflow analyses) over one
annotated graph and returns the diagnostics — the programmatic API the
pipeline, tests, and tooling share.  :func:`verify_network` is the CLI's
whole-network path: plan through the pass pipeline *with pass-contract
verification enabled*, verify the final graph, and attach the
liveness-based footprint, so one command answers "is this network's plan
provably consistent and what does it really peak at?".
"""

from __future__ import annotations

from ...framework.netdef import NetworkDef
from ...gpusim.device import DeviceSpec
from ...gpusim.session import SimulationContext
from ...ir.graph import Graph
from ..lint import DEFAULT_CONFIG, LintConfig, LintReport, _run_scope
from ..rules.base import Diagnostic, GraphScope
from .liveness import LivenessFootprint, liveness_footprint


def verify_graph(
    graph: Graph,
    device: DeviceSpec | None = None,
    config: LintConfig = DEFAULT_CONFIG,
    network: str = "",
) -> list[Diagnostic]:
    """Run the D0xx dataflow rules over one annotated graph."""
    return _run_scope(
        "graph",
        GraphScope(graph=graph, device=device),
        config,
        network=network or graph.name,
    )


def verify_network(
    device: DeviceSpec,
    netdef: NetworkDef,
    strategy: str = "optimal",
    config: LintConfig = DEFAULT_CONFIG,
    context: SimulationContext | None = None,
    training: bool = False,
) -> tuple[LintReport, LivenessFootprint]:
    """Plan one network with pass-contract verification on, then verify
    the final graph and compute its liveness footprint.

    A :class:`~repro.core.pipeline.PassContractError` from the pipeline
    propagates — a broken pass is a bug to attribute, not a diagnostic to
    collect.
    """
    from ...core.pipeline import PipelineOptions, plan_network

    options = PipelineOptions(
        strategy="heuristic" if strategy == "heuristic" else "optimal",
        verify=True,
    )
    result = plan_network(device, netdef, options, context=context)
    report = LintReport(
        target=netdef.name, device=device.name, strategy=strategy
    )
    report.diagnostics = verify_graph(
        result.graph, device, config, network=netdef.name
    )
    return report, liveness_footprint(result.graph, training=training)
