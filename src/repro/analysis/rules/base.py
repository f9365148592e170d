"""Rule registry and diagnostic vocabulary for the static analyzer.

Every check the linter can perform is a :class:`Rule` with a stable ID
(``N0xx`` network definitions, ``L0xx`` layout plans, ``K0xx`` kernel
models), a default severity, and a human rationale.  Rules register
themselves with the :func:`rule` decorator at import time, and the
built-in rule modules are imported when :data:`REGISTRY` is first read;
the runner in :mod:`repro.analysis.lint` selects the active subset per
scope and turns the findings each rule yields into :class:`Diagnostic`
records.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from importlib import import_module
from typing import Any

from ...framework.netdef import NetworkDef
from ...gpusim.device import DeviceSpec
from ...gpusim.kernel import KernelModel, LaunchConfig, MemoryProfile
from ...ir.build import ShapeProblem, lower_netdef, walk_shapes
from ...ir.graph import Graph, GraphNode


class Severity(Enum):
    """Diagnostic severity, ordered error > warning > info."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Diagnostic:
    """One concrete finding: a rule firing on one subject.

    ``subject`` names the offending layer/step/kernel; ``detail`` carries
    machine-readable context (limits, distances, layout names) for the JSON
    output mode.
    """

    rule_id: str
    severity: Severity
    subject: str
    message: str
    network: str = ""
    detail: dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        scope = f"{self.network}:{self.subject}" if self.network else self.subject
        return f"{scope}: {self.severity.value} {self.rule_id}: {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "subject": self.subject,
            "network": self.network,
            "message": self.message,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Finding:
    """What a rule's check yields; the runner stamps rule ID and severity."""

    subject: str
    message: str
    detail: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Scopes: the three inputs rules can inspect
# ---------------------------------------------------------------------------


@dataclass
class NetdefScope:
    """A network definition under analysis.

    ``error`` carries a parse/construction failure message when the
    definition could not even be built — only rule N000 consumes it.
    """

    net: NetworkDef | None
    error: str | None = None

    @cached_property
    def resolved(self) -> tuple[Graph, list[ShapeProblem]]:
        """``lower_netdef(net)`` after the shape walk, with the walk's
        problems; computed once per scope, so once per ``lint_netdef``."""
        assert self.net is not None
        graph = lower_netdef(self.net)
        return graph, walk_shapes(graph)


@dataclass
class PlanScope:
    """A planned network graph under analysis on one device (rule L003
    reads the device's heuristic thresholds, ``thresholds_for(device)``).

    The edge-walking rule (L002) follows the graph's real
    producer/consumer edges, the only sound reading for branching
    networks; ``nodes`` is the graph in topological order."""

    device: DeviceSpec
    graph: Graph
    #: +/- range around (Ct, Nt) treated as the ambiguous region (L003)
    margin: int = 1

    @property
    def nodes(self) -> tuple[GraphNode, ...]:
        return self.graph.topological()

    @property
    def layout_nodes(self) -> tuple[GraphNode, ...]:
        """The conv/pool nodes with an assigned layout, in execution order."""
        return tuple(n for n in self.nodes if n.kernel_layout is not None)


@dataclass
class GraphScope:
    """An annotated network-graph IR under dataflow verification.

    The D0xx rules run abstract shape/layout interpretation and liveness
    analysis over the graph's real producer→consumer edges, the same
    edges the L002 rule walks.  ``device`` is
    optional context for messages; the checks themselves are pure graph
    dataflow.
    """

    graph: Graph
    device: DeviceSpec | None = None


@dataclass
class KernelScope:
    """One kernel model checked against one device's limits."""

    device: DeviceSpec
    kernel: KernelModel
    owner: str = ""
    _launch: LaunchConfig | None = None
    _profile: MemoryProfile | None = None

    @property
    def subject(self) -> str:
        return self.owner or self.kernel.name

    @property
    def launch(self) -> LaunchConfig:
        if self._launch is None:
            self._launch = self.kernel.launch_config(self.device)
        return self._launch

    @property
    def profile(self) -> MemoryProfile:
        if self._profile is None:
            self._profile = self.kernel.memory_profile(self.device)
        return self._profile


Scope = NetdefScope | PlanScope | KernelScope | GraphScope

CheckFn = Callable[[Any], Iterable[Finding]]

_SCOPE_OF_PREFIX = {"N": "netdef", "L": "plan", "K": "kernel", "D": "graph"}
_ID_PATTERN = re.compile(r"^[NLKD]\d{3}$")


@dataclass(frozen=True)
class Rule:
    """A registered check: identity, documentation, and the check itself."""

    id: str
    severity: Severity
    summary: str
    check: CheckFn
    rationale: str = ""
    example: str = ""

    @property
    def scope(self) -> str:
        """Which input kind the rule inspects (netdef/plan/kernel)."""
        return _SCOPE_OF_PREFIX[self.id[0]]


#: the modules whose ``@rule`` checks make up the built-in catalog
BUILTIN_RULE_MODULES = ("kernel_rules", "layout_rules", "netdef_rules", "dataflow_rules")


class RuleRegistry(Mapping[str, Rule]):
    """Rule ID -> :class:`Rule`; :func:`rule` is the only writer.

    The first read imports :data:`BUILTIN_RULE_MODULES`.  Importing this
    module therefore never imports the rule modules, which import it (and,
    for the D-rules, the dataflow analyses that import it too).
    """

    def __init__(self) -> None:
        self._rules: dict[str, Rule] = {}
        self._loaded = False

    def _load(self) -> dict[str, Rule]:
        if not self._loaded:
            for name in BUILTIN_RULE_MODULES:
                import_module(f"{__package__}.{name}")
            self._loaded = True
        return self._rules

    def __getitem__(self, rule_id: str) -> Rule:
        return self._load()[rule_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._load())

    def __len__(self) -> int:
        return len(self._load())

    def register(self, entry: Rule) -> None:
        if entry.id in self._rules:
            raise ValueError(f"duplicate rule id {entry.id}")
        self._rules[entry.id] = entry


REGISTRY = RuleRegistry()


def rule(
    rule_id: str,
    severity: Severity,
    summary: str,
    rationale: str = "",
    example: str = "",
) -> Callable[[CheckFn], CheckFn]:
    """Register a check function under a stable rule ID."""
    if not _ID_PATTERN.match(rule_id):
        raise ValueError(f"rule id {rule_id!r} must match N/L/K/D + 3 digits")

    def decorator(fn: CheckFn) -> CheckFn:
        REGISTRY.register(
            Rule(
                id=rule_id,
                severity=severity,
                summary=summary,
                check=fn,
                rationale=rationale,
                example=example,
            )
        )
        return fn

    return decorator


def rules_for(scope: str) -> Iterator[Rule]:
    """All registered rules for one scope, in rule-ID order."""
    for rule_id in sorted(REGISTRY):
        if REGISTRY[rule_id].scope == scope:
            yield REGISTRY[rule_id]
