"""Pass contracts: named invariants a pipeline pass promises its output.

Each :class:`repro.core.pipeline.Pass` declares which invariants hold on
the graph it returns (``Pass.contracts``).  With verification enabled the
:class:`~repro.core.pipeline.PassManager` runs the declared checks after
every pass and attributes the *first* violation to the offending pass by
name — turning "the pipeline's output lints clean" into "every
intermediate graph is provably consistent, and a bug is pinned to the
pass that introduced it".

Contracts are registered by name so passes (including third-party ones
added around :func:`repro.core.pipeline.default_passes`) can declare any
subset.  The checks reuse the same dataflow sweeps as the D-rules; a
contract violation is a verification failure, so severity is uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ...ir.graph import Graph
from ..rules.base import Finding
from .interp import (
    check_inverse_pairs,
    check_layout_coherence,
    check_shapes,
    check_structure,
    check_transform_annotations,
)
from .liveness import check_double_counts, check_liveness

CheckFn = Callable[[Graph], Iterable[Finding]]


@dataclass(frozen=True)
class Contract:
    """One named invariant: what it promises and how to check it."""

    name: str
    description: str
    check: CheckFn


CONTRACTS: dict[str, Contract] = {}


def contract(name: str, description: str) -> Callable[[CheckFn], CheckFn]:
    """Register an invariant check under a stable contract name."""
    if name in CONTRACTS:
        raise ValueError(f"duplicate contract {name!r}")

    def decorate(fn: CheckFn) -> CheckFn:
        CONTRACTS[name] = Contract(name=name, description=description, check=fn)
        return fn

    return decorate


@contract(
    "structure",
    "no dangling edges, malformed transforms, degenerate concats, "
    "schedule-order violations, or duplicate edges",
)
def _structure(graph: Graph) -> Iterator[Finding]:
    yield from check_structure(graph)
    yield from check_liveness(graph)
    yield from check_double_counts(graph)


@contract(
    "shapes",
    "every edge's shape fact matches its consumer's annotations "
    "(shapes are preserved by the pass)",
)
def _shapes(graph: Graph) -> Iterator[Finding]:
    yield from check_shapes(graph)


@contract(
    "layouts-assigned",
    "every layout-bearing (conv/pool) node carries a storage layout",
)
def _layouts_assigned(graph: Graph) -> Iterator[Finding]:
    for node in graph.topological():
        if node.kind.layout_bearing and node.layout is None:
            yield Finding(
                node.name,
                f"{node.kind.value} node has no layout after assignment",
                {"kind": node.kind.value},
            )


@contract(
    "layout-coherent",
    "every consumed layout is produced: each edge's arriving layout "
    "(after its transform) equals the consumer's layout, and every "
    "transform annotation matches the dataflow facts",
)
def _layout_coherent(graph: Graph) -> Iterator[Finding]:
    yield from check_layout_coherence(graph)
    yield from check_transform_annotations(graph)


@contract(
    "no-inverse-pairs",
    "no layout-agnostic node sits between neighbours that all share one "
    "other layout (relabeling it would cancel every incident transform); "
    "relabels that only win on cost are not checked",
)
def _no_inverse_pairs(graph: Graph) -> Iterator[Finding]:
    yield from check_inverse_pairs(graph)


@dataclass(frozen=True)
class ContractViolation:
    """One broken invariant, attributed to the pass that emitted the graph."""

    pass_name: str
    contract: str
    subject: str
    message: str

    def format(self) -> str:
        return (
            f"pass {self.pass_name!r} broke contract {self.contract!r} "
            f"at {self.subject}: {self.message}"
        )


def check_contracts(
    graph: Graph, names: Iterable[str], pass_name: str = ""
) -> list[ContractViolation]:
    """Run the named contracts over one graph; unknown names raise."""
    violations: list[ContractViolation] = []
    for name in names:
        if name not in CONTRACTS:
            raise ValueError(
                f"unknown contract {name!r}; registered: {sorted(CONTRACTS)}"
            )
        for finding in CONTRACTS[name].check(graph):
            violations.append(
                ContractViolation(
                    pass_name=pass_name,
                    contract=name,
                    subject=finding.subject,
                    message=finding.message,
                )
            )
    return violations
