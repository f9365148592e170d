"""Golden plans: the pass pipeline reproduces the frozen legacy planner.

``golden/plans.json`` holds the plans the original chain-only planners
(``_legacy_plan_with_heuristic`` / ``_legacy_plan_optimal``) produced on
every bundled chain network, plus the heuristic and optimal
``plan_network`` plans of the branching ``inception`` network, all
generated once at the commit recorded in the file.  These tests pin the
public planners to those plans — step sequence, layouts,
implementations, transform records, and total time, float for float.

A change that alters a plan on purpose (a new DAG solver, a model fix)
must regenerate the affected entries and say why in its commit.
"""

import json
from pathlib import Path

import pytest

from repro.core.pipeline import PipelineOptions, plan_network
from repro.core.planner import plan_optimal, plan_with_heuristic
from repro.framework import Net
from repro.gpusim.session import SimulationContext
from repro.networks import build_network

CHAIN_NETWORKS = ("lenet", "cifar", "alexnet", "alexnet-grouped", "zfnet", "vgg")

GOLDEN = json.loads((Path(__file__).parent / "golden" / "plans.json").read_text())


@pytest.fixture(scope="module")
def ctx(device):
    """One shared timing cache for every planner run in this module."""
    assert device.name == GOLDEN["device"]
    return SimulationContext(device, check_memory=False)


def _layout(value):
    return None if value is None else str(value)


def plan_record(plan) -> dict:
    """A plan as the JSON fixture stores it (exact floats, string layouts)."""
    return {
        "device": plan.device,
        "strategy": plan.strategy,
        "total_ms": plan.total_ms,
        "steps": [
            {
                "name": s.name,
                "kind": s.kind.value,
                "layout": _layout(s.layout),
                "implementation": s.implementation,
                "layer_ms": s.layer_ms,
                "transform_ms": s.transform_ms,
                "coarsening": None if s.coarsening is None else list(s.coarsening),
                "transformed_from": _layout(s.transformed_from),
                "transformed_to": _layout(s.transformed_to),
            }
            for s in plan.steps
        ],
    }


def assert_matches_golden(plan, key):
    got, want = plan_record(plan), GOLDEN["plans"][key]
    assert len(got["steps"]) == len(want["steps"])
    for g, w in zip(got["steps"], want["steps"]):
        assert g == w, f"{key} {g['name']}: {g} != {w}"
    assert got == want


def _nodes(name, device, ctx):
    return Net(build_network(name), context=ctx).planner_nodes(device)


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
def test_wrapper_matches_legacy_heuristic(name, device, ctx):
    plan = plan_with_heuristic(device, _nodes(name, device, ctx), context=ctx)
    assert_matches_golden(plan, f"heuristic/{name}")


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
def test_wrapper_matches_legacy_optimal(name, device, ctx):
    plan = plan_optimal(device, _nodes(name, device, ctx), context=ctx)
    assert_matches_golden(plan, f"optimal/{name}")


@pytest.mark.parametrize("name", CHAIN_NETWORKS)
@pytest.mark.parametrize("strategy", ("heuristic", "optimal"))
def test_plan_network_matches_legacy(name, strategy, device, ctx):
    """The netdef entry point (lowering through the IR, not through
    PlanNodes) still lands on the exact legacy plan."""
    result = plan_network(
        device, build_network(name), PipelineOptions(strategy=strategy), context=ctx
    )
    assert_matches_golden(result.plan, f"{strategy}/{name}")


@pytest.mark.parametrize("strategy", ("heuristic", "optimal"))
def test_dag_plan_network_matches_golden(strategy, device, ctx):
    """The branching network's plans are frozen too, so a new DAG solver
    has to update them on purpose."""
    result = plan_network(
        device, build_network("inception"), PipelineOptions(strategy=strategy), context=ctx
    )
    assert_matches_golden(result.plan, f"{strategy}/inception")


def test_no_fft_option_respected(device, ctx):
    plan = plan_optimal(
        device, _nodes("alexnet", device, ctx), allow_fft=False, context=ctx
    )
    assert_matches_golden(plan, "optimal-no-fft/alexnet")
    assert all("fft" not in s.implementation for s in plan.steps)


def test_empty_chain(device):
    assert plan_optimal(device, []).steps == ()
    assert plan_with_heuristic(device, []).steps == ()
