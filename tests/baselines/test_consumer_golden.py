"""Golden consumer outputs: scheme timings and memory footprints, float
for float.

``golden/consumers.json`` holds every scheme's ``total_ms`` from
``compare_schemes`` and the four ``MemoryFootprint`` fields from
``plan_within_memory`` on every bundled network, both devices, inference
and training, generated once at the commit the file's ``commit`` records.
The other tests here check orderings; these pin the numbers, so a refactor
of the consumers cannot move a modelled figure unnoticed.

A change that alters these numbers on purpose (a model fix, a new
planner) must regenerate the affected entries and say why in its commit.
"""

import json
from pathlib import Path

import pytest

from repro.baselines import SCHEMES, compare_schemes
from repro.framework.memory import plan_within_memory
from repro.gpusim import TITAN_BLACK, TITAN_X
from repro.gpusim.session import SimulationContext
from repro.networks import NETWORK_BUILDERS, build_network

GOLDEN = json.loads((Path(__file__).parent / "golden" / "consumers.json").read_text())

CASES = [
    pytest.param(device, name, training, id=f"{device.name}-{name}-{mode}")
    for device in (TITAN_BLACK, TITAN_X)
    for name in NETWORK_BUILDERS
    for training, mode in ((False, "inference"), (True, "training"))
]


@pytest.fixture(scope="module")
def contexts():
    """One timing cache per device, shared by every case in this module."""
    return {d: SimulationContext(d) for d in (TITAN_BLACK, TITAN_X)}


def _key(device, name, training):
    return f"{device.name}/{name}/{'training' if training else 'inference'}"


def test_fixture_covers_every_case():
    keys = {_key(*case.values) for case in CASES}
    assert set(GOLDEN["schemes"]) == keys
    assert set(GOLDEN["footprints"]) == keys


@pytest.mark.parametrize("device, name, training", CASES)
def test_scheme_totals_match_golden(contexts, device, name, training):
    results = compare_schemes(
        build_network(name), device, SCHEMES, training, context=contexts[device]
    )
    got = {scheme: results[scheme].total_ms for scheme in SCHEMES}
    assert got == GOLDEN["schemes"][_key(device, name, training)]


@pytest.mark.parametrize("device, name, training", CASES)
def test_footprint_matches_golden(contexts, device, name, training):
    _, fp = plan_within_memory(
        device, build_network(name), training, context=contexts[device]
    )
    got = {
        "activations_bytes": fp.activations_bytes,
        "weights_bytes": fp.weights_bytes,
        "workspace_bytes": fp.workspace_bytes,
        "transform_bytes": fp.transform_bytes,
    }
    assert got == GOLDEN["footprints"][_key(device, name, training)]
