"""The traced kernels' transaction counts are frozen.

The NCHW pooling kernels and the naive transform price their DRAM traffic
by pushing sampled warp traces through the coalescing unit.  Their counts
are held to ``golden/traced_profiles.json``: the ``repr`` of
``load_transactions`` of both NCHW pooling kernels on every Table 1
pooling layer and every pooling layer of the bundled networks, and of the
naive transform's ``store_transactions`` on every layout pair the planner
prices on those networks' edges, on both bundled devices.  Regenerate
with ``python -m tests.layers.test_traced_profiles`` from the repository
root, with ``src`` on ``PYTHONPATH``, only for a declared model change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.pipeline import _edge_desc
from repro.core.planner import PLAN_LAYOUTS
from repro.gpusim import TITAN_BLACK, TITAN_X
from repro.ir.build import infer_shapes, lower_netdef
from repro.ir.graph import NodeKind
from repro.layers import PoolingNCHWBlockPerRow, PoolingNCHWLinear
from repro.networks import NETWORK_BUILDERS, POOL_LAYERS, build_network
from repro.tensors import TensorDesc
from repro.tensors.transform_kernels import NaiveTransformKernel

GOLDEN_PATH = Path(__file__).parent / "golden" / "traced_profiles.json"
DEVICES = (TITAN_BLACK, TITAN_X)
POOL_KERNELS = (PoolingNCHWLinear, PoolingNCHWBlockPerRow)


def _graphs():
    for name in sorted(NETWORK_BUILDERS):
        yield name, infer_shapes(lower_netdef(build_network(name)))


def pool_specs():
    """Label -> spec: Table 1's layers, then each network's pooling nodes."""
    specs = dict(POOL_LAYERS)
    for name, graph in _graphs():
        for node in graph:
            if node.kind is NodeKind.POOL:
                specs[f"{name}/{node.name}"] = node.spec
    return specs


def transform_edges():
    """Label -> (desc, target) for every distinct edge transform the
    planner prices on the bundled networks."""
    edges = {}
    for _, graph in _graphs():
        for node in graph:
            for src_name in node.inputs:
                for src in PLAN_LAYOUTS:
                    for dst in PLAN_LAYOUTS:
                        desc = _edge_desc(graph[src_name], node, src, dst)
                        if desc is None:
                            continue
                        dims, src_l, dst_l = desc
                        label = f"{'x'.join(map(str, dims))} {src_l}->{dst_l}"
                        edges[label] = (TensorDesc(*dims, layout=src_l), dst_l)
    return edges


def traced_counts(device):
    """Fixture key -> ``repr`` of the traced transaction count."""
    counts = {}
    for label, spec in pool_specs().items():
        for kernel_cls in POOL_KERNELS:
            kernel = kernel_cls(spec)
            profile = kernel.memory_profile(device)
            counts[f"{device.name}/{kernel.name}/{label}"] = repr(
                profile.load_transactions
            )
    for label, (desc, target) in transform_edges().items():
        profile = NaiveTransformKernel(desc, target).memory_profile(device)
        counts[f"{device.name}/transform-naive/{label}"] = repr(
            profile.store_transactions
        )
    return counts


def _write_golden() -> None:
    """Write every count on both devices, one line each."""
    rows = [
        f"  {json.dumps(key)}: {json.dumps(value)}"
        for device in DEVICES
        for key, value in traced_counts(device).items()
    ]
    source = (
        "tests/layers/test_traced_profiles.py traced_counts: repr of "
        "load_transactions (NCHW pooling) and store_transactions (naive "
        "transform) per device"
    )
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        '{\n "commit": "3f88fb8",\n'
        f' "source": {json.dumps(source)},\n'
        ' "counts": {\n' + ",\n".join(rows) + "\n }\n}\n"
    )


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())["counts"]


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.name)
def test_traced_counts_are_frozen(device, golden):
    frozen = {k: v for k, v in golden.items() if k.startswith(f"{device.name}/")}
    assert traced_counts(device) == frozen


def test_fixture_covers_every_traced_kernel(golden):
    kinds = {key.split("/")[1] for key in golden}
    assert kinds == {"pool-nchw-linear", "pool-nchw-rowblock", "transform-naive"}
    networks = {key.split("/")[2] for key in golden if "pool-nchw" in key}
    assert set(NETWORK_BUILDERS) <= networks


if __name__ == "__main__":
    _write_golden()
