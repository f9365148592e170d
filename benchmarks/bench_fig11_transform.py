"""Fig. 11 — layout-transformation kernels: Naive vs Opt1 vs Opt2.

Paper: Opt1 (flatten + tiled shared-memory transpose) gives an average
6.48x over naive; Opt2 (float2 vectorization, N >= 64 only) pushes the
best case to 229.5 GB/s on CONV6's tensor — 97.6% of effective bandwidth.
"""

from __future__ import annotations

import math

from figutil import FigureTable

from repro.gpusim import default_context
from repro.networks import CONV_LAYERS
from repro.tensors import CHWN, NCHW, make_transform_kernel


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Fig. 11: transformation bandwidth (GB/s moved: read+write / time)",
        ["layer", "naive", "opt1", "opt2"],
    )
    for name, spec in CONV_LAYERS.items():
        desc = spec.in_desc(CHWN)
        bws = []
        for method in ("naive", "opt1", "opt2"):
            try:
                kernel = make_transform_kernel(desc, NCHW, method)
            except ValueError:
                bws.append(float("nan"))  # Opt2 needs N >= 64
                continue
            stats = ctx.run(kernel, check_memory=False)
            bws.append(2 * desc.nbytes / (stats.time_ms * 1e6))
        table.add(name, *bws)
    table.note("paper: Opt2 n/a for CV9-CV12 (N=32); CV6 reaches 97.6% of 235 GB/s")
    return table


def test_fig11(benchmark, device):
    table = benchmark(build_figure, device)
    rows = {r[0]: r for r in table.rows}
    # Opt2 inapplicable exactly where N < 64 (CV9-CV12).
    for name, spec in CONV_LAYERS.items():
        assert math.isnan(rows[name][3]) == (spec.n < 64), name
    # The ladder: naive < opt1 < opt2 (where applicable).
    for name, r in rows.items():
        assert r[1] < r[2]
        if not math.isnan(r[3]):
            assert r[2] < r[3]
    # CV6 approaches the effective bandwidth.
    assert rows["CV6"][3] > 0.90 * device.mem_bandwidth_gbs
    # Average Opt1-over-naive gain in the paper's zone (6.48x).
    gains = [r[2] / r[1] for r in rows.values()]
    assert 4 < sum(gains) / len(gains) < 12


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
