"""Extension — Winograd fast convolution (the paper's Section VII outlook).

"More techniques leveraging arithmetic complexity may be proposed in the
future for CNNs, e.g., the recent proposal from Nervana Systems [16].  They
can set state-of-the-art performance for a group of layers, for which they
suit ... Nevertheless, the underlying impact from data layout remains."

This harness checks both halves of that prediction against the model:
Winograd wins a *group* of layers (deep 3x3 convolutions), and the CHWN/
NCHW layout story is unchanged for the layers it cannot serve.
"""

from __future__ import annotations

from figutil import FigureTable

from repro.gpusim import GpuOutOfMemoryError, default_context
from repro.layers import ConvUnsupportedError, make_conv_kernel
from repro.networks import CONV_LAYERS


def build_figure(device) -> FigureTable:
    ctx = default_context(device)
    table = FigureTable(
        "Winograd extension: time (ms) per implementation, Table-1 conv layers",
        ["layer", "direct", "im2col", "fft", "winograd", "winner"],
    )
    for name, spec in CONV_LAYERS.items():
        times = {}
        for impl in ("direct", "im2col", "fft", "winograd"):
            try:
                times[impl] = ctx.run(make_conv_kernel(spec, impl)).time_ms
            except (ConvUnsupportedError, GpuOutOfMemoryError):
                times[impl] = float("nan")
        winner = min(
            (t, impl) for impl, t in times.items() if t == t  # skip NaN
        )[1]
        table.add(
            name, times["direct"], times["im2col"], times["fft"],
            times["winograd"], winner,
        )
    return table


def test_extension_winograd(benchmark, device):
    import math

    table = benchmark(build_figure, device)
    rows = {r[0]: r for r in table.rows}
    # Winograd serves exactly the 3x3/stride-1 layers.
    for name, spec in CONV_LAYERS.items():
        supported = spec.fh == 3 and spec.stride == 1
        assert math.isnan(rows[name][4]) != supported, name
    # It wins a group of deep 3x3 layers over plain MM.
    beats_mm = [
        name for name, r in rows.items()
        if not math.isnan(r[4]) and r[4] < r[2]
    ]
    assert len(beats_mm) >= 2
    # And the layout story is untouched where Winograd cannot run: the
    # CHWN-preferring layers still prefer CHWN.
    for name in ("CV1", "CV2", "CV3", "CV4", "CV5"):
        r = rows[name]
        alternatives = [t for t in (r[2], r[3], r[4]) if not math.isnan(t)]
        assert r[1] < min(alternatives), name


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK

    build_figure(TITAN_BLACK).show()
