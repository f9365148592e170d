"""Section IV.A/IV.D — one-time calibration cost and threshold recovery.

Paper: thresholds "only relate to the property of the hardware", found by
one-time profiling; "the profiling time overhead is relatively low (e.g.,
395 ms for AlexNet in a complete forward-backward profiling)".
"""

from __future__ import annotations

from figutil import FigureTable

from repro.core import calibrate


def build_figure(devices) -> FigureTable:
    table = FigureTable(
        "Calibration: recovered thresholds and simulated profiling cost",
        ["device", "ct", "nt", "profiling_ms"],
    )
    for device in devices:
        result = calibrate(device)
        table.add(
            device.name, result.thresholds.ct, result.thresholds.nt,
            result.profiling_ms,
        )
    table.note("paper: Titan Black (32, 128); Titan X (128, 64); ~395 ms profiling")
    return table


def test_calibration(benchmark, device, titan_x):
    table = benchmark(build_figure, [device, titan_x])
    black = table.row("GTX Titan Black")
    maxwell = table.row("GTX Titan X")
    assert black[2] == 128  # Nt
    assert black[1] in (32, 64)  # Ct (decision-equivalent grid point)
    assert (maxwell[1], maxwell[2]) == (128, 64)
    # One-time profiling stays sub-second of simulated GPU time.
    assert black[3] < 2000


if __name__ == "__main__":
    from repro.gpusim import TITAN_BLACK, TITAN_X

    build_figure([TITAN_BLACK, TITAN_X]).show()
