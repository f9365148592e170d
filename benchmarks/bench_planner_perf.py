"""The session memo end to end: fresh versus warm figure builds.

The Fig. 4 sensitivity grid and the Fig. 6 pooling figure are built on
fresh simulation contexts (every cell timed once, repeats within a build
served from the memo) and rebuilt on a warm shared context (the steady
state of a long-lived session: every cell a memo hit).  Rendered tables
are compared byte for byte between the two before any timing is
reported; fresh builds are timed over several rounds and reported as the
median and interquartile range.

Emits ``BENCH_planner.json`` (CI uploads it as an artifact); the exit
status is nonzero when a warm table differs from the fresh one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import bench_fig04_sensitivity as fig04
import bench_fig06_pooling_layouts as fig06

from repro.gpusim import SimulationContext, TITAN_BLACK

E2E_REPEATS = 5


def round_spread(rounds: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of the per-round timings."""
    q1, median, q3 = statistics.quantiles(rounds, n=4, method="inclusive")
    return median, q3 - q1


def _figure_renders(
    device,
    contexts: tuple[SimulationContext, SimulationContext] | None = None,
) -> list[str]:
    """Render the Fig. 4 + Fig. 6 tables; fresh contexts unless given."""
    ctx4, ctx6 = contexts or (
        SimulationContext(device, check_memory=False),
        SimulationContext(device, check_memory=False),
    )
    tables = []
    for table in fig04.build_figure(device, context=ctx4):
        tables.append(table.render())
    tables.append(fig06.build_figure(device, context=ctx6).render())
    return tables


def run_end_to_end(device) -> dict:
    # One untimed fresh build first: process-global warmup (lazy imports)
    # lands on no timed round, and it is the identity reference.
    ref_tables = _figure_renders(device)

    rounds = []
    for _ in range(E2E_REPEATS):
        t0 = time.perf_counter()
        tables = _figure_renders(device)
        rounds.append(time.perf_counter() - t0)
        if tables != ref_tables:
            raise AssertionError("fresh figure builds disagree with each other")
    fresh_median, fresh_iqr = round_spread(rounds)

    # Warm shared-context rebuild: the steady state of a long session
    # re-sweeping shapes it has already priced — every cell a memo hit.
    contexts = (
        SimulationContext(device, check_memory=False),
        SimulationContext(device, check_memory=False),
    )
    warm_tables = _figure_renders(device, contexts=contexts)
    t0 = time.perf_counter()
    warm_again = _figure_renders(device, contexts=contexts)
    warm_s = time.perf_counter() - t0
    if warm_tables != ref_tables or warm_again != ref_tables:
        raise AssertionError("warm-context figures differ from the fresh build")

    return {
        "figures": ["fig04_sensitivity", "fig06_pooling_layouts"],
        "round_fresh_s": rounds,
        "fresh_s": fresh_median,
        "fresh_iqr_s": fresh_iqr,
        "warm_s": warm_s,
        "warm_speedup": fresh_median / warm_s if warm_s else float("inf"),
        "identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        default="BENCH_planner.json",
        help="where to write the results JSON",
    )
    args = parser.parse_args(argv)

    end_to_end = run_end_to_end(TITAN_BLACK)
    results = {"cpu_count": os.cpu_count(), "end_to_end": end_to_end}
    e = end_to_end
    print(
        f"end-to-end ({', '.join(e['figures'])}): "
        f"fresh {e['fresh_s']:.3f}s (median of {E2E_REPEATS}, "
        f"IQR {e['fresh_iqr_s']:.3f}s), warm context {e['warm_s']:.3f}s "
        f"({e['warm_speedup']:.1f}x), tables identical"
    )

    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
