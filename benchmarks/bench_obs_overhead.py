"""Tracing overhead: the observability layer must cost (almost) nothing.

Builds the Fig. 6 pooling-layout figure twice — tracing off, then with a
full span tracer installed — on fresh simulation contexts, checks the
rendered tables are byte-identical (tracing is strictly observational),
and reports the wall-clock overhead of the traced run.

Emits ``BENCH_obs.json``; with ``--check`` the exit status is nonzero if
the traced run is more than ``--max-overhead`` (default 5%) slower than
the untraced baseline over the best of ``--repeat`` rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import bench_fig06_pooling_layouts as fig06

from repro.gpusim import TITAN_BLACK, SimulationContext
from repro.obs import Tracer, install_tracer, uninstall_tracer


def _build(device) -> tuple[float, str]:
    ctx = SimulationContext(device, check_memory=False)
    t0 = time.perf_counter()
    table = fig06.build_figure(device, context=ctx)
    return time.perf_counter() - t0, table.render()


def run_overhead(device, repeat: int) -> dict:
    """Best-of-``repeat`` wall times for the fig06 sweep, untraced vs
    traced.  Best-of (not mean) because the baseline and traced runs do
    identical simulation work — the minimum is the least-noise estimate."""
    untraced: list[float] = []
    traced: list[float] = []
    reference = None
    span_count = 0
    for _ in range(repeat):
        seconds, rendered = _build(device)
        untraced.append(seconds)
        if reference is None:
            reference = rendered
        elif rendered != reference:
            raise AssertionError("untraced runs disagree with each other")
        tracer = install_tracer(Tracer("bench-obs"))
        try:
            seconds, rendered = _build(device)
        finally:
            uninstall_tracer()
        traced.append(seconds)
        span_count = len(tracer.spans())
        if rendered != reference:
            raise AssertionError("traced Fig. 6 differs from untraced")

    best_untraced = min(untraced)
    best_traced = min(traced)
    return {
        "figure": "fig06_pooling_layouts",
        "repeat": repeat,
        "untraced_s": best_untraced,
        "traced_s": best_traced,
        "spans_recorded": span_count,
        "overhead": best_traced / best_untraced - 1.0,
        "identical": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="measurement rounds; the best (fastest) of each mode is kept",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="--check fails when traced/untraced - 1 exceeds this fraction",
    )
    parser.add_argument(
        "--output",
        default="BENCH_obs.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if tracing overhead exceeds --max-overhead",
    )
    args = parser.parse_args(argv)

    results = {
        "cpu_count": os.cpu_count(),
        "max_overhead": args.max_overhead,
        "overhead": run_overhead(TITAN_BLACK, args.repeat),
    }
    o = results["overhead"]
    print(
        f"fig06 sweep (best of {o['repeat']}): "
        f"untraced {o['untraced_s']:.3f}s, traced {o['traced_s']:.3f}s "
        f"-> {o['overhead']:+.1%} overhead, {o['spans_recorded']} spans, "
        f"tables identical"
    )

    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {args.output}")

    if args.check and o["overhead"] > args.max_overhead:
        print(
            f"CHECK FAILED: tracing overhead {o['overhead']:.1%} exceeds "
            f"{args.max_overhead:.0%}"
        )
        return 1
    return 0


def test_obs_overhead(device):
    """Tier-agnostic smoke: traced == untraced tables, overhead bounded.

    The bound here is loose (50%) because CI machines are noisy; the
    ``--check`` entry point applies the honest 5% gate on quiet hardware.
    """
    result = run_overhead(device, repeat=2)
    assert result["identical"]
    assert result["spans_recorded"] > 0
    assert result["overhead"] < 0.5


if __name__ == "__main__":
    sys.exit(main())
