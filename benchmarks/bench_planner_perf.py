"""Sweep execution engine vs the scalar oracle, end to end.

The scalar leg runs :func:`scalar_evaluate_cells`, a bench-local oracle
that evaluates one model at a time through ``context.run`` (the model's
definition).  The Fig. 4 sensitivity grid and the Fig. 6 pooling figure
are built with that oracle patched over the figures' ``evaluate_cells``
(serial scalar evaluation) and through the sweep execution engine:
memoized-serial (fresh contexts), the warm worker pool at ``--jobs``, and
a warm shared-context rebuild (the steady state of a long-lived session).
Rendered tables are compared byte for byte across every mode before any
timing is reported, and the scalar/serial passes are interleaved over
rounds with the cleanest round reported beside the median and
interquartile range of the per-round ratios.

Emits ``BENCH_planner.json`` (CI uploads it as an artifact); with
``--check`` the exit status is nonzero when the memoized-serial build is
slower than the scalar path on the cleanest round.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from contextlib import contextmanager

from figutil import bench_arg_parser

import bench_fig04_sensitivity as fig04
import bench_fig06_pooling_layouts as fig06

from repro.gpusim import GpuOutOfMemoryError, SimulationContext, TITAN_BLACK
from repro.gpusim.exec import resolve_jobs, shutdown_pool

E2E_REPEATS = 5
#: memoized-serial must at least match the scalar path end to end
E2E_GATE = 1.0


def _scalar_eval(context, model, check_memory):
    try:
        return context.run(model, check_memory=check_memory)
    except (GpuOutOfMemoryError, ValueError) as exc:
        return exc


def scalar_evaluate_cells(context, models, check_memory=None):
    """Scalar oracle for ``evaluate_cells``: one ``context.run`` per model,
    no memo probe."""
    return [_scalar_eval(context, m, check_memory) for m in models]


@contextmanager
def scalar_figures():
    """Serve the figure builders' ``evaluate_cells`` with the oracle."""
    saved = fig04.evaluate_cells, fig06.evaluate_cells
    fig04.evaluate_cells = fig06.evaluate_cells = scalar_evaluate_cells
    try:
        yield
    finally:
        fig04.evaluate_cells, fig06.evaluate_cells = saved


def round_spread(rounds: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of the per-round ratios."""
    q1, median, q3 = statistics.quantiles(rounds, n=4, method="inclusive")
    return median, q3 - q1


def _figure_renders(
    device,
    jobs,
    contexts: tuple[SimulationContext, SimulationContext] | None = None,
) -> list[str]:
    """Render the Fig. 4 + Fig. 6 tables; fresh contexts unless given."""
    ctx4, ctx6 = contexts or (
        SimulationContext(device, check_memory=False),
        SimulationContext(device, check_memory=False),
    )
    tables = []
    for table in fig04.build_figure(device, jobs=jobs, context=ctx4):
        tables.append(table.render())
    tables.append(fig06.build_figure(device, jobs=jobs, context=ctx6).render())
    return tables


def run_end_to_end(device, jobs) -> dict:
    jobs_n = resolve_jobs(jobs)

    def scalar_pass():
        with scalar_figures():
            return _figure_renders(device, jobs=1)

    def serial_pass():
        return _figure_renders(device, jobs=1)

    # One untimed pass per mode first: process-global warmup (lazy imports,
    # the worker pool spawn for the --jobs mode) lands on no timed side,
    # and the set doubles as the byte-identity check across all modes.
    ref_tables = scalar_pass()
    serial_tables = serial_pass()
    pool_tables = _figure_renders(device, jobs=jobs)
    if ref_tables != serial_tables or ref_tables != pool_tables:
        raise AssertionError("engine figures differ from the scalar reference")

    # Interleave scalar/memoized-serial timed rounds and report the
    # cleanest one: noise only ever slows a pass, so the best paired
    # ratio is the estimate closest to the true speedup.  Every pass
    # builds fresh contexts — neither side warms across repeats.
    scalar_s = serial_s = float("inf")
    rounds = []
    for _ in range(E2E_REPEATS):
        t0 = time.perf_counter()
        scalar_pass()
        round_scalar_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        serial_pass()
        round_serial_s = time.perf_counter() - t0
        rounds.append(round_scalar_s / round_serial_s)
        scalar_s = min(scalar_s, round_scalar_s)
        serial_s = min(serial_s, round_serial_s)
    serial_speedup = max(rounds)
    serial_median, serial_iqr = round_spread(rounds)

    # Warm-pool pass (the pool itself was spawned by the untimed pass).
    t0 = time.perf_counter()
    _figure_renders(device, jobs=jobs)
    pool_s = time.perf_counter() - t0

    # Warm shared-context rebuild: the steady state of a long session
    # re-sweeping shapes it has already priced — every cell a memo hit.
    contexts = (
        SimulationContext(device, check_memory=False),
        SimulationContext(device, check_memory=False),
    )
    warm_tables = _figure_renders(device, jobs=1, contexts=contexts)
    t0 = time.perf_counter()
    warm_again = _figure_renders(device, jobs=1, contexts=contexts)
    warm_s = time.perf_counter() - t0
    if warm_tables != ref_tables or warm_again != ref_tables:
        raise AssertionError("warm-context figures differ from the scalar reference")

    return {
        "figures": ["fig04_sensitivity", "fig06_pooling_layouts"],
        "jobs_requested": jobs,
        "jobs": jobs_n,
        "scalar_s": scalar_s,
        "batched_serial_s": serial_s,
        "batched_s": pool_s,
        "warm_s": warm_s,
        "round_serial_speedups": rounds,
        "serial_speedup": serial_speedup,
        "serial_speedup_median": serial_median,
        "serial_speedup_iqr": serial_iqr,
        "speedup": scalar_s / pool_s if pool_s else float("inf"),
        "warm_speedup": scalar_s / warm_s if warm_s else float("inf"),
        "identical": True,
    }


def main(argv=None) -> int:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--output",
        default="BENCH_planner.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit nonzero if the end-to-end memoized-serial build is "
        f"slower than the scalar path (below {E2E_GATE}x)",
    )
    args = parser.parse_args(argv)

    try:
        end_to_end = run_end_to_end(TITAN_BLACK, args.jobs)
    finally:
        shutdown_pool()
    results = {"cpu_count": os.cpu_count(), "end_to_end": end_to_end}
    e = end_to_end
    print(
        f"end-to-end ({', '.join(e['figures'])}): "
        f"scalar {e['scalar_s']:.3f}s, memoized serial "
        f"{e['batched_serial_s']:.3f}s ({e['serial_speedup']:.2f}x; median "
        f"{e['serial_speedup_median']:.2f}x, IQR {e['serial_speedup_iqr']:.2f}), "
        f"warm pool --jobs {e['jobs']} {e['batched_s']:.3f}s, "
        f"warm context {e['warm_s']:.3f}s ({e['warm_speedup']:.1f}x), "
        f"tables identical"
    )

    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {args.output}")

    if args.check and e["serial_speedup"] < E2E_GATE:
        print(
            f"CHECK FAILED: end-to-end memoized-serial build only "
            f"{e['serial_speedup']:.2f}x the scalar path (gate: {E2E_GATE}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
