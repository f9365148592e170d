"""Fast-path performance of the simulator: vectorized L2 replay + parallel sweeps.

Two measurements, both checked for bit-identical results before any timing
is reported:

* **micro** — ``SetAssociativeCache.access_stream`` on a pooling-shaped
  address trace (overlapped 3x3 stride-2 windows over 55x55 float maps),
  vectorized fast path vs the scalar ``reference_access_stream``;
* **end-to-end** — the Fig. 6 pooling-layout figure built serially with
  ``access_stream`` patched to the scalar reference vs the fast path with
  ``--jobs`` workers.

Emits ``BENCH_simulator.json`` (CI uploads it as an artifact); with
``--check`` the exit status is nonzero if the fast path fails to beat the
reference on the micro trace.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from figutil import bench_arg_parser

import bench_fig06_pooling_layouts as fig06

from repro.gpusim import TITAN_BLACK, SetAssociativeCache, SimulationContext


def pooling_trace(min_addresses: int) -> np.ndarray:
    """Byte addresses of a 3x3 stride-2 pooling pass over 55x55 maps.

    Each output row reads three input rows and stride 2 < window 3, so
    every interior input row is streamed twice — the overlapped-window
    reuse pattern the L2 model exists to capture.  Taps step 8 bytes, so
    four consecutive taps share one 32-byte line (the adjacent-duplicate
    shape the fast path collapses).
    """
    taps = np.arange(0, 57 * 4, 8, dtype=np.int64)
    row_starts = []
    base = 0
    total = 0
    while total < min_addresses:
        for out_row in range(27):
            for wrow in range(3):
                row_starts.append(base + (out_row * 2 + wrow) * 57 * 4)
                total += taps.size
        base += 55 * 55 * 16
    starts = np.asarray(row_starts, dtype=np.int64)
    return (starts[:, None] + taps[None, :]).ravel()


def run_micro(device, n_addresses: int) -> dict:
    addr = pooling_trace(n_addresses)

    ref = SetAssociativeCache.l2_for(device)
    t0 = time.perf_counter()
    ref_hits = ref.reference_access_stream(addr)
    ref_s = time.perf_counter() - t0

    fast = SetAssociativeCache.l2_for(device)
    t0 = time.perf_counter()
    fast_hits = fast.access_stream(addr)
    fast_s = time.perf_counter() - t0

    if not np.array_equal(ref_hits, fast_hits):
        raise AssertionError("fast-path hit mask differs from reference")
    if (ref.stats.accesses, ref.stats.hits, ref.stats.evictions) != (
        fast.stats.accesses,
        fast.stats.hits,
        fast.stats.evictions,
    ):
        raise AssertionError("fast-path CacheStats differ from reference")

    return {
        "trace_addresses": int(addr.size),
        "reference_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s if fast_s else float("inf"),
        "hit_rate": ref.stats.hit_rate,
    }


def run_end_to_end(device, jobs: int) -> dict:
    # The reference leg is serial, so patching the class in this process
    # reaches every replay it makes.
    fast_replay = SetAssociativeCache.access_stream
    SetAssociativeCache.access_stream = SetAssociativeCache.reference_access_stream
    try:
        ctx = SimulationContext(device, check_memory=False)
        t0 = time.perf_counter()
        ref_table = fig06.build_figure(device, jobs=1, context=ctx)
        ref_s = time.perf_counter() - t0
    finally:
        SetAssociativeCache.access_stream = fast_replay
    ctx = SimulationContext(device, check_memory=False)
    t0 = time.perf_counter()
    fast_table = fig06.build_figure(device, jobs=jobs, context=ctx)
    fast_s = time.perf_counter() - t0

    if ref_table.render() != fast_table.render():
        raise AssertionError("fast/parallel Fig. 6 differs from reference")

    return {
        "figure": "fig06_pooling_layouts",
        "jobs": jobs,
        "reference_s": ref_s,
        "fast_s": fast_s,
        "speedup": ref_s / fast_s if fast_s else float("inf"),
        "identical": True,
    }


def main(argv=None) -> int:
    parser = bench_arg_parser(__doc__)
    parser.add_argument(
        "--trace-addresses",
        type=int,
        default=1_000_000,
        help="micro-benchmark trace length (default: 1M addresses)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_simulator.json",
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if the fast path is slower than the reference",
    )
    parser.add_argument(
        "--skip-end-to-end",
        action="store_true",
        help="only run the access_stream micro-benchmark",
    )
    args = parser.parse_args(argv)

    results = {
        "cpu_count": os.cpu_count(),
        "micro": run_micro(TITAN_BLACK, args.trace_addresses),
    }
    m = results["micro"]
    print(
        f"micro ({m['trace_addresses']} addrs): reference {m['reference_s']:.3f}s, "
        f"fast {m['fast_s']:.3f}s -> {m['speedup']:.1f}x "
        f"(hit rate {m['hit_rate']:.3f})"
    )

    if not args.skip_end_to_end:
        results["end_to_end"] = run_end_to_end(TITAN_BLACK, max(args.jobs, 1))
        e = results["end_to_end"]
        print(
            f"end-to-end ({e['figure']}, --jobs {e['jobs']}): "
            f"reference {e['reference_s']:.3f}s, fast {e['fast_s']:.3f}s "
            f"-> {e['speedup']:.1f}x, tables identical"
        )

    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"wrote {args.output}")

    if args.check and results["micro"]["speedup"] < 1.0:
        print("CHECK FAILED: vectorized cache slower than scalar reference")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
