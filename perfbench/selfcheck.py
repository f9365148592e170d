"""Steadiness self-check: run the same code as two alternating sets.

    python3 perfbench/selfcheck.py [--runs-per-set 5] [--workloads cli,figures]

Runs ``run.py`` 2 x ``--runs-per-set`` times per workload, one seed per
run, alternating set A and set B (and the workloads within each round).
Prints, per workload and end-to-end metric, each set's median, the gap
between them and the quartile spread over all runs, next to the metric's
bound from ``BENCHMARK.json``.  Also checks that every run was correct and
that digests and ``sim_plan_ms`` repeat exactly.  Exits 1 if any gap or
spread exceeds its bound (``setup_s`` spread excepted) or a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import common


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=common.ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), context, time.perf_counter() - started


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs-per-set", type=int, default=5)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list] = {w: [] for w in workloads}
    for i in range(2 * args.runs_per_set):
        for w in workloads:
            result, context, wall = run_once(w, args.seed_base + i, args.seconds)
            runs[w].append((i % 2, result, context))
            print(f"  run {i} {w} seed={args.seed_base + i} set={'AB'[i % 2]} "
                  f"{wall:.1f}s correct={result['correct']}", flush=True)

    ok = True
    summary = {}
    for w in workloads:
        results = runs[w]
        print(f"\n{w}: {len(results)} runs")
        if not all(r["correct"] and r["failed"] == 0 for _, r, _ in results):
            print("  FAIL: a run was incorrect or had failed ops")
            ok = False
        for key in ("digest", "sim_plan_ms"):
            seen = {json.dumps(c[key]) for _, _, c in results}
            if len(seen) != 1:
                print(f"  FAIL: {key} differs between runs: {sorted(seen)}")
                ok = False
        print(f"  {'metric':14s} {'set A':>10s} {'set B':>10s} {'gap':>7s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r, _ in results]
            a = common.median([v for (s, _, _), v in zip(results, values) if s == 0])
            b = common.median([v for (s, _, _), v in zip(results, values) if s == 1])
            gap = (b - a) / a
            spread = common.spread(values)
            flag = ""
            if abs(gap) > bound or (name != "setup_s" and spread > bound):
                flag, ok = "  OVER", False
            elif name != "setup_s" and spread > bound / 3:
                flag = "  (spread above a third of the bound)"
            print(f"  {name:14s} {a:10.4f} {b:10.4f} {gap:+7.1%} {spread:7.1%} {bound:6.2f}{flag}")
            summary[f"{w}/{name}"] = {"a": a, "b": b, "gap": gap, "spread": spread, "values": values}
    (common.WORK / "selfcheck.json").write_text(json.dumps(summary, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
