"""Whole-stack wall-clock benchmark for the repro package.

    python3 perfbench/run.py --workload {cli,figures,sweep-j2} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every workload is a closed loop with one
client: the next op starts when the previous one has finished.

* ``cli``: each op spawns one ``python -m repro.cli ...`` command; a cycle
  runs every command once in a seed-fixed order.
* ``figures``: one long-lived client rebuilds five paper figures per op.
* ``sweep-j2``: one long-lived client runs conv sweeps at ``jobs=2`` over
  a persisted simulation cache per op.

``--seconds`` fixes the op count through a nominal op duration, so every
run of a workload does the same work.  With ``--trace 0`` the last line
reports the end-to-end metrics; with ``--trace 1`` the per-layer ones,
measured by wrapping each layer's entry points from outside (see
``layers.py``).  The line before it, prefixed ``perfbench-context``,
carries digests, the tail percentile, host noise and any errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import subprocess
import sys
import threading
import time

import common
import layers

PY = sys.executable
BOOT = str(common.BENCH_DIR / "boot.py")
CLIENT = str(common.BENCH_DIR / "client.py")

COMMANDS = (
    ("info",),
    ("plan", "--network", "alexnet", "--format", "json"),
    ("plan", "--network", "vgg", "--format", "json"),
    ("plan", "--network", "inception", "--format", "json"),
    ("profile", "alexnet"),
    ("verify", "alexnet"),
    ("lint", "--network", "alexnet"),
    ("inspect", "--layer", "CV7"),
    ("footprint", "--network", "vgg"),
    ("transform",),
    ("sweep", "--layer", "CV7"),
    ("bench", "--network", "lenet"),
)

#: nominal seconds per op (per command cycle for ``cli``) and the fewest
#: ops a run makes; together they turn ``--seconds`` into an op count
NOMINAL_OP_S = {"cli": 12.0, "figures": 3.0, "sweep-j2": 0.6}
MIN_OPS = {"cli": 2, "figures": 5, "sweep-j2": 20}
SETUPS = 3  # set-ups per timed run; setup_s is their median
CHILD_TIMEOUT_S = 150


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS[workload], round(seconds / NOMINAL_OP_S[workload]))


# -- spawning ----------------------------------------------------------------


def _spawn(argv: list[str], stderr_path=None) -> tuple[float, float, int, str, float]:
    """Run one child to completion: (wall s, cpu s, status, stdout, spawn epoch)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(stderr_path or os.devnull, "w") as err:
        epoch = time.time()
        started = time.perf_counter()
        proc = subprocess.run(
            argv,
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            stderr=err,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return wall, cpu, proc.returncode, proc.stdout.decode(), epoch


# -- cli ---------------------------------------------------------------------

_PASS_ROW = re.compile(r"^(  \w+\s+)\d+\.\d+(\s+\d+->\d+)")


def _normalize(cmd: tuple[str, ...], text: str) -> str:
    """The command's output minus its wall-clock fields (pass and span ms)."""
    if cmd[0] == "plan":
        payload = json.loads(text)
        for p in payload["passes"]:
            p.pop("ms")
        return json.dumps(payload, sort_keys=True)
    if cmd[0] != "profile":
        return text
    kept, in_spans = [], False
    for line in text.splitlines():
        if line.startswith("span summary by category:"):
            in_spans = True
        elif line.startswith("batched evaluation:"):
            in_spans = False
        if not in_spans:
            kept.append(_PASS_ROW.sub(r"\1*\2", line))
    return "\n".join(kept)


def run_cli(seed: int, seconds: int, trace: bool) -> dict:
    order = list(COMMANDS)
    random.Random(seed).shuffle(order)
    cycles = op_count("cli", seconds)
    setups = [_spawn([PY, "-c", "import repro.cli"])[0] for _ in range(SETUPS)]
    walls, cpus, traced_walls = [], [], []
    reference: dict[tuple[str, ...], str] = {}
    errors: list[str] = []
    failed = 0
    counters: dict[str, float] = {}
    startup: dict[str, float] = {}
    boot_out = common.WORK / "boot.json"
    boot_err = common.WORK / "boot.stderr"
    for cycle in range(cycles):
        for i, cmd in enumerate(order):
            traced = trace and (i + cycle) % 2 == 1
            if traced:
                argv = [PY, "-X", "importtime", BOOT, str(boot_out), *cmd]
                wall, cpu, status, out, epoch = _spawn(argv, boot_err)
                traced_walls.append(wall)
            else:
                wall, cpu, status, out, epoch = _spawn([PY, "-m", "repro.cli", *cmd])
                walls.append(wall)
            cpus.append(cpu)
            try:
                if status != 0:
                    raise ValueError(f"exit status {status}")
                text = _normalize(cmd, out)
                first = reference.setdefault(cmd, text)
                if text != first:
                    raise ValueError("stdout differs from the run's first op")
            except (ValueError, KeyError) as exc:
                failed += 1
                errors.append(f"{' '.join(cmd)}: {exc}")
                continue
            if traced:
                record = json.loads(boot_out.read_text())
                layers.add(counters, record["counters"])
                layers.add(startup, common.startup_metrics(epoch, record, boot_err.read_text()))
    attempted = cycles * len(order)
    plans = [json.loads(reference[c])["total_ms"] for c in COMMANDS if c[0] == "plan" and c in reference]
    outcome = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": common.digest(sorted([list(k), v] for k, v in reference.items())),
        "sim_plan_ms": sum(plans),
    }
    if trace:
        n = len(traced_walls)
        metrics = layers.layer_metrics(counters, n)
        metrics.update({k: v / n for k, v in startup.items()})
        metrics["tracing.overhead_ratio"] = common.median(traced_walls) / common.median(walls)
        outcome["counters"] = counters
        outcome["metrics"] = metrics
        return outcome
    tail_s, tail_pct = common.tail(walls)
    outcome["tail_percentile"] = tail_pct
    outcome["metrics"] = {
        "setup_s": common.median(setups),
        "wall_p50_s": common.median(walls),
        "cpu_p50_s": common.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "wall_tail_s": tail_s,
        "sim_plan_ms": outcome["sim_plan_ms"],
    }
    return outcome


# -- figures / sweep-j2 --------------------------------------------------------


def _client(workload: str, seed: int, ops: int, trace: bool, setup_only: bool = False):
    """Spawn one client; returns (seconds until ready, record, stderr, spawn epoch)."""
    argv = [PY, *(["-X", "importtime"] if trace else []), CLIENT]
    argv += ["--workload", workload, "--seed", str(seed), "--ops", str(ops)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    err_path = common.WORK / f"client-{workload}.stderr"
    with open(err_path, "w") as err:
        epoch = time.time()
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=common.ROOT,
            env=common.child_env(),
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - started
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    stderr_text = err_path.read_text()
    if proc.returncode != 0 or first.strip() != "ready":
        tail_lines = "\n".join(stderr_text.splitlines()[-15:])
        raise RuntimeError(f"{workload} client failed ({proc.returncode}):\n{tail_lines}")
    record = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return ready_s, record, stderr_text, epoch


def run_client(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = op_count(workload, seconds)
    if trace:
        half = max(2, ops // 2)
        _, plain, _, _ = _client(workload, seed, half, trace=False)
        _, record, stderr_text, epoch = _client(workload, seed, half, trace=True)
        metrics = layers.layer_metrics(record["counters"], half)
        metrics.update(common.startup_metrics(epoch, record, stderr_text))
        metrics["tracing.overhead_ratio"] = common.median(record["walls"]) / common.median(
            plain["walls"]
        )
        return {
            "attempted": 2 * half,
            "failed": plain["failed"] + record["failed"],
            "errors": plain["errors"] + record["errors"],
            "digest": record["digest"],
            "sim_plan_ms": record["sim_plan_ms"],
            "counters": record["counters"],
            "metrics": metrics,
        }
    setups = [_client(workload, seed, 0, False, setup_only=True)[0] for _ in range(SETUPS - 1)]
    ready_s, record, _, _ = _client(workload, seed, ops, trace=False)
    setups.append(ready_s)
    walls = record["walls"]
    if len(walls) > 10:
        tail_s, tail_pct = common.tail(walls)
    else:  # too few ops for ten beyond any percentile: report the slowest
        tail_s, tail_pct = max(walls), 100.0
    return {
        "attempted": ops,
        "failed": record["failed"],
        "errors": record["errors"],
        "digest": record["digest"],
        "sim_plan_ms": record["sim_plan_ms"],
        "tail_percentile": tail_pct,
        "metrics": {
            "setup_s": common.median(setups),
            "wall_p50_s": common.median(walls),
            "cpu_p50_s": common.median(record["cpus"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "wall_tail_s": tail_s,
            "sim_plan_ms": record["sim_plan_ms"],
        },
    }


# -- entry point ---------------------------------------------------------------

UNITS = {"setup_s": "s", "wall_p50_s": "s", "cpu_p50_s": "s", "peak_rss_mb": "MiB",
         "wall_tail_s": "s", "sim_plan_ms": "model-ms"}


def unit_of(name: str) -> str:
    """The unit of an end-to-end or per-layer metric."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cli", "figures", "sweep-j2"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.check_checkout()
    common.WORK.mkdir(exist_ok=True)
    noise = common.HostNoise()
    trace = bool(args.trace)
    if args.workload == "cli":
        outcome = run_cli(args.seed, args.seconds, trace)
    else:
        outcome = run_client(args.workload, args.seed, args.seconds, trace)
    problems = layers.cross_check(outcome.pop("counters")) if trace else []

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "digest": outcome["digest"],
        "sim_plan_ms": outcome["sim_plan_ms"],
        "tail_percentile": outcome.get("tail_percentile"),
        "host": noise.finish(),
        "errors": outcome["errors"][:10],
        "cross_check": problems,
    }
    print("perfbench-context " + json.dumps(context, sort_keys=True))
    common.emit(
        {
            "correct": outcome["failed"] == 0 and not problems,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "metrics": {
                name: {"value": value, "unit": unit_of(name)}
                for name, value in sorted(outcome["metrics"].items())
            },
        }
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
