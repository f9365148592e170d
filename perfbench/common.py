"""Shared helpers: statistics, process accounting, host-noise context."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"

#: the checkout files the benchmark drives; without them it cannot run
REQUIRED = ("src/repro/cli.py", "benchmarks/figutil.py")


def check_checkout() -> None:
    """Exit with status 2 unless the program under test is present."""
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: program files missing: {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)


def spec() -> dict:
    """``BENCHMARK.json``: the workloads, and every metric's name, unit and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """Environment for spawned Python processes: ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def use_src_path() -> None:
    """Import the program from the checkout's ``src`` in this process."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


# -- statistics --------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    ``beyond`` samples above it (nearest rank)."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    rank = len(ordered) - beyond  # 1-based rank; `beyond` samples lie above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def digest(obj) -> str:
    """Stable short hash of a JSON-serializable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: packages whose import time the startup layer reports separately
IMPORT_PACKAGES = ("numpy", "scipy", "repro")


def import_self_s(stderr_text: str) -> dict[str, float]:
    """Seconds of module-body execution per package, from ``-X importtime``.

    Sums the *self* column, so nested imports are not counted twice.
    """
    totals = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        module = parts[2].strip()
        top = module.split(".", 1)[0]
        if top in totals:
            totals[top] += int(parts[0]) / 1e6
    return totals


def startup_metrics(spawn_epoch: float, record: dict, stderr_text: str) -> dict[str, float]:
    """The startup layer of one spawned process."""
    packages = import_self_s(stderr_text)
    return {
        "startup.interp_s": record["started_epoch"] - spawn_epoch,
        "startup.import_s": record["import_s"],
        **{f"startup.{pkg}_s": packages[pkg] for pkg in IMPORT_PACKAGES},
    }


# -- process accounting ------------------------------------------------------


def process_cpu_s(pid: int) -> float:
    """CPU seconds (user + system, all threads) of a live process."""
    return time.clock_gettime(((~pid) << 3) | 2)  # CPUCLOCK_SCHED, process-wide


def peak_rss_mb(pid: int | str = "self") -> float:
    """A live process's peak resident set (VmHWM) in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- host-noise context (never rescales a metric) ------------------------------


def steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop (host speed probe)."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    elapsed = time.perf_counter() - started
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


class HostNoise:
    """Steal ticks and the reference loop, sampled at start and end."""

    def __init__(self) -> None:
        self.steal0 = steal_ticks()
        self.loop0 = reference_loop_s()

    def finish(self) -> dict:
        return {
            "steal_ticks": steal_ticks() - self.steal0,
            "ref_loop_start_s": round(self.loop0, 5),
            "ref_loop_end_s": round(reference_loop_s(), 5),
        }


def emit(result: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(json.dumps(result, sort_keys=True), flush=True)
