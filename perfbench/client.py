"""Long-lived client for the in-process workloads (``figures``, ``sweep-j2``).

    python perfbench/client.py --workload figures --seed 1 --ops 8 [--trace] [--setup-only]

Set-up happens first (imports, then the workload's own preparation); the
client then prints ``ready`` on standard output, runs ``--ops`` timed ops
back to back, validates each one untimed, and prints one JSON object with
per-op wall and CPU times, failures, the output digest and peak memory.
"""

import time

STARTED_EPOCH = time.time()  # first statement: interpreter start-up is over

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

import common  # noqa: E402
import layers  # noqa: E402

import_started = time.perf_counter()
common.use_src_path()
sys.path.insert(0, str(common.ROOT / "benchmarks"))
import importlib  # noqa: E402

import repro.analysis  # noqa: E402
from repro.gpusim import TITAN_BLACK, SimulationContext  # noqa: E402
from repro.gpusim import exec as gpusim_exec  # noqa: E402
from repro.gpusim.session import reset_default_contexts  # noqa: E402
from repro.networks import CONV_LAYERS  # noqa: E402

FIGURES = {
    "fig04": "bench_fig04_sensitivity",
    "fig06": "bench_fig06_pooling_layouts",
    "fig12": "bench_fig12_pooling_opt",
    "fig14": "bench_fig14_networks",
    "ablation_planner": "bench_ablation_planner",
}
FIGURE_MODULES = {name: importlib.import_module(mod) for name, mod in FIGURES.items()}
IMPORT_S = time.perf_counter() - import_started

DEVICE = TITAN_BLACK


# -- figures -----------------------------------------------------------------

#: figures whose ``build_figure`` takes ``jobs`` and a context
_CONTEXT_FIGURES = ("fig04", "fig06", "fig12")


def _table_data(result) -> list:
    tables = result if isinstance(result, tuple) else (result,)
    return [
        [t.title, list(t.columns), [[repr(v) for v in row] for row in t.rows], list(t.notes)]
        for t in tables
    ]


class Figures:
    """One op rebuilds every figure from cold simulation state."""

    def __init__(self, seed: int) -> None:
        self.order = list(FIGURES)
        random.Random(seed).shuffle(self.order)
        self.reference = {name: _table_data(r) for name, r in self.op().items()}

    def op(self) -> dict:
        results = {}
        for name in self.order:
            reset_default_contexts()
            module = FIGURE_MODULES[name]
            if name in _CONTEXT_FIGURES:
                results[name] = module.build_figure(
                    DEVICE, jobs=1, context=SimulationContext(DEVICE)
                )
            else:  # builds on the default contexts, just reset
                results[name] = module.build_figure(DEVICE)
        return results

    def validate(self, results) -> list[str]:
        errors = []
        for name, result in results.items():
            if _table_data(result) != self.reference[name]:
                errors.append(f"{name}: table differs from the set-up pass")
            check = getattr(FIGURE_MODULES[name], f"test_{name}")
            try:
                check(lambda fn, *args, **kwargs: result, DEVICE)
            except AssertionError as exc:
                errors.append(f"{name}: shape check failed: {exc}")
        return errors

    def digest(self) -> str:
        return common.digest(self.reference)

    def sim_plan_ms(self) -> float:
        """Modelled ms of the ablation's optimal plans, summed over networks."""
        table = self.reference["ablation_planner"][0]
        column = table[1].index("optimal")
        return sum(float(row[column]) for row in table[2])


# -- sweep-j2 ----------------------------------------------------------------

SWEEP_LAYERS = ("CV2", "CV4", "CV6", "CV7", "CV8", "CV10", "CV11", "CV12")
SWEEP_IMPLS = ("direct", "im2col", "fft", "fft-tiled")
SWEEP_DIMS = ("n", "ci")
SWEEP_VALUES = 16  # base values, and new values, per dimension per op
SWEEP_JOBS = 2
BASE_VALUES = {
    "n": tuple(range(8, 8 * SWEEP_VALUES + 1, 8)),
    "ci": tuple(range(16, 16 * SWEEP_VALUES + 1, 16)),
}
VALUE_LIMIT = 2048


def _points(results) -> dict:
    """(layer, dim, value, impl) -> (time_ms, gflops) over sweep results."""
    out = {}
    for (layer, dim), result in results.items():
        for p in result.points:
            out[(layer, dim, p.value, p.implementation)] = (p.time_ms, p.gflops)
    return out


def _sweep(context, values: dict, jobs: int) -> dict:
    # looked up per call, so a traced run reaches the wrapped binding
    return {
        (layer, dim): repro.analysis.sweep_conv(
            DEVICE,
            CONV_LAYERS[layer],
            dim,
            values[dim],
            SWEEP_IMPLS,
            context=context,
            jobs=jobs,
        )
        for layer in SWEEP_LAYERS
        for dim in SWEEP_DIMS
    }


class SweepJ2:
    """One op: a fresh session over the saved base cache, sweeps at two
    jobs whose values are half base, half new to the op, then a save."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.fresh = {}
        for dim in SWEEP_DIMS:
            pool = [v for v in range(1, VALUE_LIMIT + 1) if v not in BASE_VALUES[dim]]
            rng.shuffle(pool)
            self.fresh[dim] = pool
        self.base_file = common.WORK / "sweep-base.sim-cache.json"
        self.out_file = common.WORK / "sweep-out.sim-cache.json"
        context = SimulationContext(DEVICE)
        self.reference = _points(_sweep(context, BASE_VALUES, 1))
        context.save_cache(self.base_file)
        problems = self.validate(self.op())  # warms the pool and its workers
        if problems:
            raise RuntimeError(f"set-up op failed: {problems}")

    def _draw(self) -> dict:
        drawn = {}
        for dim in SWEEP_DIMS:
            pool = self.fresh[dim]
            if len(pool) < SWEEP_VALUES:
                raise RuntimeError("sweep value pool exhausted; lower --ops")
            drawn[dim] = tuple(pool[-SWEEP_VALUES:])
            del pool[-SWEEP_VALUES:]
        return drawn

    def op(self):
        new = self._draw()
        values = {d: tuple(sorted(BASE_VALUES[d] + new[d])) for d in SWEEP_DIMS}
        context = SimulationContext(DEVICE, cache_path=self.base_file)
        results = _sweep(context, values, SWEEP_JOBS)
        context.save_cache(self.out_file)
        return new, results

    def validate(self, outcome) -> list[str]:
        new, results = outcome
        got = _points(results)
        expected = dict(self.reference)
        expected.update(_points(_sweep(SimulationContext(DEVICE), new, 1)))
        if got != expected:
            bad = sorted(k for k in expected.keys() | got.keys() if got.get(k) != expected.get(k))
            return [f"{len(bad)} sweep points differ from jobs=1, first {bad[0]}"]
        return []

    def digest(self) -> str:
        return common.digest(sorted((list(k), v) for k, v in self.reference.items()))

    def sim_plan_ms(self) -> float:
        """Modelled ms of the fastest implementation per base-grid point."""
        best = {}
        for (layer, dim, value, _impl), (ms, _g) in self.reference.items():
            if ms is not None:
                key = (layer, dim, value)
                best[key] = min(ms, best.get(key, ms))
        return sum(best.values())


WORKLOADS = {"figures": Figures, "sweep-j2": SweepJ2}


# -- the op loop -------------------------------------------------------------


def _worker_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


def _cpu_s(pids: list[int]) -> float:
    total = time.process_time()
    for pid in pids:
        try:
            total += common.process_cpu_s(pid)
        except OSError:
            pass  # a worker that exited between listing and reading
    return total


def _stop_pool() -> None:
    """Shut the sweep pool down and wait for its workers to exit."""
    pool = gpusim_exec._POOL
    gpusim_exec.shutdown_pool()
    if pool is not None:
        pool.shutdown(wait=True)
    for child in multiprocessing.active_children():
        child.join(timeout=30)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if args.trace:
        layers.install()
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        _stop_pool()
        return 0

    walls, cpus, errors = [], [], []
    counters: dict[str, float] = {}
    failed = 0
    for _ in range(args.ops):
        pids = _worker_pids()
        before = layers.snapshot() if args.trace else {}
        cpu0 = _cpu_s(pids)
        started = time.perf_counter()
        outcome = workload.op()
        walls.append(time.perf_counter() - started)
        cpus.append(_cpu_s(pids) - cpu0)
        if args.trace:
            layers.add(counters, layers.delta(layers.snapshot(), before))
        problems = workload.validate(outcome)
        if problems:
            failed += 1
            errors.extend(problems)

    rss_mb = common.peak_rss_mb() + sum(common.peak_rss_mb(pid) for pid in _worker_pids())
    _stop_pool()
    record = {
        "started_epoch": STARTED_EPOCH,
        "import_s": IMPORT_S,
        "walls": walls,
        "cpus": cpus,
        "failed": failed,
        "errors": errors[:10],
        "peak_rss_mb": rss_mb,
        "digest": workload.digest(),
        "sim_plan_ms": workload.sim_plan_ms(),
        "counters": counters,
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
