"""Sweep execution engine: memoization and dedup.

The contract of :mod:`repro.gpusim.exec` is that memoization and dedup are
*pure wall-clock knobs*: every grid consumer's output — sweep grids,
calibration thresholds, tuned factors, CLI output — is byte-identical to a
cold run no matter how many times a cell has been priced before.  The CLI's
``--jobs`` flag is accepted and ignored.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweeps import sweep_conv, sweep_pool
from repro.cli import main
from repro.core.autotune import autotune_pooling, autotune_pooling_many
from repro.core.calibration import calibrate
from repro.gpusim import SimStats, SimulationContext, map_chunks
from repro.gpusim.batch import evaluate_models
from repro.gpusim.kernel import ComposedKernel
from repro.gpusim.session import GpuOutOfMemoryError
from repro.gpusim.exec import evaluate_cells
from repro.layers import make_pool_kernel
from repro.layers.base import ConvSpec
from repro.layers.conv_kernels import make_conv_kernel
from repro.obs.metrics import global_registry


def _fresh(device):
    return SimulationContext(device, check_memory=False)


def _pool_models(small_pool, channels=(4, 8, 16)):
    return [
        make_pool_kernel(replace(small_pool, c=c), impl)
        for c in channels
        for impl in ("chwn", "nchw-linear")
    ]


# ---------------------------------------------------------------------------
# evaluate_cells: memoization + dedup
# ---------------------------------------------------------------------------


class TestEvaluateCells:
    def test_matches_fresh_context_batch(self, device, small_pool):
        models = _pool_models(small_pool)
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        got = evaluate_cells(_fresh(device), models, check_memory=False)
        assert got == ref

    def test_memoized_rerun_is_identical(self, device, small_pool):
        models = _pool_models(small_pool)
        ctx = _fresh(device)
        first = evaluate_cells(ctx, models, check_memory=False)
        again = evaluate_cells(ctx, models, check_memory=False)
        assert again == first
        # Second pass is all cache hits: no new entries appeared.
        assert ctx.cache_size == len(models)

    def test_scalar_cache_primes_the_engine(self, device, small_pool):
        # A cell priced by the scalar path is a hit for the engine: the
        # two share one structural key space.
        kernel = make_pool_kernel(small_pool, "chwn")
        ctx = _fresh(device)
        scalar = ctx.run(kernel, check_memory=False)
        hits0 = global_registry().value("exec.cache.hit") or 0
        [engine] = evaluate_cells(ctx, [kernel], check_memory=False)
        assert engine == scalar
        assert global_registry().value("exec.cache.hit") == hits0 + 1

    def test_engine_primes_the_scalar_cache(self, device, small_pool):
        kernel = make_pool_kernel(small_pool, "chwn")
        ctx = _fresh(device)
        [engine] = evaluate_cells(ctx, [kernel], check_memory=False)
        hits_before = ctx.stats.hits
        assert ctx.run(kernel, check_memory=False) == engine
        assert ctx.stats.hits == hits_before + 1

    def test_duplicates_collapse_but_fan_back_out(self, device, small_pool):
        a = make_pool_kernel(small_pool, "chwn")
        b = make_pool_kernel(small_pool, "nchw-linear")
        models = [a, b, a, a, b]
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        dedup0 = global_registry().value("exec.cache.dedup") or 0
        got = evaluate_cells(_fresh(device), models, check_memory=False)
        assert got == ref
        assert got[0] == got[2] == got[3]
        assert got[1] == got[4]
        assert global_registry().value("exec.cache.dedup") == dedup0 + 3

    def test_nested_composed_is_memoized(self, device, small_pool):
        # A composed kernel inside a composed kernel evaluates like any
        # other cell: equal to context.run, then served from the memo.
        inner = ComposedKernel(
            kernels=[
                make_pool_kernel(small_pool, "chwn"),
                make_pool_kernel(small_pool, "nchw-linear"),
            ],
            name="pool-pair",
        )
        outer = ComposedKernel(
            kernels=[inner, make_pool_kernel(replace(small_pool, c=8), "chwn")],
            name="pool-nested",
        )
        ref = _fresh(device).run(outer, check_memory=False)
        ctx = _fresh(device)
        assert evaluate_cells(ctx, [outer], check_memory=False) == [ref]
        hits0 = global_registry().value("exec.cache.hit") or 0
        assert evaluate_cells(ctx, [outer], check_memory=False) == [ref]
        assert global_registry().value("exec.cache.hit") == hits0 + 1

    def test_empty_grid(self, device):
        assert evaluate_cells(_fresh(device), []) == []


class TestErrorMemoization:
    #: a conv too large for any bundled device once check_memory is on
    HUGE = ConvSpec(n=4096, ci=512, h=256, w=256, co=512, fh=3, fw=3)
    SMALL = ConvSpec(n=8, ci=16, h=15, w=15, co=16, fh=3, fw=3)

    def _models(self):
        return [
            make_conv_kernel(self.SMALL, "direct"),
            make_conv_kernel(self.HUGE, "im2col"),
            make_conv_kernel(self.SMALL, "direct"),
        ]

    @staticmethod
    def _shape(results):
        return [
            (type(r).__name__, r.args) if isinstance(r, Exception) else r
            for r in results
        ]

    def test_oom_depends_on_the_flag_not_the_memo(self, device):
        # Prime the memo with the check OFF (everything prices fine),
        # then ask with the check ON: the big conv must still OOM —
        # exactly what the scalar path does, where _check_fit runs
        # before the cache lookup.
        models = self._models()
        ref_on = evaluate_models(_fresh(device), models, check_memory=True)
        ref_off = evaluate_models(_fresh(device), models, check_memory=False)
        ctx = _fresh(device)
        assert self._shape(
            evaluate_cells(ctx, models, check_memory=False)
        ) == self._shape(ref_off)
        assert self._shape(
            evaluate_cells(ctx, models, check_memory=True)
        ) == self._shape(ref_on)
        assert self._shape(
            evaluate_cells(ctx, models, check_memory=False)
        ) == self._shape(ref_off)

    def test_oom_hit_after_oom_miss(self, device):
        models = self._models()
        ref = evaluate_models(_fresh(device), models, check_memory=True)
        ctx = _fresh(device)
        first = evaluate_cells(ctx, models, check_memory=True)
        again = evaluate_cells(ctx, models, check_memory=True)
        assert self._shape(first) == self._shape(ref)
        assert self._shape(again) == self._shape(ref)
        assert isinstance(again[1], GpuOutOfMemoryError)


# ---------------------------------------------------------------------------
# Hypothesis: dedup never drops or reorders grid cells
# ---------------------------------------------------------------------------


BASE_CHANNELS = (4, 6, 8)
BASE_IMPLS = ("chwn", "nchw-linear")


@pytest.fixture(scope="module")
def dedup_reference(device, small_pool):
    """The distinct cell pool and its scalar-priced reference values."""
    models = _pool_models(small_pool, BASE_CHANNELS)
    stats = evaluate_models(
        SimulationContext(device, check_memory=False), models, check_memory=False
    )
    return models, stats


class TestDedupProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=5), min_size=0, max_size=24
        )
    )
    def test_never_drops_or_reorders(self, device, dedup_reference, picks):
        models, stats = dedup_reference
        grid = [models[i] for i in picks]
        expected = [stats[i] for i in picks]
        # A warm shared context across examples *and* a fresh one: both
        # must reproduce the reference slot for slot.
        got = evaluate_cells(_fresh(device), grid, check_memory=False)
        assert got == expected

    @settings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=24
        )
    )
    def test_warm_context_matches(self, device, dedup_reference, picks):
        models, stats = dedup_reference
        if not hasattr(self, "_warm"):
            self._warm = _fresh(device)
        grid = [models[i] for i in picks]
        assert evaluate_cells(self._warm, grid, check_memory=False) == [
            stats[i] for i in picks
        ]


# ---------------------------------------------------------------------------
# map_chunks: one call over the whole grid
# ---------------------------------------------------------------------------


def _eval_chunk(context, models):
    return evaluate_cells(context, models, check_memory=False)


class TestMapChunksSerial:
    def test_single_fused_call(self, device, small_pool):
        models = _pool_models(small_pool)
        ref = evaluate_models(_fresh(device), models, check_memory=False)
        ctx = _fresh(device)
        sizes0 = (global_registry().histogram("exec.batch.size").values or [])[:]
        out = map_chunks(_eval_chunk, models, ctx)
        assert out == ref
        sizes = global_registry().histogram("exec.batch.size").values
        # Exactly one new batch observation: the whole grid was fused.
        assert len(sizes) == len(sizes0) + 1
        assert sizes[-1] == len(models)


# ---------------------------------------------------------------------------
# Grid consumers: memoized vs fresh-context, one and four re-runs
# ---------------------------------------------------------------------------


class TestConsumerByteIdentity:
    """A warm context prices the grid once, then serves ``reruns`` more
    passes from its memo; every pass equals a fresh-context run."""

    @pytest.mark.parametrize("reruns", [1, 4])
    def test_sweep_pool_memoized(self, device, small_pool, reruns):
        fresh = sweep_pool(
            device, small_pool, "c", (4, 8, 16), context=_fresh(device)
        )
        warm = _fresh(device)
        first = sweep_pool(device, small_pool, "c", (4, 8, 16), context=warm)
        again = [
            sweep_pool(device, small_pool, "c", (4, 8, 16), context=warm)
            for _ in range(reruns)
        ]
        assert first == fresh
        assert again == [fresh] * reruns

    @pytest.mark.parametrize("reruns", [1, 4])
    def test_sweep_conv_memoized(self, device, small_conv, reruns):
        values = (3, 16, 64)
        fresh = sweep_conv(
            device, small_conv, "ci", values, context=SimulationContext(device)
        )
        warm = SimulationContext(device)
        first = sweep_conv(device, small_conv, "ci", values, context=warm)
        again = [
            sweep_conv(device, small_conv, "ci", values, context=warm)
            for _ in range(reruns)
        ]
        assert first == fresh
        assert again == [fresh] * reruns

    @pytest.mark.parametrize("reruns", [1, 4])
    def test_calibrate_memoized(self, device, reruns):
        fresh = calibrate(device, context=SimulationContext(device))
        warm = SimulationContext(device)
        first = calibrate(device, context=warm)
        again = [calibrate(device, context=warm) for _ in range(reruns)]
        assert first == fresh
        assert again == [fresh] * reruns

    @pytest.mark.parametrize("reruns", [1, 4])
    def test_autotune_memoized(self, device, small_pool, reruns):
        specs = [replace(small_pool, c=c) for c in (4, 8, 16)]
        fresh = autotune_pooling_many(
            device, specs, context=SimulationContext(device)
        )
        warm = SimulationContext(device)
        first = autotune_pooling_many(device, specs, context=warm)
        again = [
            autotune_pooling_many(device, specs, context=warm)
            for _ in range(reruns)
        ]
        assert first == fresh
        assert again == [fresh] * reruns


# ---------------------------------------------------------------------------
# --jobs is accepted and ignored; lockstep tuning equals one-by-one
# ---------------------------------------------------------------------------


class TestJobsDeterminism:
    """Output with ``jobs`` given equals output without it, byte for byte."""

    def test_sweep_conv_with_unrunnable_cells(self, device, small_conv):
        # Any per-cell failure is encoded as a None point, and the ignored
        # ``jobs`` keyword changes nothing.
        values = (3, 16, 64)
        plain = sweep_conv(
            device, small_conv, "ci", values, context=SimulationContext(device)
        )
        with_jobs = sweep_conv(
            device, small_conv, "ci", values,
            context=SimulationContext(device), jobs=2,
        )
        assert plain == with_jobs

    def test_autotune_many(self, device, small_pool):
        specs = [replace(small_pool, c=c) for c in (4, 8, 16)]
        one_by_one = [autotune_pooling(device, s) for s in specs]
        lockstep = autotune_pooling_many(
            device, specs, context=SimulationContext(device)
        )
        assert one_by_one == lockstep

    def test_cli_sweep_stdout_byte_identical(self, capsys):
        for args in (
            ["sweep", "--layer", "CV7", "--dim", "n", "--values", "16,32,64"],
            ["calibrate"],
        ):
            assert main([*args, "--jobs", "1"]) == 0
            serial_out = capsys.readouterr().out
            assert main([*args, "--jobs", "4"]) == 0
            assert capsys.readouterr().out == serial_out, args

    def test_cli_sweep_with_jobs_exits_cleanly(self):
        """``--jobs 2`` is accepted, and the command exits cleanly with
        nothing on stderr about interpreter shutdown."""
        src = Path(__file__).resolve().parents[2] / "src"
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep", "--layer", "CV7", "--jobs", "2"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert "Exception ignored" not in out.stderr


class TestSimStatsCounters:
    def test_merge_folds_new_counters(self):
        a, b = SimStats(), SimStats()
        b.record_miss("pool", 0.5)
        b.loaded_from_disk = 7
        b.stale_rejected = 2
        a.merge(b)
        assert a.misses == 1
        assert a.loaded_from_disk == 7
        assert a.stale_rejected == 2

    def test_reset_clears_new_counters(self):
        s = SimStats()
        s.record_miss("pool", 0.5)
        s.loaded_from_disk = 4
        s.stale_rejected = 1
        s.reset()
        assert s.misses == 0
        assert s.loaded_from_disk == 0
        assert s.stale_rejected == 0
