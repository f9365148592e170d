"""Grids through the session memo.

The memo of :meth:`SimulationContext.run` is a *pure wall-clock knob*:
every grid consumer's output — sweep grids, calibration thresholds, tuned
factors, CLI output — is byte-identical to a cold run no matter how many
times a cell has been priced before.  :mod:`repro.gpusim.exec` keeps
``evaluate_cells`` and ``map_chunks`` only as stubs for the whole-stack
benchmark; their tests here hold them to one ``context.run`` per slot.
"""

from __future__ import annotations

import traceback
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweeps import sweep_conv, sweep_pool
from repro.cli import main
from repro.core.autotune import autotune_pooling, autotune_pooling_many
from repro.core.calibration import calibrate
from repro.gpusim import (
    SimStats,
    SimulationContext,
    map_chunks,
    reset_default_contexts,
)
from repro.gpusim import session as session_module
from repro.gpusim.kernel import ComposedKernel
from repro.gpusim.occupancy import LaunchValidationError
from repro.gpusim.session import GpuOutOfMemoryError
from repro.gpusim.exec import evaluate_cells
from repro.layers import make_pool_kernel
from repro.layers.base import ConvSpec
from repro.layers.conv_kernels import make_conv_kernel
from repro.layers.pooling_kernels import PoolingNCHWLinear


def _fresh(device):
    return SimulationContext(device, check_memory=False)


def _slots(context, models, check_memory=None):
    """One ``context.run`` per model, with each error captured in its slot."""
    slots = []
    for model in models:
        try:
            slots.append(context.run(model, check_memory=check_memory))
        except (GpuOutOfMemoryError, ValueError) as exc:
            slots.append(exc)
    return slots


def _oracle(device, models, check_memory):
    """:func:`_slots` on a cold context."""
    return _slots(_fresh(device), models, check_memory)


def _pool_models(small_pool, channels=(4, 8, 16)):
    return [
        make_pool_kernel(replace(small_pool, c=c), impl)
        for c in channels
        for impl in ("chwn", "nchw-linear")
    ]


# ---------------------------------------------------------------------------
# evaluate_cells, a stub for the whole-stack benchmark: one context.run per
# slot, sharing the context's memo
# ---------------------------------------------------------------------------


class TestEvaluateCells:
    def test_matches_fresh_context_batch(self, device, small_pool):
        models = _pool_models(small_pool)
        ref = _oracle(device, models, False)
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
        [engine] = evaluate_cells(ctx, [kernel], check_memory=False)
        assert engine == scalar
        assert (ctx.stats.misses, ctx.stats.hits) == (1, 1)

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
        ref = _oracle(device, models, False)
        ctx = _fresh(device)
        got = evaluate_cells(ctx, models, check_memory=False)
        assert got == ref
        assert got[0] is got[2] is got[3]
        assert got[1] is got[4]
        # each distinct cell is timed once; its repeats are memo hits
        assert (ctx.stats.misses, ctx.stats.hits) == (2, 3)

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
        assert evaluate_cells(ctx, [outer], check_memory=False) == [ref]
        # the outer model is the memo unit: one entry, one miss, one hit
        assert ctx.cache_size == 1
        assert (ctx.stats.misses, ctx.stats.hits) == (1, 1)

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
        ref_on = _oracle(device, models, True)
        ref_off = _oracle(device, models, False)
        ctx = _fresh(device)
        assert self._shape(_slots(ctx, models, False)) == self._shape(ref_off)
        assert self._shape(_slots(ctx, models, True)) == self._shape(ref_on)
        assert self._shape(_slots(ctx, models, False)) == self._shape(ref_off)

    def test_oom_hit_after_oom_miss(self, device):
        models = self._models()
        ref = _oracle(device, models, True)
        ctx = _fresh(device)
        first = _slots(ctx, models, True)
        again = _slots(ctx, models, True)
        assert self._shape(first) == self._shape(ref)
        assert self._shape(again) == self._shape(ref)
        assert isinstance(again[1], GpuOutOfMemoryError)

    def test_composed_kernel_fit_checks_every_stage_before_timing(
        self, device, monkeypatch
    ):
        # The fitting first stage is not timed when a later stage OOMs.
        timed = []
        original = session_module.time_model
        monkeypatch.setattr(
            session_module,
            "time_model",
            lambda dev, model: timed.append(model.name) or original(dev, model),
        )
        huge = make_conv_kernel(self.HUGE, "im2col")  # composed itself
        composed = ComposedKernel(
            kernels=[make_conv_kernel(self.SMALL, "direct"), huge],
            name="conv-pair",
        )
        ctx = _fresh(device)
        with pytest.raises(GpuOutOfMemoryError) as info:
            ctx.run(composed, check_memory=True)
        assert info.value.kernel in {stage.name for stage in huge.kernels}
        with pytest.raises(GpuOutOfMemoryError):
            ctx.run(composed, check_memory=True)
        assert timed == []
        assert ctx.stats.queries == 0
        ctx.run(composed, check_memory=False)
        assert timed == [composed.kernels[0].name, *(k.name for k in huge.kernels)]
        assert ctx.stats.misses == 1


class _WideBlockNCHWPooling(PoolingNCHWLinear):
    """Traced NCHW pooling with a block no device can launch."""

    name = "pool-nchw-wide"

    def launch_config(self, device):
        return replace(super().launch_config(device), block=(2048, 1, 1))


class TestLaunchErrorMemo:
    def test_traced_profile_built_once_per_context(
        self, device, small_pool, monkeypatch
    ):
        builds = []
        original = PoolingNCHWLinear._build_profile
        monkeypatch.setattr(
            PoolingNCHWLinear,
            "_build_profile",
            lambda self, dev: builds.append(dev.name) or original(self, dev),
        )
        # structurally equal but separate models: no per-instance profile
        ctx = _fresh(device)
        with pytest.raises(LaunchValidationError) as info:
            ctx.run(_WideBlockNCHWPooling(small_pool))
        first = _slots(ctx, [_WideBlockNCHWPooling(small_pool) for _ in range(3)])
        again = _slots(ctx, [_WideBlockNCHWPooling(small_pool)])
        assert info.value is first[0] is first[1] is first[2] is again[0]
        assert len(builds) == 1
        assert ctx.stats.queries == 0
        _slots(_fresh(device), [_WideBlockNCHWPooling(small_pool)])
        assert len(builds) == 2

    def test_reraise_does_not_grow_the_traceback(self, device, small_pool):
        ctx = _fresh(device)
        errors, depths = [], []
        for _ in range(3):
            with pytest.raises(LaunchValidationError) as info:
                ctx.run(_WideBlockNCHWPooling(small_pool))
            errors.append(info.value)
            depths.append(len(list(traceback.walk_tb(info.value.__traceback__))))
        assert errors[0] is errors[1] is errors[2]
        assert depths[1] == depths[2] <= depths[0]

    def test_errors_are_not_saved(self, device, small_pool, tmp_path):
        ctx = _fresh(device)
        with pytest.raises(LaunchValidationError):
            ctx.run(_WideBlockNCHWPooling(small_pool))
        path = ctx.save_cache(tmp_path / "cache.json")
        assert SimulationContext(device, cache_path=path).cache_size == 0


# ---------------------------------------------------------------------------
# Hypothesis: a grid priced through the memo never drops or reorders cells
# ---------------------------------------------------------------------------


BASE_CHANNELS = (4, 6, 8)


@pytest.fixture(scope="module")
def dedup_reference(device, small_pool):
    """The distinct cell pool and its scalar-priced reference values."""
    models = _pool_models(small_pool, BASE_CHANNELS)
    return models, _oracle(device, models, False)


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
        got = _slots(_fresh(device), grid, check_memory=False)
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
        assert _slots(self._warm, grid, check_memory=False) == [
            stats[i] for i in picks
        ]


# ---------------------------------------------------------------------------
# map_chunks, a stub for the whole-stack benchmark: one call over the grid
# ---------------------------------------------------------------------------


class TestMapChunksSerial:
    def test_single_fused_call(self, device, small_pool):
        models = _pool_models(small_pool)
        ref = _oracle(device, models, False)
        ctx = _fresh(device)
        calls = []

        def eval_chunk(context, cells):
            calls.append(len(cells))
            return _slots(context, cells, check_memory=False)

        out = map_chunks(eval_chunk, models, ctx)
        assert out == ref
        # one call over the whole grid, every cell timed once
        assert calls == [len(models)]
        assert ctx.stats.misses == len(models)


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
# sweep_conv's unused ``jobs`` keyword; tuning many equals one-by-one; a
# warm CLI run prints what a cold one does
# ---------------------------------------------------------------------------


class TestJobsDeterminism:
    """Output is byte-identical with or without ``jobs``, tuned together or
    one by one, cold or warm."""

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
        together = autotune_pooling_many(
            device, specs, context=SimulationContext(device)
        )
        assert one_by_one == together

    def test_cli_sweep_stdout_byte_identical(self, capsys):
        # the second run in one process is served from the memo
        for args in (
            ["sweep", "--layer", "CV7", "--dim", "n", "--values", "16,32,64"],
            ["calibrate"],
        ):
            reset_default_contexts()
            assert main(args) == 0
            cold_out = capsys.readouterr().out
            assert main(args) == 0
            assert capsys.readouterr().out == cold_out, args


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
