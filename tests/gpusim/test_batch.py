"""Bit-identity of the batched candidate evaluator.

The SoA batch path (``CandidateBatch`` + ``evaluate_batch``) must agree
field-for-field — not approximately, bit-for-bit — with the scalar golden
reference: :func:`time_kernel` for a raw spec, ``SimulationContext.run``
for a kernel model.  The property tests drive randomized launch/profile
grids through both paths, including the degenerate corners the planner
can produce: one-thread blocks, launches sitting exactly on an occupancy
limiter, and kernels with zero stores (or zero traffic entirely).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpusim import (
    LaunchConfig,
    MemoryProfile,
    SimulationContext,
    TITAN_BLACK,
    TITAN_X,
    compute_occupancy,
    time_kernel,
)
from repro.gpusim.batch import (
    EvalSpec,
    _scalar_eval,
    evaluate_models,
    evaluate_specs,
)
from repro.gpusim.occupancy import LaunchValidationError
from repro.layers import DirectConvCHWN, Im2colGemmNCHW, make_pool_kernel
from repro.layers.base import PoolSpec
from repro.networks import CONV_LAYERS

DEVICES = (TITAN_BLACK, TITAN_X)


def _assert_identical(ref, out, label=""):
    """Field-for-field equality: frozen dataclasses compare by value, and
    every field is a Python scalar, so ``==`` is exact bit identity."""
    assert not isinstance(out, Exception), f"{label}: batch returned {out!r}"
    assert ref == out, f"{label}:\n  scalar  {ref}\n  batched {out}"


# --------------------------------------------------------------------------
# raw specs vs time_kernel
# --------------------------------------------------------------------------

launch_configs = st.builds(
    LaunchConfig,
    grid=st.tuples(st.integers(1, 4096), st.integers(1, 64)),
    block=st.tuples(st.integers(1, 1024), st.integers(1, 8)),
    regs_per_thread=st.sampled_from([0, 8, 16, 32, 63, 128, 255]),
    smem_per_block=st.sampled_from([0, 1, 2048, 12 * 1024, 48 * 1024]),
    active_lane_fraction=st.sampled_from([1.0, 0.5, 0.25, 1 / 3, 0.03125]),
)

profiles = st.builds(
    MemoryProfile,
    load_bytes=st.sampled_from([0.0, 4.0, 1e3, 1e6, 3.7e8]),
    store_bytes=st.sampled_from([0.0, 4.0, 1e3, 1e6]),
    load_transactions=st.sampled_from([0.0, 1.0, 33.0, 1e5, 1e7]),
    store_transactions=st.sampled_from([0.0, 1.0, 1e4, 1e6]),
    l2_hit_rate=st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]),
    dependent_iterations=st.sampled_from([1.0, 2.0, 81.0]),
    smem_conflict_degree=st.sampled_from([1.0, 1.5, 32.0]),
    access_bytes=st.sampled_from([4, 8, 16]),
)

eval_specs = st.builds(
    EvalSpec,
    launch=launch_configs,
    flops=st.sampled_from([0.0, 1.0, 1e6, 4.2e9]),
    alu_efficiency=st.sampled_from([0.05, 0.5, 1.0]),
    profile=profiles,
    n_launches=st.sampled_from([1, 2, 5]),
    name=st.sampled_from(["kernel", "pool-chwn", ""]),
)


def _scalar_ref(device, spec):
    return time_kernel(
        device,
        spec.launch,
        spec.flops,
        spec.alu_efficiency,
        spec.profile,
        n_launches=spec.n_launches,
        name=spec.name,
    )


class TestSpecEquivalence:
    @given(specs=st.lists(eval_specs, min_size=1, max_size=20))
    @settings(max_examples=120, deadline=None)
    def test_randomized_grid_matches_scalar(self, specs):
        for device in DEVICES:
            valid = []
            for s in specs:
                try:
                    compute_occupancy(device, s.launch)
                except (LaunchValidationError, ValueError):
                    continue
                valid.append(s)
            if not valid:
                continue
            out = evaluate_specs(device, valid)
            for s, o in zip(valid, out):
                _assert_identical(_scalar_ref(device, s), o, device.name)

    @given(spec=eval_specs)
    @settings(max_examples=60, deadline=None)
    @example(
        spec=EvalSpec(  # one-thread block, zero-store, zero-flop kernel
            LaunchConfig(grid=(1, 1), block=(1, 1)),
            0.0,
            1.0,
            MemoryProfile(4.0, 0.0, 1.0, 0.0, 0.0),
        )
    )
    def test_single_spec_matches_scalar(self, spec):
        for device in DEVICES:
            try:
                ref = _scalar_ref(device, spec)
            except (LaunchValidationError, ValueError):
                with pytest.raises((LaunchValidationError, ValueError)):
                    evaluate_specs(device, [spec])
                continue
            _assert_identical(ref, evaluate_specs(device, [spec])[0], device.name)


class TestDegenerateCandidates:
    """The planner's corner cases, pinned explicitly."""

    def _check(self, spec):
        for device in DEVICES:
            _assert_identical(
                _scalar_ref(device, spec),
                evaluate_specs(device, [spec])[0],
                device.name,
            )

    def test_one_thread_block(self):
        self._check(
            EvalSpec(
                LaunchConfig(grid=(1, 1), block=(1, 1)),
                10.0,
                1.0,
                MemoryProfile(4.0, 4.0, 1.0, 1.0, 0.0),
            )
        )

    def test_zero_store_kernel(self):
        self._check(
            EvalSpec(
                LaunchConfig(grid=(128, 1), block=(256, 1)),
                1e6,
                0.8,
                MemoryProfile(1e6, 0.0, 4096.0, 0.0, 0.5),
            )
        )

    def test_zero_traffic_kernel(self):
        self._check(
            EvalSpec(
                LaunchConfig(grid=(64, 1), block=(128, 1)),
                1e9,
                1.0,
                MemoryProfile(0.0, 0.0, 0.0, 0.0, 0.0),
            )
        )

    @pytest.mark.parametrize(
        "launch,limiter",
        [
            # 2048 threads/SM at 256 threads/block: threads limit binds
            (LaunchConfig(grid=(512, 1), block=(256, 1)), "threads"),
            # tiny blocks: blocks/SM cap binds before the warp cap
            (LaunchConfig(grid=(512, 1), block=(32, 1)), "blocks"),
            # 255 regs/thread: register file limit binds
            (
                LaunchConfig(grid=(512, 1), block=(256, 1), regs_per_thread=255),
                "registers",
            ),
            # a full SM's shared memory per block: exactly one block fits
            (
                LaunchConfig(
                    grid=(512, 1), block=(256, 1), smem_per_block=48 * 1024
                ),
                "shared_memory",
            ),
        ],
    )
    def test_occupancy_limit_edges(self, launch, limiter):
        spec = EvalSpec(
            launch, 1e6, 1.0, MemoryProfile(1e5, 1e5, 3000.0, 3000.0, 0.5)
        )
        stats = evaluate_specs(TITAN_BLACK, [spec])[0]
        assert stats.occupancy.limiter == limiter
        self._check(spec)

    def test_invalid_launch_raises_scalar_error(self):
        """A block larger than the device allows must raise the scalar
        checker's LaunchValidationError, not silently evaluate."""
        spec = EvalSpec(
            LaunchConfig(grid=(1, 1), block=(2048, 1)),
            1.0,
            1.0,
            MemoryProfile(4.0, 4.0, 1.0, 1.0, 0.0),
        )
        with pytest.raises(LaunchValidationError):
            evaluate_specs(TITAN_BLACK, [spec])


# --------------------------------------------------------------------------
# kernel models vs SimulationContext.run
# --------------------------------------------------------------------------

conv_specs = st.builds(
    lambda n, ci: replace(CONV_LAYERS["CV7"], n=n, ci=ci),
    n=st.sampled_from([1, 2, 7, 64, 256, 512]),
    ci=st.sampled_from([3, 16, 96, 256]),
)

pool_specs = st.builds(
    PoolSpec,
    n=st.sampled_from([1, 16, 128, 384]),
    c=st.sampled_from([3, 64, 256]),
    h=st.just(27),
    w=st.just(27),
    window=st.sampled_from([2, 3]),
    stride=st.sampled_from([1, 2]),
)

models = st.one_of(
    conv_specs.map(DirectConvCHWN),
    conv_specs.map(Im2colGemmNCHW),  # composed: im2col staging + GEMM
    st.tuples(pool_specs, st.sampled_from(["chwn", "nchw-linear"])).map(
        lambda t: make_pool_kernel(*t)
    ),
)


class TestModelEquivalence:
    @given(ms=st.lists(models, min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_mixed_model_grid_matches_context_run(self, ms):
        device = TITAN_BLACK
        scalar_ctx = SimulationContext(device, check_memory=False)
        refs = [scalar_ctx.run(m, check_memory=False) for m in ms]
        out = evaluate_models(
            SimulationContext(device, check_memory=False), ms, check_memory=False
        )
        for m, ref, o in zip(ms, refs, out):
            _assert_identical(ref, o, m.name)

    def test_scalar_oracle_matches_batch(self):
        """``_scalar_eval`` (the per-model fallback for nested composed
        kernels) fills every slot exactly as the batch does."""
        ms = [
            DirectConvCHWN(replace(CONV_LAYERS["CV7"], n=8)),
            make_pool_kernel(
                PoolSpec(n=8, c=16, h=27, w=27, window=3, stride=2), "chwn"
            ),
        ]
        device = TITAN_BLACK
        refs = [
            SimulationContext(device, check_memory=False).run(m, check_memory=False)
            for m in ms
        ]
        ctx = SimulationContext(device, check_memory=False)
        scalar = [_scalar_eval(ctx, m, check_memory=False) for m in ms]
        batched = evaluate_models(
            SimulationContext(device, check_memory=False), ms, check_memory=False
        )
        assert refs == scalar == batched

    def test_error_slots_match_scalar_exceptions(self):
        """An unlaunchable model occupies its slot with the scalar error
        while the rest of the grid still evaluates."""
        good = DirectConvCHWN(replace(CONV_LAYERS["CV7"], n=8))
        bad = DirectConvCHWN(replace(CONV_LAYERS["CV7"], n=8))
        launch = good.launch_config(TITAN_BLACK)
        object.__setattr__(
            bad, "launch_config", lambda device: replace(launch, block=(2048, 1))
        )
        out = evaluate_models(
            SimulationContext(TITAN_BLACK, check_memory=False),
            [good, bad, good],
            check_memory=False,
        )
        ref = SimulationContext(TITAN_BLACK, check_memory=False).run(
            good, check_memory=False
        )
        assert out[0] == ref and out[2] == ref
        assert isinstance(out[1], LaunchValidationError)
