"""The grid evaluator equals ``SimulationContext.run`` slot for slot.

:func:`evaluate_models` times each leaf with the scalar model, so every
slot must match ``context.run`` field for field — or hold the exception
``context.run`` raises — on randomized grids of plain and composed
kernels.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import SimulationContext, TITAN_BLACK
from repro.gpusim.batch import evaluate_models
from repro.gpusim.occupancy import LaunchValidationError
from repro.gpusim.session import GpuOutOfMemoryError
from repro.layers import DirectConvCHWN, Im2colGemmNCHW, make_pool_kernel
from repro.layers.base import PoolSpec
from repro.networks import CONV_LAYERS


def _scalar_eval(context, model, check_memory):
    """``context.run`` with the error capture of :func:`evaluate_models`."""
    try:
        return context.run(model, check_memory=check_memory)
    except (GpuOutOfMemoryError, ValueError) as exc:
        return exc


def _assert_identical(ref, out, label=""):
    """Field-for-field equality: frozen dataclasses compare by value, and
    every field is a Python scalar, so ``==`` is exact bit identity."""
    assert not isinstance(out, Exception), f"{label}: evaluator returned {out!r}"
    assert ref == out, f"{label}:\n  context.run     {ref}\n  evaluate_models {out}"


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
        """The error-capturing ``context.run`` oracle fills every slot
        exactly as ``evaluate_models`` does."""
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
