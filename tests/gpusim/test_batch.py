"""Grid evaluation equals ``SimulationContext.run`` slot for slot.

:func:`~repro.gpusim.exec.evaluate_cells` on a cold context must fill
every slot with what a ``context.run`` per model gives — field for field,
or the exception ``context.run`` raises — on randomized grids of plain,
composed and nested composed kernels, with OOM and launch-error slots.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import ComposedKernel, SimulationContext, TITAN_BLACK
from repro.gpusim.exec import evaluate_cells
from repro.gpusim.occupancy import LaunchValidationError
from repro.gpusim.session import GpuOutOfMemoryError
from repro.layers import DirectConvCHWN, Im2colGemmNCHW, make_pool_kernel
from repro.layers.base import ConvSpec, PoolSpec
from repro.networks import CONV_LAYERS


def _scalar_eval(context, model, check_memory):
    """``context.run`` with the error capture of :func:`evaluate_cells`."""
    try:
        return context.run(model, check_memory=check_memory)
    except (GpuOutOfMemoryError, ValueError) as exc:
        return exc


def _assert_identical(ref, out, label=""):
    """Field-for-field equality: frozen dataclasses compare by value, and
    every field is a Python scalar, so ``==`` is exact bit identity."""
    assert not isinstance(out, Exception), f"{label}: evaluator returned {out!r}"
    assert ref == out, f"{label}:\n  context.run    {ref}\n  evaluate_cells {out}"


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

plain = st.one_of(
    conv_specs.map(DirectConvCHWN),
    st.tuples(pool_specs, st.sampled_from(["chwn", "nchw-linear"])).map(
        lambda t: make_pool_kernel(*t)
    ),
)

#: an im2col whose staging buffer fits no bundled device
HUGE = ConvSpec(n=4096, ci=512, h=256, w=256, co=512, fh=3, fw=3)

leaves = st.one_of(
    plain,
    conv_specs.map(Im2colGemmNCHW),  # composed: im2col staging + GEMM
    st.just(HUGE).map(Im2colGemmNCHW),
)

#: a composed kernel over leaves, nested composed ones included
nested = st.lists(leaves, min_size=1, max_size=3).map(
    lambda ks: ComposedKernel(kernels=ks, name="conv-seq")
)
models = st.one_of(
    leaves,
    nested,
    st.lists(st.one_of(leaves, nested), min_size=1, max_size=2).map(
        lambda ks: ComposedKernel(kernels=ks, name="conv-nest")
    ),
)


def _unlaunchable(model):
    """``model`` with a block no device can launch."""
    launch = model.launch_config(TITAN_BLACK)
    object.__setattr__(
        model, "launch_config", lambda device: replace(launch, block=(2048, 1))
    )
    return model


class TestModelEquivalence:
    @given(
        ms=st.lists(
            st.one_of(models, plain.map(_unlaunchable)), min_size=1, max_size=12
        ),
        check_memory=st.booleans(),
    )
    @settings(max_examples=50, deadline=None)
    def test_mixed_model_grid_matches_context_run(self, ms, check_memory):
        """Cold ``evaluate_cells`` against one ``context.run`` per model on
        another cold context; with the check on, every model holding the
        huge im2col fills an OOM slot."""
        device = TITAN_BLACK
        scalar_ctx = SimulationContext(device, check_memory=False)
        refs = [_scalar_eval(scalar_ctx, m, check_memory) for m in ms]
        out = evaluate_cells(
            SimulationContext(device, check_memory=False), ms, check_memory
        )
        for m, ref, o in zip(ms, refs, out):
            if isinstance(ref, Exception):
                assert type(o) is type(ref) and o.args == ref.args, m.name
            else:
                _assert_identical(ref, o, m.name)

    def test_scalar_oracle_matches_batch(self):
        """The error-capturing ``context.run`` oracle fills every slot
        exactly as ``evaluate_cells`` does."""
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
        batched = evaluate_cells(
            SimulationContext(device, check_memory=False), ms, check_memory=False
        )
        assert refs == scalar == batched

    def test_error_slots_match_scalar_exceptions(self):
        """An unlaunchable model occupies its slot with the scalar error
        while the rest of the grid still evaluates."""
        good = DirectConvCHWN(replace(CONV_LAYERS["CV7"], n=8))
        bad = _unlaunchable(DirectConvCHWN(replace(CONV_LAYERS["CV7"], n=8)))
        out = evaluate_cells(
            SimulationContext(TITAN_BLACK, check_memory=False),
            [good, bad, good],
            check_memory=False,
        )
        ref = SimulationContext(TITAN_BLACK, check_memory=False).run(
            good, check_memory=False
        )
        assert out[0] == ref and out[2] == ref
        assert isinstance(out[1], LaunchValidationError)
