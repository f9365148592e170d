"""cuda-convnet's blocked CHWN direct convolution, executed and checked."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layers import ConvSpec, conv_direct, make_filters
from tests.oracles.conv_emulation import direct_conv_chwn_emulated, register_tile_reuse
from repro.tensors import CHWN, NCHW, Tensor4D

specs = st.builds(
    ConvSpec,
    n=st.sampled_from([8, 32, 64]),
    ci=st.integers(1, 4),
    h=st.integers(5, 10),
    w=st.integers(5, 10),
    co=st.integers(1, 6),
    fh=st.sampled_from([3, 5]),
    fw=st.sampled_from([3, 5]),
    stride=st.integers(1, 2),
    pad=st.integers(0, 1),
).filter(lambda s: s.fh <= s.h + 2 * s.pad and s.fw <= s.w + 2 * s.pad)


def run_case(spec, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    logical = rng.standard_normal((spec.n, spec.ci, spec.h, spec.w)).astype(np.float32)
    w = make_filters(spec, seed=seed + 1)
    x = Tensor4D.from_nchw(logical, CHWN)
    emulated = direct_conv_chwn_emulated(x, w, spec, **kwargs)
    reference = conv_direct(logical, w, spec)
    return emulated, reference


class TestBlockedAlgorithm:
    @given(spec=specs, seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, spec, seed):
        emulated, reference = run_case(spec, seed)
        assert emulated.layout == CHWN
        np.testing.assert_allclose(
            emulated.as_nchw(), reference, rtol=1e-4, atol=1e-5
        )

    @pytest.mark.parametrize("ipt", [1, 2, 4])
    def test_any_images_per_thread_is_value_preserving(self, ipt):
        spec = ConvSpec(n=128, ci=2, h=6, w=6, co=5, fh=3, fw=3, pad=1)
        emulated, reference = run_case(spec, seed=3, imgs_per_thread=ipt)
        np.testing.assert_allclose(
            emulated.as_nchw(), reference, rtol=1e-4, atol=1e-5
        )

    def test_partial_image_block(self):
        # N=40: one full 32-image warp plus an 8-image tail block.
        spec = ConvSpec(n=40, ci=2, h=5, w=5, co=3, fh=3, fw=3)
        emulated, reference = run_case(spec, seed=7, imgs_per_thread=1)
        np.testing.assert_allclose(
            emulated.as_nchw(), reference, rtol=1e-4, atol=1e-5
        )

    def test_requires_chwn(self):
        spec = ConvSpec(n=8, ci=1, h=5, w=5, co=2, fh=3, fw=3)
        x = Tensor4D.from_nchw(np.zeros((8, 1, 5, 5), np.float32), NCHW)
        with pytest.raises(ValueError, match="CHWN"):
            direct_conv_chwn_emulated(x, make_filters(spec), spec)

    def test_requires_single_group(self):
        spec = ConvSpec(n=8, ci=4, h=5, w=5, co=4, fh=3, fw=3, groups=2)
        x = Tensor4D.from_nchw(np.zeros((8, 4, 5, 5), np.float32), CHWN)
        with pytest.raises(ValueError, match="group"):
            direct_conv_chwn_emulated(x, make_filters(spec), spec)


class TestRegisterReuse:
    def test_reuse_grows_with_batch(self):
        """The arithmetic behind Fig. 4a: register reuse ramps with N."""
        reuses = [
            register_tile_reuse(
                ConvSpec(n=n, ci=16, h=8, w=8, co=16, fh=3, fw=3)
            )
            for n in (32, 64, 128)
        ]
        assert reuses == sorted(reuses)
        assert reuses[-1] > 2 * reuses[0]

    def test_saturates_at_four_images(self):
        big = register_tile_reuse(ConvSpec(n=512, ci=16, h=8, w=8, co=16, fh=3, fw=3))
        at128 = register_tile_reuse(ConvSpec(n=128, ci=16, h=8, w=8, co=16, fh=3, fw=3))
        assert big == pytest.approx(at128)
