"""The paper's Fig. 9 fused softmax kernel, executed and checked."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layers import SoftmaxSpec, softmax_fused
from tests.oracles.softmax_emulation import _tree_reduce, softmax_fused_blockwise


class TestTreeReduction:
    @given(values=st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_max_reduction(self, values):
        arr = np.array(values, dtype=np.float32)
        assert _tree_reduce(arr, max) == pytest.approx(float(arr.max()))

    @given(values=st.lists(st.floats(-10, 10), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sum_reduction(self, values):
        arr = np.array(values, dtype=np.float64)
        assert _tree_reduce(arr, lambda a, b: a + b) == pytest.approx(
            float(arr.sum()), rel=1e-6, abs=1e-9
        )

    def test_non_power_of_two(self):
        arr = np.array([3.0, 1.0, 7.0, 2.0, 5.0], dtype=np.float32)
        assert _tree_reduce(arr, max) == 7.0


class TestFusedBlockwise:
    @given(
        n=st.integers(1, 4),
        c=st.integers(1, 300),
        block=st.sampled_from([32, 128, 256]),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_softmax(self, n, c, block, seed):
        spec = SoftmaxSpec(n=n, categories=c)
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((n, c)) * 5).astype(np.float32)
        emulated = softmax_fused_blockwise(x, spec, block_threads=block)
        np.testing.assert_allclose(
            emulated, softmax_fused(x, spec), rtol=1e-4, atol=1e-6
        )

    def test_categories_smaller_than_block(self):
        spec = SoftmaxSpec(n=2, categories=3)
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]], dtype=np.float32)
        out = softmax_fused_blockwise(x, spec, block_threads=256)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)
        np.testing.assert_allclose(out[1], 1 / 3, atol=1e-6)

    def test_numerical_stability_via_max_shift(self):
        spec = SoftmaxSpec(n=1, categories=8)
        x = np.full((1, 8), 500.0, dtype=np.float32)  # exp(500) overflows
        out = softmax_fused_blockwise(x, spec)
        assert np.isfinite(out).all()

    def test_validation(self):
        spec = SoftmaxSpec(n=1, categories=4)
        with pytest.raises(ValueError):
            softmax_fused_blockwise(np.zeros((1, 4), np.float32), spec, block_threads=0)
        with pytest.raises(ValueError):
            softmax_fused_blockwise(np.zeros((2, 4), np.float32), spec)
