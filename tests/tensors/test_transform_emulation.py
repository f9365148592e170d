"""The paper's Fig. 7 kernels, executed and checked for correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensors import CHWN, NCHW, Tensor4D, make_input
from tests.oracles.transform_emulation import (
    naive_transform_emulated,
    tiled_transform_emulated,
)


def reference(tensor: Tensor4D) -> np.ndarray:
    return tensor.to_layout(NCHW).data


small_dims = st.tuples(
    st.sampled_from([2, 4, 32, 64]),  # N
    st.integers(1, 5),  # C
    st.integers(1, 6),  # H
    st.integers(1, 6),  # W
)


class TestNaiveKernel:
    @given(dims=small_dims, seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_fig7a_index_math_is_correct(self, dims, seed):
        t = make_input(*dims, layout=CHWN, seed=seed)
        out = naive_transform_emulated(t)
        assert out.layout == NCHW
        np.testing.assert_array_equal(out.data, reference(t))

    def test_rejects_other_directions(self):
        t = make_input(4, 2, 3, 3, layout=NCHW)
        with pytest.raises(ValueError, match="CHWN"):
            naive_transform_emulated(t)


class TestTiledKernel:
    @given(dims=small_dims, seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_fig7b_tiling_is_correct(self, dims, seed):
        t = make_input(*dims, layout=CHWN, seed=seed)
        out = tiled_transform_emulated(t)
        np.testing.assert_array_equal(out.data, reference(t))

    def test_ragged_tile_edges(self):
        # rows = 3*5*7 = 105 and cols = 33: neither divides 32.
        t = make_input(33, 3, 5, 7, layout=CHWN, seed=9)
        out = tiled_transform_emulated(t)
        np.testing.assert_array_equal(out.data, reference(t))

    @given(
        n=st.sampled_from([64, 128, 192]),
        c=st.integers(1, 4),
        h=st.integers(1, 5),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=20, deadline=None)
    def test_vectorized_variant_is_correct(self, n, c, h, seed):
        t = make_input(n, c, h, h, layout=CHWN, seed=seed)
        out = tiled_transform_emulated(t, vectorized=True)
        np.testing.assert_array_equal(out.data, reference(t))

    def test_vectorized_requires_multiple_of_64(self):
        t = make_input(32, 2, 3, 3, layout=CHWN)
        with pytest.raises(ValueError, match="64"):
            tiled_transform_emulated(t, vectorized=True)

    def test_all_three_kernels_agree(self):
        t = make_input(64, 3, 5, 5, layout=CHWN, seed=3)
        a = naive_transform_emulated(t).data
        b = tiled_transform_emulated(t).data
        c = tiled_transform_emulated(t, vectorized=True).data
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, c)
