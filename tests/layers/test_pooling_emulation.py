"""CHWN pooling kernels, executed in their native layout and checked."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.layers import PoolSpec, pool_plain
from tests.oracles.pooling_emulation import (
    footprint_loads,
    pool_chwn_coarsened_emulated,
    pool_chwn_emulated,
)
from repro.tensors import CHWN, NCHW, Tensor4D

pool_specs = st.builds(
    PoolSpec,
    n=st.sampled_from([8, 32, 40]),
    c=st.integers(1, 4),
    h=st.integers(4, 12),
    w=st.integers(4, 12),
    window=st.integers(2, 3),
    stride=st.integers(1, 3),
    op=st.sampled_from(["max", "avg"]),
).filter(lambda s: s.window <= min(s.h, s.w))


def case(spec, seed=0):
    rng = np.random.default_rng(seed)
    logical = rng.standard_normal((spec.n, spec.c, spec.h, spec.w)).astype(np.float32)
    return Tensor4D.from_nchw(logical, CHWN), pool_plain(logical, spec)


class TestPlainKernel:
    @given(spec=pool_specs, seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference(self, spec, seed):
        x, reference = case(spec, seed)
        out = pool_chwn_emulated(x, spec)
        assert out.layout == CHWN
        np.testing.assert_allclose(out.as_nchw(), reference, rtol=1e-5, atol=1e-6)

    def test_requires_chwn(self):
        spec = PoolSpec(n=8, c=1, h=4, w=4, window=2, stride=2)
        x = Tensor4D.from_nchw(np.zeros((8, 1, 4, 4), np.float32), NCHW)
        with pytest.raises(ValueError, match="CHWN"):
            pool_chwn_emulated(x, spec)


class TestCoarsenedKernel:
    @given(
        spec=pool_specs,
        ux=st.integers(1, 3),
        uy=st.integers(1, 3),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_for_any_tile(self, spec, ux, uy, seed):
        x, reference = case(spec, seed)
        out = pool_chwn_coarsened_emulated(x, spec, ux, uy)
        np.testing.assert_allclose(out.as_nchw(), reference, rtol=1e-5, atol=1e-6)

    def test_validation(self):
        spec = PoolSpec(n=8, c=1, h=4, w=4, window=2, stride=2)
        x = Tensor4D.from_nchw(np.zeros((8, 1, 4, 4), np.float32), CHWN)
        with pytest.raises(ValueError):
            pool_chwn_coarsened_emulated(x, spec, 0, 1)


class TestFootprintCounters:
    def test_overlapped_pooling_saves_loads(self):
        spec = PoolSpec(n=1, c=1, h=12, w=12, window=3, stride=2)
        plain, coarse = footprint_loads(spec, 2, 2)
        assert coarse < plain

    def test_non_overlapped_saves_nothing(self):
        spec = PoolSpec(n=1, c=1, h=8, w=8, window=2, stride=2)
        plain, coarse = footprint_loads(spec, 2, 2)
        assert coarse == plain

    def test_fig8_one_dimensional_counts(self):
        """Fig. 8's 1-D illustration: window 4, stride 2 over 12 elements
        gives 5 outputs needing 20 loads; a register working set covering
        the row needs only the 12 unique elements."""
        spec = PoolSpec(n=1, c=1, h=4, w=12, window=4, stride=2)
        assert spec.out_w == 5
        plain_row_loads = spec.out_w * spec.window
        coarse_row_loads = (spec.out_w - 1) * spec.stride + spec.window
        assert plain_row_loads == 20
        assert coarse_row_loads == 12
