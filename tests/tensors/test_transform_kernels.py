"""Transformation kernel models: the Fig. 7 / Fig. 11 behaviours."""

import pytest

from repro.gpusim import default_context
from repro.tensors import (
    CHWN,
    NCHW,
    NaiveTransformKernel,
    TensorDesc,
    TiledTransformKernel,
    VectorTransformKernel,
    make_transform_kernel,
    transform_stats,
    transform_time_ms,
)

CV6_DESC = TensorDesc(64, 96, 55, 55, CHWN)


class TestNaive:
    def test_uncoalesced_stores_dominate(self, device):
        stats = transform_stats(device, CV6_DESC, NCHW, "naive")
        # ~1 transaction per element on the store side -> heavy overfetch.
        assert stats.dram_bytes > 5 * 2 * CV6_DESC.nbytes
        assert stats.effective_bandwidth_gbs < 50

    def test_same_layout_rejected(self):
        with pytest.raises(ValueError):
            NaiveTransformKernel(CV6_DESC, CHWN)

    def test_workspace_is_destination_buffer(self):
        k = NaiveTransformKernel(CV6_DESC, NCHW)
        assert k.workspace_bytes() == CV6_DESC.nbytes

    def test_no_flops(self):
        assert NaiveTransformKernel(CV6_DESC, NCHW).flop_count() == 0.0


class TestTiled:
    def test_opt1_is_coalesced(self, device):
        stats = transform_stats(device, CV6_DESC, NCHW, "opt1")
        assert stats.dram_bytes == pytest.approx(2 * CV6_DESC.nbytes, rel=0.05)
        assert stats.effective_bandwidth_gbs > 150

    def test_opt1_beats_naive_by_several_x(self, device):
        """Paper Fig. 11: 'an average of 6.48x speedup' for Opt1."""
        naive = transform_time_ms(device, CV6_DESC, NCHW, "naive")
        opt1 = transform_time_ms(device, CV6_DESC, NCHW, "opt1")
        assert naive / opt1 > 4

    def test_unpadded_tile_pays_bank_conflicts(self, device):
        padded = default_context(device).run(TiledTransformKernel(CV6_DESC, NCHW, padded=True))
        unpadded = default_context(device).run(TiledTransformKernel(CV6_DESC, NCHW, padded=False))
        assert unpadded.time_ms > padded.time_ms

    def test_requires_2d_transposable_permutation(self):
        from repro.tensors import DataLayout

        with pytest.raises(ValueError):
            TiledTransformKernel(CV6_DESC, DataLayout("WHCN"))

    def test_edge_tiles_inflate_transactions(self, device):
        ragged = TensorDesc(33, 5, 7, 11, CHWN)  # nothing divides 32
        aligned = TensorDesc(64, 8, 8, 16, CHWN)
        p_ragged = TiledTransformKernel(ragged, NCHW).memory_profile(device)
        p_aligned = TiledTransformKernel(aligned, NCHW).memory_profile(device)
        assert (
            p_ragged.load_transactions / (ragged.nbytes / 32)
            > p_aligned.load_transactions / (aligned.nbytes / 32)
        )


class TestVectorized:
    def test_opt2_reaches_nearly_effective_bandwidth(self, device):
        """Paper: 'achieved 229.5 GB/s, 97.6% of the effective bandwidth'."""
        stats = transform_stats(device, CV6_DESC, NCHW, "opt2")
        assert stats.effective_bandwidth_gbs > 0.90 * device.mem_bandwidth_gbs

    def test_opt2_beats_opt1(self, device):
        opt1 = transform_time_ms(device, CV6_DESC, NCHW, "opt1")
        opt2 = transform_time_ms(device, CV6_DESC, NCHW, "opt2")
        assert opt2 < opt1

    def test_requires_wide_batch(self):
        """Fig. 11: 'Transform-Opt2 is not applicable for CV10, CV11, CV12
        whose N is smaller than 64'."""
        cv10 = TensorDesc(32, 128, 56, 56, CHWN)
        with pytest.raises(ValueError, match="64"):
            VectorTransformKernel(cv10, NCHW)


class TestAutoSelection:
    def test_auto_picks_opt2_for_wide_batch(self):
        k = make_transform_kernel(CV6_DESC, NCHW, "auto")
        assert isinstance(k, VectorTransformKernel)

    def test_auto_falls_back_to_opt1_for_narrow_batch(self):
        cv10 = TensorDesc(32, 128, 56, 56, CHWN)
        k = make_transform_kernel(cv10, NCHW, "auto")
        assert isinstance(k, TiledTransformKernel)

    def test_auto_falls_back_to_naive_for_4d_shuffle(self):
        from repro.tensors import DataLayout

        k = make_transform_kernel(CV6_DESC, DataLayout("WHCN"), "auto")
        assert isinstance(k, NaiveTransformKernel)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_transform_kernel(CV6_DESC, NCHW, "opt3")

    def test_transform_time_zero_for_identity(self, device):
        assert transform_time_ms(device, CV6_DESC, CHWN) == 0.0
