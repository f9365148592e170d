"""Pooling kernel models: Fig. 6 layout dominance, Fig. 12 coarsening."""

from math import ceil

import numpy as np
import pytest

from repro.gpusim import (
    TITAN_BLACK,
    TITAN_X,
    SetAssociativeCache,
    default_context,
    sample_indices,
    transaction_stream,
)
from repro.layers import PoolSpec
from repro.layers import (
    PoolingCHWN,
    PoolingCoarsenedCHWN,
    PoolingNCHWBlockPerRow,
    PoolingNCHWLinear,
    make_pool_kernel,
)
from repro.networks import POOL_LAYERS


def useful_bytes(spec):
    return spec.in_desc().nbytes + spec.out_desc().nbytes


class TestCHWN:
    def test_coalesced_loads(self, device):
        p = PoolingCHWN(POOL_LAYERS["PL5"]).memory_profile(device)
        assert p.load_transactions == pytest.approx(p.load_bytes / 32)

    def test_overlapped_layers_get_l2_credit(self, device):
        overlapped = PoolingCHWN(POOL_LAYERS["PL5"]).memory_profile(device)
        non_overlapped = PoolingCHWN(POOL_LAYERS["PL1"]).memory_profile(device)
        assert overlapped.l2_hit_rate > non_overlapped.l2_hit_rate

    def test_achieved_bandwidth_in_paper_zone(self, device):
        """Paper Fig. 6: cuda-convnet pooling reaches 132–205 GB/s."""
        for name in ("PL1", "PL3", "PL5", "PL7", "PL8"):
            spec = POOL_LAYERS[name]
            stats = default_context(device).run(PoolingCHWN(spec))
            bw = useful_bytes(spec) / (stats.time_ms * 1e6)
            assert 100 < bw < 235, f"{name}: {bw:.1f} GB/s"

    def test_profile_is_cached(self, device):
        k = PoolingCHWN(POOL_LAYERS["PL3"])
        assert k.memory_profile(device) is k.memory_profile(device)


class TestNCHWDominatedByCHWN:
    """Fig. 6: 'cuda-convnet significantly outperforms Caffe and cuDNN
    across the board'."""

    @pytest.mark.parametrize("name", sorted(POOL_LAYERS))
    def test_chwn_faster_than_both_nchw_kernels(self, device, name):
        spec = POOL_LAYERS[name]
        t_chwn = default_context(device).run(PoolingCHWN(spec)).time_ms
        t_caffe = default_context(device).run(PoolingNCHWLinear(spec)).time_ms
        t_cudnn = default_context(device).run(PoolingNCHWBlockPerRow(spec)).time_ms
        assert t_chwn < t_caffe
        assert t_chwn < t_cudnn

    def test_worst_case_speedup_magnitude(self, device):
        """Paper: 'with a speedup up to 16.3x' over NCHW libraries; our
        model's worst case lands lower (~6.5x) but well beyond the average."""
        worst = max(
            default_context(device).run(PoolingNCHWBlockPerRow(spec)).time_ms
            / default_context(device).run(PoolingCHWN(spec)).time_ms
            for spec in POOL_LAYERS.values()
        )
        assert 4 < worst < 30

    def test_nchw_bandwidth_in_paper_zone(self, device):
        """Paper: Caffe avg 52.3 GB/s, cuDNN avg 41.9 GB/s."""
        bws = []
        for spec in POOL_LAYERS.values():
            stats = default_context(device).run(PoolingNCHWLinear(spec))
            bws.append(useful_bytes(spec) / (stats.time_ms * 1e6))
        avg = sum(bws) / len(bws)
        assert 30 < avg < 90

    def test_caffe_mask_store_traffic(self, device):
        spec = POOL_LAYERS["PL5"]
        p = PoolingNCHWLinear(spec).memory_profile(device)
        assert p.store_bytes == pytest.approx(2 * spec.out_desc().nbytes)


class TestCoarsening:
    def test_reduces_load_traffic_for_overlapped(self, device):
        spec = POOL_LAYERS["PL5"]  # 3x3 stride 2
        plain = PoolingCHWN(spec).memory_profile(device)
        coarse = PoolingCoarsenedCHWN(spec, 2, 2).memory_profile(device)
        assert coarse.load_bytes < plain.load_bytes

    def test_no_traffic_win_for_non_overlapped(self, device):
        spec = POOL_LAYERS["PL1"]  # 2x2 stride 2
        plain = PoolingCHWN(spec).memory_profile(device)
        coarse = PoolingCoarsenedCHWN(spec, 2, 2).memory_profile(device)
        assert coarse.load_bytes >= plain.load_bytes * 0.99

    def test_register_pressure_grows_with_tile(self, device):
        spec = POOL_LAYERS["PL5"]
        small = PoolingCoarsenedCHWN(spec, 2, 2).launch_config(device)
        big = PoolingCoarsenedCHWN(spec, 6, 6).launch_config(device)
        assert big.regs_per_thread > small.regs_per_thread

    def test_overlapped_speedup_in_paper_zone(self, device):
        """Fig. 12: 'improve the state-of-the-art performance by an average
        of 14.3%' on overlapped layers."""
        gains = []
        for name in ("PL3", "PL5", "PL6", "PL7", "PL8", "PL9", "PL10"):
            spec = POOL_LAYERS[name]
            t_plain = default_context(device).run(PoolingCHWN(spec)).time_ms
            t_coarse = default_context(device).run(PoolingCoarsenedCHWN(spec, 2, 2)).time_ms
            gains.append(t_plain / t_coarse - 1)
        avg_gain = sum(gains) / len(gains)
        assert 0.05 < avg_gain < 0.40

    def test_invalid_factors(self):
        with pytest.raises(ValueError):
            PoolingCoarsenedCHWN(POOL_LAYERS["PL1"], 0, 2)


class TestFactory:
    @pytest.mark.parametrize(
        "impl,cls",
        [
            ("chwn", PoolingCHWN),
            ("chwn-coarsened", PoolingCoarsenedCHWN),
            ("nchw-linear", PoolingNCHWLinear),
            ("nchw-rowblock", PoolingNCHWBlockPerRow),
        ],
    )
    def test_dispatch(self, impl, cls):
        assert isinstance(make_pool_kernel(POOL_LAYERS["PL3"], impl), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_pool_kernel(POOL_LAYERS["PL3"], "nhwc")

    def test_coarsen_factors_forwarded(self):
        k = make_pool_kernel(POOL_LAYERS["PL3"], "chwn-coarsened", coarsen=(3, 2))
        assert (k.ux, k.uy) == (3, 2)


class TestTracedL2Diagnostic:
    """The NCHW kernels charge every fetched load transaction to DRAM; the
    L2 model is applied to their traces on demand, never while timing."""

    @staticmethod
    def _replayed_hit_rate(kernel, device):
        indices, _, _ = kernel._stacked_loads(device)
        # float byte addresses; inactive lanes stay negative
        stream = transaction_stream(indices * 4, device.transaction_bytes)
        return float(SetAssociativeCache.l2_for(device).access_stream(stream).mean())

    @pytest.mark.parametrize("impl", ["nchw-linear", "nchw-rowblock"])
    def test_nchw_loads_charged_to_dram(self, device, impl):
        p = make_pool_kernel(POOL_LAYERS["PL3"], impl).memory_profile(device)
        assert p.l2_hit_rate == 0.0

    def test_deterministic_across_instances(self, device):
        a = self._replayed_hit_rate(PoolingNCHWLinear(POOL_LAYERS["PL5"]), device)
        b = self._replayed_hit_rate(PoolingNCHWLinear(POOL_LAYERS["PL5"]), device)
        assert a == b

    def test_line_reuse_shows_up_on_small_maps(self, device):
        """PL5's small maps fit the L2, so window overlap and intra-line
        sharing register as a substantial replayed hit rate, which the
        charge to DRAM above forgoes."""
        kernel = PoolingNCHWLinear(POOL_LAYERS["PL5"])
        assert self._replayed_hit_rate(kernel, device) > 0.3


def _reference_trace(kernel, device):
    """An NCHW kernel's load trace built one window tap at a time, as it
    was first written: the reference for the tap broadcast."""
    s = kernel.spec
    warp = device.warp_size
    plane = s.out_h * s.out_w
    padded = ceil(plane / warp) * warp
    rowblock = isinstance(kernel, PoolingNCHWBlockPerRow)
    threads = s.n * s.c * padded if rowblock else s.out_elements
    n_warps = ceil(threads / warp)
    sampled = sample_indices(n_warps, kernel.max_sample_warps)
    tid = sampled[:, None] * warp + np.arange(warp)
    if rowblock:
        fmap, pos, active = tid // padded, tid % padded, tid % padded < plane
    else:
        fmap, pos, active = tid // plane, tid % plane, tid < threads
    ho, wo = pos // s.out_w, pos % s.out_w
    rows = []
    for fy in range(s.window):
        for fx in range(s.window):
            hi = np.minimum(ho * s.stride + fy, s.h - 1)
            wi = np.minimum(wo * s.stride + fx, s.w - 1)
            rows.append(np.where(active, (fmap * s.h + hi) * s.w + wi, -1))
    return np.concatenate(rows), n_warps, len(sampled)


class TestTracedLoads:
    """The tap broadcast builds the per-tap reference trace exactly:
    same indices, same tap-major row order, same warp counts."""

    #: ceil-mode windows clipped at the input edge, a partial last warp
    CLIPPED = PoolSpec(n=3, c=5, h=14, w=14, window=3, stride=2)

    @pytest.mark.parametrize("kernel_cls", [PoolingNCHWLinear, PoolingNCHWBlockPerRow])
    @pytest.mark.parametrize("device", [TITAN_BLACK, TITAN_X], ids=lambda d: d.name)
    def test_matches_per_tap_reference(self, kernel_cls, device):
        for spec in [*POOL_LAYERS.values(), self.CLIPPED]:
            kernel = kernel_cls(spec)
            trace, n_warps, n_sampled = kernel._stacked_loads(device)
            ref, ref_warps, ref_sampled = _reference_trace(kernel, device)
            np.testing.assert_array_equal(trace, ref, str(spec))
            assert (n_warps, n_sampled) == (ref_warps, ref_sampled)
