"""End-to-end checks of the paper's headline quantitative claims.

Each test names the figure/table/claim it pins down.  Tolerances are wide —
the substrate is a performance model, not the authors' testbed — but every
*direction* and every crossover must hold (see EXPERIMENTS.md).
"""

from dataclasses import replace


from repro.core import calibrate
from repro.gpusim import default_context
from repro.layers import (
    DirectConvCHWN,
    FusedParallelSoftmax,
    Im2colGemmNCHW,
    make_conv_kernel,
)
from repro.networks import CONV_LAYERS, FIG13_SOFTMAX
from repro.tensors import CHWN, NCHW, transform_time_ms


class TestFig4Crossovers:
    def test_4a_batch_crossover_between_64_and_128(self, device):
        """Fig. 4a: cuda-convnet overtakes cuDNN as N grows past 64–128."""
        engine = default_context(device)
        base = CONV_LAYERS["CV7"]
        winners = {}
        for n in (16, 32, 64, 128, 256, 512):
            spec = replace(base, n=n)
            t_c = engine.run(DirectConvCHWN(spec)).time_ms
            t_m = engine.run(Im2colGemmNCHW(spec)).time_ms
            winners[n] = "CHWN" if t_c < t_m else "NCHW"
        assert winners[32] == "NCHW" and winners[64] == "NCHW"
        assert winners[128] == "CHWN" and winners[512] == "CHWN"

    def test_4b_channel_crossover_near_32(self, device):
        """Fig. 4b: 'cuDNN performs better when C is larger than 32'."""
        engine = default_context(device)
        base = CONV_LAYERS["CV7"]
        for c, expected in ((16, "CHWN"), (32, "CHWN"), (64, "NCHW"), (256, "NCHW")):
            spec = replace(base, ci=c)
            t_c = engine.run(DirectConvCHWN(spec)).time_ms
            t_m = engine.run(Im2colGemmNCHW(spec)).time_ms
            winner = "CHWN" if t_c < t_m else "NCHW"
            assert winner == expected, f"C={c}"

    def test_chwn_gflops_scale_with_n(self, device):
        """Fig. 4a: the CHWN curve rises steeply with batch, the NCHW curve
        is nearly flat."""
        engine = default_context(device)
        base = CONV_LAYERS["CV7"]
        chwn_16 = engine.run(DirectConvCHWN(replace(base, n=16))).achieved_gflops
        chwn_128 = engine.run(DirectConvCHWN(replace(base, n=128))).achieved_gflops
        nchw_16 = engine.run(Im2colGemmNCHW(replace(base, n=16))).achieved_gflops
        nchw_128 = engine.run(Im2colGemmNCHW(replace(base, n=128))).achieved_gflops
        assert chwn_128 / chwn_16 > 4
        assert nchw_128 / nchw_16 < 1.5


class TestFig10LayoutSpeedups:
    def test_average_preferred_layout_speedup(self, device):
        """Fig. 10: 'on average, 2.48x speedup is achieved with the
        preferred data layout compared to the alternative one'."""
        engine = default_context(device)
        ratios = []
        for spec in CONV_LAYERS.values():
            t_c = engine.run(DirectConvCHWN(spec)).time_ms
            t_m = engine.run(Im2colGemmNCHW(spec)).time_ms
            ratios.append(max(t_c, t_m) / min(t_c, t_m))
        geomean = 1.0
        for r in ratios:
            geomean *= r
        geomean **= 1 / len(ratios)
        assert 1.8 < geomean < 4.5

    def test_optimized_transform_preserves_most_of_the_benefit(self, device):
        """Fig. 10, CV1: the naive transform erases the layout win, the
        optimized transform keeps most of it."""
        engine = default_context(device)
        spec = CONV_LAYERS["CV1"]
        t_chwn = engine.run(DirectConvCHWN(spec)).time_ms
        t_nchw = engine.run(Im2colGemmNCHW(spec)).time_ms
        desc = spec.in_desc(NCHW)
        naive = transform_time_ms(device, desc, CHWN, "naive")
        fast = transform_time_ms(device, desc, CHWN, "auto")
        assert t_nchw / (t_chwn + naive) < t_nchw / t_chwn * 0.75
        assert t_nchw / (t_chwn + fast) > 0.8 * (t_nchw / t_chwn)


class TestFig11Transform:
    def test_opt2_on_cv6_approaches_peak(self, device):
        """'The optimized bandwidth for CONV6 has achieved 229.5 GB/s,
        97.6% of the effective GPU memory bandwidth.'"""
        desc = CONV_LAYERS["CV6"].in_desc(CHWN)
        from repro.tensors import transform_stats

        stats = transform_stats(device, desc, NCHW, "opt2")
        assert stats.effective_bandwidth_gbs > 0.9 * device.mem_bandwidth_gbs

    def test_speedup_ladder_naive_opt1_opt2(self, device):
        """Fig. 11: Opt1 ~6.5x over naive on average, Opt2 adds more."""
        specs = [s for s in CONV_LAYERS.values() if s.n >= 64]
        opt1_gains, opt2_gains = [], []
        for spec in specs:
            desc = spec.in_desc(CHWN)
            naive = transform_time_ms(device, desc, NCHW, "naive")
            opt1 = transform_time_ms(device, desc, NCHW, "opt1")
            opt2 = transform_time_ms(device, desc, NCHW, "opt2")
            opt1_gains.append(naive / opt1)
            opt2_gains.append(naive / opt2)
        assert 4 < sum(opt1_gains) / len(opt1_gains) < 12
        assert all(g2 >= g1 for g1, g2 in zip(opt1_gains, opt2_gains))


class TestFig13Softmax:
    def test_opt_bandwidth_scaling_with_categories(self, device):
        """Fig. 13: Opt bandwidth grows with category count, reaching ~94%
        of effective bandwidth at 10000 categories."""
        bws = []
        for c in (10, 100, 1000, 10000):
            spec = FIG13_SOFTMAX[f"128/{c}"]
            stats = default_context(device).run(FusedParallelSoftmax(spec))
            bws.append(2 * spec.nbytes / (stats.time_ms * 1e6))
        assert bws == sorted(bws)
        assert bws[-1] > 0.75 * device.mem_bandwidth_gbs


class TestSectionIVAUtilization:
    def test_alu_utilization_improves_with_suitable_layout(self, device):
        """Section II.A: AlexNet conv2's ALU utilization improves
        substantially with the more suitable layout."""
        from repro.networks import ALEXNET_CONV

        spec = ALEXNET_CONV["ACV2"]
        engine = default_context(device)
        chwn = engine.run(make_conv_kernel(spec, "direct"))
        nchw = engine.run(make_conv_kernel(spec, "im2col"))
        better = max(chwn.alu_utilization, nchw.alu_utilization)
        worse = min(chwn.alu_utilization, nchw.alu_utilization)
        assert better > worse * 1.1


class TestCalibrationMatchesHeuristics:
    def test_calibrated_thresholds_classify_table1_like_paper(self, device):
        """Calibrated thresholds must reproduce the paper's Table-1 layout
        decisions even if the raw (Ct, Nt) values differ by a grid point."""
        from repro.core import preferred_conv_layout

        thresholds = calibrate(device).thresholds
        expected_chwn = {"CV1", "CV2", "CV3", "CV4", "CV5", "CV9"}
        got = {
            name
            for name, spec in CONV_LAYERS.items()
            if preferred_conv_layout(spec, thresholds) == CHWN
        }
        assert got == expected_chwn
