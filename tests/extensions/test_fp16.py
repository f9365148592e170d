"""FP16/Pascal extension: the Section VII prediction, checked."""

import pytest

from repro.extensions import (
    TESLA_P100,
    as_fp16,
    compare_layouts_fp16,
    fp16_device,
    memory_bound_share,
)
from repro.gpusim import default_context, get_device
from repro.layers import make_conv_kernel, make_pool_kernel
from repro.networks import CONV_LAYERS, POOL_LAYERS


class TestDevice:
    def test_p100_registered(self):
        assert get_device("tesla-p100") is TESLA_P100
        assert get_device("pascal") is TESLA_P100

    def test_fp16_device_doubles_arithmetic_only(self, device):
        half = fp16_device(device)
        assert half.peak_gflops == 2 * device.peak_gflops
        assert half.mem_bandwidth_gbs == device.mem_bandwidth_gbs
        assert "FP16" in half.name

    def test_p100_is_faster_than_titan_black(self, device):
        spec = CONV_LAYERS["CV7"]
        t_black = default_context(device).run(make_conv_kernel(spec, "im2col")).time_ms
        t_p100 = default_context(TESLA_P100).run(make_conv_kernel(spec, "im2col")).time_ms
        assert t_p100 < t_black


class TestFp16Kernels:
    def test_halves_traffic(self, device):
        base = make_conv_kernel(CONV_LAYERS["CV7"], "im2col")
        half = as_fp16(base)
        assert (
            half.memory_profile(device).load_bytes
            == 0.5 * base.memory_profile(device).load_bytes
        )
        assert half.flop_count() == base.flop_count()

    def test_bandwidth_bound_layers_speed_up_about_2x(self):
        """Pooling is pure bandwidth: FP16 halves its time."""
        ctx32 = default_context(TESLA_P100)
        ctx16 = default_context(fp16_device(TESLA_P100))
        spec = POOL_LAYERS["PL5"]
        t32 = ctx32.run(make_pool_kernel(spec, "chwn"), check_memory=False).time_ms
        half = as_fp16(make_pool_kernel(spec, "chwn"))
        t16 = ctx16.run(half, check_memory=False).time_ms
        assert 1.6 < t32 / t16 < 2.2


class TestSectionVIIPrediction:
    def test_layout_winners_survive_fp16(self):
        """'the underlying impact from data layout remains'."""
        for row in compare_layouts_fp16(TESLA_P100):
            assert row.fp16_winner == row.fp32_winner, row.layer

    def test_layout_gap_does_not_vanish(self):
        """The preferred-vs-alternative ratio stays material under FP16."""
        rows = compare_layouts_fp16(TESLA_P100)
        avg16 = sum(r.fp16_ratio for r in rows) / len(rows)
        assert avg16 > 1.5

    def test_memory_share_preserved_under_full_fp16(self):
        """Full FP16 halves both sides, so the memory/compute balance (and
        with it every layout conclusion) carries over unchanged."""
        for name in ("CV6", "CV7", "CV10", "CV12"):
            spec = CONV_LAYERS[name]
            s32 = memory_bound_share(TESLA_P100, spec, "im2col", fp16=False)
            s16 = memory_bound_share(TESLA_P100, spec, "im2col", fp16=True)
            assert s16 == pytest.approx(s32, abs=0.05), name

    def test_memory_share_grows_when_only_math_accelerates(self):
        """'with compute efficiency being addressed ... the performance
        impact of the memory efficiency is likely to become more important'
        — FP16 arithmetic over FP32 storage (early mixed precision) shifts
        every conv layer toward the memory side of the roofline."""
        for name in ("CV6", "CV7", "CV10", "CV12"):
            spec = CONV_LAYERS[name]
            s32 = memory_bound_share(TESLA_P100, spec, "im2col", fp16=False)
            s16 = memory_bound_share(
                TESLA_P100, spec, "im2col", fp16=True, math_only=True
            )
            assert s16 > s32, name

    def test_fp16_speedups_are_meaningful(self):
        rows = compare_layouts_fp16(TESLA_P100)
        assert all(1.2 < r.fp16_speedup_preferred < 2.3 for r in rows)
