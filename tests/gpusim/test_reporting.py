"""Profiler-style reporting and roofline placement."""

import pytest

from repro.gpusim import (
    TITAN_BLACK,
    comparison_table,
    kernel_report,
    roofline_point,
    default_context,
)
from repro.layers import make_conv_kernel, make_pool_kernel
from repro.networks import CONV_LAYERS, POOL_LAYERS


@pytest.fixture(scope="module")
def conv_stats():
    # CV12 under direct convolution: high arithmetic intensity (the input
    # is small relative to the 29.6 GFLOP of work), so it sits under the
    # compute roof.
    kernel = make_conv_kernel(CONV_LAYERS["CV12"], "direct")
    return default_context(TITAN_BLACK).run(kernel)


@pytest.fixture(scope="module")
def pool_stats():
    return default_context(TITAN_BLACK).run(make_pool_kernel(POOL_LAYERS["PL5"], "chwn"))


class TestRooflinePoint:
    def test_compute_heavy_kernel_is_compute_roofed(self, conv_stats):
        p = roofline_point(TITAN_BLACK, conv_stats)
        assert not p.memory_bound
        assert p.roof_gflops == TITAN_BLACK.peak_gflops

    def test_streaming_kernel_is_bandwidth_roofed(self, pool_stats):
        p = roofline_point(TITAN_BLACK, pool_stats)
        assert p.memory_bound
        assert p.roof_gflops < TITAN_BLACK.peak_gflops

    def test_efficiency_bounded(self, conv_stats, pool_stats):
        for stats in (conv_stats, pool_stats):
            p = roofline_point(TITAN_BLACK, stats)
            assert 0 < p.efficiency <= 1.001

    def test_roof_is_min_of_slope_and_peak(self, pool_stats):
        p = roofline_point(TITAN_BLACK, pool_stats)
        assert p.roof_gflops == pytest.approx(
            min(
                TITAN_BLACK.peak_gflops,
                p.arithmetic_intensity * TITAN_BLACK.mem_bandwidth_gbs,
            )
        )


class TestKernelReport:
    def test_contains_all_sections(self, conv_stats):
        text = kernel_report(TITAN_BLACK, conv_stats)
        for needle in (
            "time", "bound by", "occupancy", "DRAM traffic",
            "transactions", "arithmetic", "roofline",
        ):
            assert needle in text, needle

    def test_reports_the_limiter(self, pool_stats):
        text = kernel_report(TITAN_BLACK, pool_stats)
        assert pool_stats.bound in text
        assert pool_stats.occupancy.limiter in text


class TestComparisonTable:
    def test_one_row_per_entry(self, conv_stats, pool_stats):
        text = comparison_table(
            TITAN_BLACK, [("conv", conv_stats), ("pool", pool_stats)]
        )
        lines = text.splitlines()
        assert len(lines) == 4  # header + rule + 2 rows
        assert "conv" in lines[2] and "pool" in lines[3]

    def test_empty_entries(self):
        text = comparison_table(TITAN_BLACK, [])
        assert "variant" in text
