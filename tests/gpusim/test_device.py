"""Device spec registry and validation."""

import pytest

from repro.gpusim import (
    TITAN_BLACK,
    TITAN_X,
    ArchProfile,
    DeviceSpec,
    get_device,
    list_devices,
    register_device,
)


class TestDeviceSpec:
    def test_titan_black_matches_paper_section_iii(self):
        assert TITAN_BLACK.peak_gflops == 5121.0
        assert TITAN_BLACK.mem_bandwidth_gbs == 235.0
        assert TITAN_BLACK.dram_gib == 6.0

    def test_titan_x_is_larger(self):
        assert TITAN_X.peak_gflops > TITAN_BLACK.peak_gflops
        assert TITAN_X.mem_bandwidth_gbs > TITAN_BLACK.mem_bandwidth_gbs
        assert TITAN_X.l2_bytes > TITAN_BLACK.l2_bytes

    def test_dram_bytes(self):
        assert TITAN_BLACK.dram_bytes == 6 * 2**30

    def test_max_concurrent_threads(self):
        assert TITAN_BLACK.max_concurrent_threads == 15 * 2048

    def test_bytes_per_cycle_positive(self):
        assert TITAN_BLACK.bytes_per_cycle > 100  # ~240 B/cycle

    @pytest.mark.parametrize(
        "field,value",
        [
            ("sm_count", 0),
            ("peak_gflops", -1.0),
            ("mem_bandwidth_gbs", 0.0),
            ("clock_ghz", 0.0),
        ],
    )
    def test_invalid_specs_rejected(self, field, value):
        kwargs = dict(
            name="bad", sm_count=8, peak_gflops=1000.0,
            mem_bandwidth_gbs=100.0, clock_ghz=1.0, dram_gib=4.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            DeviceSpec(**kwargs)

    def test_warp_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            DeviceSpec(
                name="bad", sm_count=8, peak_gflops=1000.0,
                mem_bandwidth_gbs=100.0, clock_ghz=1.0, dram_gib=4.0, warp_size=33,
            )

    def test_access_bw_efficiency_monotone_in_width(self):
        assert (
            TITAN_BLACK.access_bw_efficiency(4)
            <= TITAN_BLACK.access_bw_efficiency(8)
            <= TITAN_BLACK.access_bw_efficiency(16)
        )


class TestRegistry:
    def test_known_devices(self):
        assert "titan-black" in list_devices()
        assert "titan-x" in list_devices()

    @pytest.mark.parametrize(
        "alias", ["titan-black", "TITAN_BLACK", "Kepler", "gtx titan black"]
    )
    def test_aliases(self, alias):
        assert get_device(alias) is TITAN_BLACK

    def test_unknown_device_raises_with_choices(self):
        with pytest.raises(KeyError, match="titan-black"):
            get_device("voodoo2")

    def test_register_custom_device(self):
        custom = DeviceSpec(
            name="toy", sm_count=2, peak_gflops=100.0,
            mem_bandwidth_gbs=50.0, clock_ghz=1.0, dram_gib=1.0,
        )
        register_device("toy-gpu", custom)
        assert get_device("toy-gpu") is custom


class TestArchProfile:
    def test_defaults_are_kepler_calibration(self):
        arch = ArchProfile()
        assert arch.direct_conv_n_saturation == 128
        assert 0 < arch.gemm_peak_eff < 1
        assert arch.bw_warp_saturation > 0
