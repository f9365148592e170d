"""Per-layer implementation selection and cuDNN-mode fallback."""

import pytest

from repro.core import best_conv_for_layout, cudnn_mode_conv, try_conv_time
from repro.gpusim import default_context
from repro.networks import CONV_LAYERS
from repro.tensors import CHWN, NCHW, DataLayout


@pytest.fixture()
def engine(device):
    return default_context(device)


class TestTryConvTime:
    def test_valid_implementation(self, engine):
        result = try_conv_time(engine, CONV_LAYERS["CV7"], "im2col")
        assert result is not None
        assert result[0] > 0

    def test_unsupported_returns_none(self, engine):
        assert try_conv_time(engine, CONV_LAYERS["CV5"], "fft") is None


class TestBestForLayout:
    def test_chwn_uses_direct(self, engine):
        choice = best_conv_for_layout(engine, CONV_LAYERS["CV1"], CHWN)
        assert choice.implementation == "direct"
        assert choice.layout == CHWN

    def test_nchw_picks_fastest_mode(self, engine):
        # CV7: FFT beats MM in the model (and in the paper's Fig. 5).
        choice = best_conv_for_layout(engine, CONV_LAYERS["CV7"], NCHW)
        assert choice.implementation == "fft"

    def test_nchw_without_fft(self, engine):
        choice = best_conv_for_layout(engine, CONV_LAYERS["CV7"], NCHW, allow_fft=False)
        assert choice.implementation == "im2col"

    def test_fft_failure_falls_back(self, engine):
        # CV6 is stride 2: only MM is valid under NCHW.
        choice = best_conv_for_layout(engine, CONV_LAYERS["CV6"], NCHW)
        assert choice.implementation == "im2col"

    def test_unknown_layout_rejected(self, engine):
        with pytest.raises(ValueError):
            best_conv_for_layout(engine, CONV_LAYERS["CV1"], DataLayout("WHCN"))

    def test_nhwc_goes_through_the_repack_path(self, engine):
        choice = best_conv_for_layout(engine, CONV_LAYERS["CV7"], DataLayout("NHWC"))
        assert choice.implementation == "im2col-nhwc"

    def test_str(self, engine):
        choice = best_conv_for_layout(engine, CONV_LAYERS["CV1"], CHWN)
        assert "direct" in str(choice)


class TestCudnnModes:
    def test_mm_mode(self, engine):
        assert cudnn_mode_conv(engine, CONV_LAYERS["CV7"], "mm").implementation == "im2col"

    def test_fft_mode_with_fallback(self, engine):
        """Fig. 14 schemes: 'falls back to the cuDNN-MM mode if failed'."""
        choice = cudnn_mode_conv(engine, CONV_LAYERS["CV5"], "fft")
        assert choice.implementation == "im2col"

    def test_fft_mode_when_supported(self, engine):
        choice = cudnn_mode_conv(engine, CONV_LAYERS["CV7"], "fft")
        assert choice.implementation == "fft"

    def test_best_mode_never_slower_than_mm(self, engine):
        for name, spec in CONV_LAYERS.items():
            best = cudnn_mode_conv(engine, spec, "best")
            mm = cudnn_mode_conv(engine, spec, "mm")
            assert best.time_ms <= mm.time_ms * 1.0001, name

    def test_unknown_mode(self, engine):
        with pytest.raises(ValueError):
            cudnn_mode_conv(engine, CONV_LAYERS["CV7"], "winograd")
