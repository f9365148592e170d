"""Winograd F(2x2, 3x3) convolution: exactness and kernel-model behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import default_context
from repro.layers import (
    ConvSpec,
    ConvUnsupportedError,
    Im2colGemmNCHW,
    WinogradConvNCHW,
    conv_direct,
    conv_forward,
    conv_winograd,
    make_conv_kernel,
    make_filters,
)
from repro.networks import CONV_LAYERS
from repro.tensors import NCHW, Tensor4D

wino_specs = st.builds(
    ConvSpec,
    n=st.integers(1, 3),
    ci=st.integers(1, 5),
    h=st.integers(4, 15),
    w=st.integers(4, 15),
    co=st.integers(1, 5),
    fh=st.just(3),
    fw=st.just(3),
    stride=st.just(1),
    pad=st.integers(0, 1),
)


class TestNumeric:
    @given(spec=wino_specs, seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_equals_direct_convolution(self, spec, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((spec.n, spec.ci, spec.h, spec.w)).astype(np.float32)
        w = make_filters(spec, seed=seed + 1)
        np.testing.assert_allclose(
            conv_winograd(x, w, spec), conv_direct(x, w, spec), rtol=1e-3, atol=1e-4
        )

    def test_odd_output_extents_cropped_correctly(self):
        spec = ConvSpec(n=1, ci=2, h=7, w=9, co=2, fh=3, fw=3)
        assert (spec.out_h, spec.out_w) == (5, 7)  # both odd
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 7, 9)).astype(np.float32)
        w = make_filters(spec)
        out = conv_winograd(x, w, spec)
        assert out.shape == (1, 2, 5, 7)
        np.testing.assert_allclose(out, conv_direct(x, w, spec), rtol=1e-3, atol=1e-4)

    def test_rejects_non_3x3(self):
        spec = ConvSpec(n=1, ci=1, h=8, w=8, co=1, fh=5, fw=5)
        with pytest.raises(ConvUnsupportedError, match="3x3"):
            conv_winograd(np.zeros((1, 1, 8, 8), np.float32), make_filters(spec), spec)

    def test_rejects_strided(self):
        spec = ConvSpec(n=1, ci=1, h=8, w=8, co=1, fh=3, fw=3, stride=2)
        with pytest.raises(ConvUnsupportedError, match="stride"):
            conv_winograd(np.zeros((1, 1, 8, 8), np.float32), make_filters(spec), spec)

    def test_available_via_conv_forward(self):
        spec = ConvSpec(n=2, ci=2, h=8, w=8, co=3, fh=3, fw=3, pad=1)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 2, 8, 8)).astype(np.float32)
        w = make_filters(spec)
        out = conv_forward(Tensor4D.from_nchw(x, NCHW), w, spec, "winograd")
        np.testing.assert_allclose(
            out.as_nchw(), conv_direct(x, w, spec), rtol=1e-3, atol=1e-4
        )


class TestKernelModel:
    def test_fewer_macs_than_direct(self):
        spec = CONV_LAYERS["CV12"]
        wino = WinogradConvNCHW(spec)
        # 2.25x arithmetic reduction in the product stage (transform
        # overhead brings the total back up somewhat).
        assert wino.flop_count() < 0.7 * spec.flops

    @pytest.mark.parametrize("name", ["CV11", "CV12"])
    def test_beats_mm_on_deep_3x3_layers(self, device, name):
        spec = CONV_LAYERS[name]
        t_wino = default_context(device).run(WinogradConvNCHW(spec)).time_ms
        t_mm = default_context(device).run(Im2colGemmNCHW(spec)).time_ms
        assert t_wino < t_mm

    def test_small_channel_layers_starve_it(self, device):
        """Same Ci-reduction constraint as FFT: CV9 (Ci=3) cannot feed the
        transform-domain product."""
        spec = CONV_LAYERS["CV9"]
        t_wino = default_context(device).run(WinogradConvNCHW(spec)).time_ms
        t_direct = default_context(device).run(make_conv_kernel(spec, "direct")).time_ms
        assert t_wino > t_direct

    def test_unsupported_configs_raise(self):
        with pytest.raises(ConvUnsupportedError):
            WinogradConvNCHW(CONV_LAYERS["CV1"])  # 5x5 filter
        with pytest.raises(ConvUnsupportedError):
            WinogradConvNCHW(CONV_LAYERS["CV5"])  # stride 2

    def test_workspace_proportional_to_activations(self, device):
        """Unlike FFT, no padding blow-up: workspace stays within ~20x the
        input tensor even for the deepest layers."""
        spec = CONV_LAYERS["CV12"]
        wino = WinogradConvNCHW(spec)
        assert wino.workspace_bytes() < 20 * spec.in_desc().nbytes

    def test_factory_dispatch(self):
        k = make_conv_kernel(CONV_LAYERS["CV7"], "winograd")
        assert isinstance(k, WinogradConvNCHW)
