"""Convolution kernel models: the Figs. 3/4/5 behaviours."""

from dataclasses import replace

import pytest

from repro.gpusim import GpuOutOfMemoryError, default_context
from repro.layers import (
    ConvSpec,
    ConvUnsupportedError,
    DirectConvCHWN,
    FFTConvNCHW,
    Im2colGemmNCHW,
    Im2colKernel,
    make_conv_kernel,
)
from repro.ir import lower_netdef
from repro.ir.build import infer_shapes
from repro.ir.graph import NodeKind
from repro.layers.conv_kernels import next_fast_len
from repro.networks import CONV_LAYERS, build_network

CV7 = CONV_LAYERS["CV7"]


def _alexnet_convs() -> dict[str, ConvSpec]:
    """The bundled AlexNet's convolutions, shapes resolved as the planner
    sees them."""
    graph = lower_netdef(build_network("alexnet"))
    infer_shapes(graph)
    return {f"alexnet-{n.name}": n.spec for n in graph if n.kind is NodeKind.CONV}


#: footnote 1's layers: four Table-1 rows and every AlexNet convolution
NHWC_LAYERS = {
    **{name: CONV_LAYERS[name] for name in ("CV1", "CV4", "CV7", "CV11")},
    **_alexnet_convs(),
}

#: Table-1 layer -> FFT geometry (pad_h, pad_w, tiles), untiled then tiled;
#: None where cuDNN's FFT modes reject the layer (stride 2).  CV9 pads 226
#: to 231 = 3*7*11, which a 5-smooth rule would round to 240.
FFT_GEOMETRY = {
    "CV1": ((28, 28, 1), (32, 32, 1)),
    "CV2": ((14, 14, 1), (32, 32, 1)),
    "CV3": ((24, 24, 1), (32, 32, 1)),
    "CV4": ((12, 12, 1), (32, 32, 1)),
    "CV5": (None, None),
    "CV6": (None, None),
    "CV7": ((15, 15, 1), (32, 32, 1)),
    "CV8": ((15, 15, 1), (32, 32, 1)),
    "CV9": ((231, 231, 1), (32, 32, 64)),
    "CV10": ((60, 60, 1), (32, 32, 4)),
    "CV11": ((30, 30, 1), (32, 32, 1)),
    "CV12": ((16, 16, 1), (32, 32, 1)),
}


class TestDirectConv:
    def test_flops_match_spec(self):
        k = DirectConvCHWN(CV7)
        assert k.flop_count() == CV7.flops

    def test_efficiency_ramps_with_batch(self, device):
        effs = [
            DirectConvCHWN(replace(CV7, n=n)).alu_efficiency(device)
            for n in (16, 32, 64, 128)
        ]
        assert effs == sorted(effs)
        assert effs[-1] > 2 * effs[0]

    def test_efficiency_saturates_at_n_saturation(self, device):
        sat = device.arch.direct_conv_n_saturation
        e1 = DirectConvCHWN(replace(CV7, n=sat)).alu_efficiency(device)
        e2 = DirectConvCHWN(replace(CV7, n=4 * sat)).alu_efficiency(device)
        assert e1 == pytest.approx(e2)

    def test_shallow_inputs_are_less_efficient(self, device):
        deep = DirectConvCHWN(CV7).alu_efficiency(device)
        shallow = DirectConvCHWN(replace(CV7, ci=1)).alu_efficiency(device)
        assert shallow < deep

    def test_memory_profile_is_coalesced(self, device):
        p = DirectConvCHWN(CV7).memory_profile(device)
        assert p.load_transactions == pytest.approx(p.load_bytes / 32)


class TestIm2colGemm:
    def test_unroll_bytes(self):
        k = Im2colKernel(CV7)
        assert k.unroll_bytes() == 4 * CV7.n * CV7.taps * CV7.out_h * CV7.out_w

    def test_unroll_has_high_l2_reuse(self, device):
        p = Im2colKernel(CV7).memory_profile(device)
        assert p.l2_hit_rate > 0.5  # each element lands in ~F^2 patches

    def test_composed_kernel_includes_both_stages(self, device):
        k = Im2colGemmNCHW(CV7)
        assert k.n_launches == 2
        assert k.flop_count() == pytest.approx(CV7.flops)

    def test_gemm_dominates_large_layers(self, device):
        engine = default_context(device)
        k = Im2colGemmNCHW(CV7)
        seq = engine.run_sequence(k.kernels)
        unroll_ms, gemm_ms = (s.time_ms for s in seq.kernels)
        assert gemm_ms > unroll_ms


class TestFFT:
    def test_strided_convolution_unsupported(self):
        """cuDNN's FFT algorithms require unit stride — the Fig. 5 CV5/CV6
        'execution failures'."""
        for name in ("CV5", "CV6"):
            with pytest.raises(ConvUnsupportedError, match="stride"):
                FFTConvNCHW(CONV_LAYERS[name])

    def test_workspace_exceeds_titan_black_for_big_unit_stride_layers(self, device):
        """Even without the stride rule, a CV5-sized stride-1 layer blows the
        6 GB card (the paper's memory explanation)."""
        huge = replace(CONV_LAYERS["CV5"], stride=1)
        engine = default_context(device)
        with pytest.raises(GpuOutOfMemoryError):
            engine.run(FFTConvNCHW(huge))

    def test_tiling_reduces_workspace(self):
        spec = CONV_LAYERS["CV10"]
        assert (
            FFTConvNCHW(spec, tiled=True).workspace_bytes()
            < FFTConvNCHW(spec, tiled=False).workspace_bytes()
        )

    def test_fft_beats_mm_for_large_channel_layers(self, device):
        """Fig. 5: 'FFT can perform better than cuDNN-MM when ... there are
        many channels such as CV7, CV10'."""
        for name in ("CV7", "CV10"):
            spec = CONV_LAYERS[name]
            t_fft = default_context(device).run(FFTConvNCHW(spec)).time_ms
            t_mm = default_context(device).run(Im2colGemmNCHW(spec)).time_ms
            assert t_fft < t_mm

    def test_fft_collapses_for_small_channel_layers(self, device):
        """Fig. 5: 'for small channel sizes, such as CV3, CV9, it performs
        much worse' (than direct CHWN)."""
        for name in ("CV3", "CV9"):
            spec = CONV_LAYERS[name]
            t_fft = default_context(device).run(FFTConvNCHW(spec)).time_ms
            t_direct = default_context(device).run(DirectConvCHWN(spec)).time_ms
            assert t_fft > 3 * t_direct

    def test_filter_too_large_for_tile(self):
        spec = ConvSpec(n=1, ci=1, h=64, w=64, co=1, fh=33, fw=33)
        with pytest.raises(ConvUnsupportedError, match="tile"):
            FFTConvNCHW(spec, tiled=True)

    def test_next_fast_len_matches_scipy(self):
        """The padding rule equals SciPy's complex-transform default; SciPy
        is the oracle here and is never imported by the model."""
        from scipy import fft as sfft

        for target in range(1, 65_537):
            assert next_fast_len(target) == sfft.next_fast_len(target), target

    def test_next_fast_len_rejects_non_positive(self):
        with pytest.raises(ValueError):
            next_fast_len(0)

    @pytest.mark.parametrize("name", sorted(FFT_GEOMETRY))
    @pytest.mark.parametrize("tiled", [False, True])
    def test_table1_geometry_is_frozen(self, name, tiled):
        expected = FFT_GEOMETRY[name][tiled]
        if expected is None:
            with pytest.raises(ConvUnsupportedError):
                FFTConvNCHW(CONV_LAYERS[name], tiled=tiled)
            return
        g = FFTConvNCHW(CONV_LAYERS[name], tiled=tiled).geometry
        assert (g.pad_h, g.pad_w, g.tiles) == expected


class TestNHWC:
    """Paper Section IV.A footnote 1: 'cuDNN also supports the NHWC data
    layout and our tests show that its NCHW layout outperforms its NHWC
    layout.'  NHWC is therefore not a planning layout; every AlexNet
    convolution pins that per layer."""

    @pytest.mark.parametrize("name", list(NHWC_LAYERS))
    def test_nchw_always_beats_nhwc(self, device, name):
        from repro.layers import Im2colGemmNHWC

        spec = NHWC_LAYERS[name]
        t_nchw = default_context(device).run(Im2colGemmNCHW(spec)).time_ms
        t_nhwc = default_context(device).run(Im2colGemmNHWC(spec)).time_ms
        assert t_nchw < t_nhwc

    def test_nhwc_overhead_is_the_two_repacks(self, device):
        from repro.layers import Im2colGemmNHWC

        spec = CONV_LAYERS["CV7"]
        t_nchw = default_context(device).run(Im2colGemmNCHW(spec)).time_ms
        t_nhwc = default_context(device).run(Im2colGemmNHWC(spec)).time_ms
        repack_bytes = 2 * (spec.in_desc().nbytes + spec.out_desc().nbytes)
        repack_ms = repack_bytes / (device.mem_bandwidth_gbs * 1e6)
        assert t_nhwc - t_nchw == pytest.approx(repack_ms, rel=0.5)


class TestFactory:
    @pytest.mark.parametrize(
        "impl,cls",
        [
            ("direct", DirectConvCHWN),
            ("im2col", Im2colGemmNCHW),
            ("fft", FFTConvNCHW),
            ("fft-tiled", FFTConvNCHW),
        ],
    )
    def test_dispatch(self, impl, cls):
        assert isinstance(make_conv_kernel(CV7, impl), cls)

    def test_nhwc_dispatch(self):
        from repro.layers import Im2colGemmNHWC

        assert isinstance(make_conv_kernel(CV7, "im2col-nhwc"), Im2colGemmNHWC)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_conv_kernel(CV7, "strassen")


class TestFig3Winners:
    """The headline layout result: who wins each Table-1 conv layer."""

    CHWN_WINNERS = ("CV1", "CV2", "CV3", "CV4", "CV5", "CV9")
    NCHW_WINNERS = ("CV6", "CV7", "CV8", "CV10", "CV11", "CV12")

    @pytest.mark.parametrize("name", CHWN_WINNERS)
    def test_chwn_wins(self, device, name):
        spec = CONV_LAYERS[name]
        t_direct = default_context(device).run(DirectConvCHWN(spec)).time_ms
        t_mm = default_context(device).run(Im2colGemmNCHW(spec)).time_ms
        assert t_direct < t_mm

    @pytest.mark.parametrize("name", NCHW_WINNERS)
    def test_nchw_wins(self, device, name):
        spec = CONV_LAYERS[name]
        t_direct = default_context(device).run(DirectConvCHWN(spec)).time_ms
        t_mm = default_context(device).run(Im2colGemmNCHW(spec)).time_ms
        assert t_mm < t_direct

    def test_cv1_speedup_magnitude(self, device):
        """Paper: 'on CV1, CHWN has an up to 6.5x speedup over NCHW'."""
        spec = CONV_LAYERS["CV1"]
        ratio = (
            default_context(device).run(Im2colGemmNCHW(spec)).time_ms
            / default_context(device).run(DirectConvCHWN(spec)).time_ms
        )
        assert 3 < ratio < 10

    def test_cv11_speedup_magnitude(self, device):
        """Paper: 'on CV11, NCHW ... outperforming CHWN by 3.5x'."""
        spec = CONV_LAYERS["CV11"]
        ratio = (
            default_context(device).run(DirectConvCHWN(spec)).time_ms
            / default_context(device).run(Im2colGemmNCHW(spec)).time_ms
        )
        assert 2 < ratio < 6
