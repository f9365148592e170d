"""CNN layers: numeric implementations plus their GPU kernel models."""

from .._lazy import lazy_exports

_EXPORTS = {
    "base": ("ConvSpec", "FCSpec", "PoolSpec", "SoftmaxSpec", "conv_out_extent"),
    "conv": (
        "conv_direct",
        "conv_fft",
        "conv_forward",
        "conv_im2col",
        "im2col",
        "make_filters",
    ),
    "conv_kernels": (
        "CONV_IMPLEMENTATIONS",
        "ConvUnsupportedError",
        "DirectConvCHWN",
        "FFTConvNCHW",
        "Im2colGemmNCHW",
        "Im2colGemmNHWC",
        "Im2colKernel",
        "make_conv_kernel",
    ),
    "elementwise": (
        "ElementwiseKernel",
        "LRNSpec",
        "lrn_forward",
        "make_lrn_kernel",
        "make_relu_kernel",
        "relu_forward",
    ),
    "fc": ("fc_forward", "flatten_4d", "make_fc_kernel", "make_fc_weights"),
    "gemm": ("GemmKernel", "gemm_shape_efficiency"),
    "pooling": ("pool_coarsened", "pool_forward", "pool_plain", "tile_footprint"),
    "pooling_kernels": (
        "POOL_IMPLEMENTATIONS",
        "PoolingCHWN",
        "PoolingCoarsenedCHWN",
        "PoolingNCHWBlockPerRow",
        "PoolingNCHWLinear",
        "make_pool_kernel",
    ),
    "softmax": (
        "SoftmaxSteps",
        "softmax_five_step",
        "softmax_forward",
        "softmax_fused",
    ),
    "winograd": ("WinogradConvNCHW", "conv_winograd"),
    "softmax_kernels": (
        "SOFTMAX_IMPLEMENTATIONS",
        "CudnnSoftmax",
        "FusedParallelSoftmax",
        "FusedSoftmax",
        "five_kernel_softmax",
        "make_softmax_kernel",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
