"""Executable emulations of the paper's kernel listings.

Each module runs a listing (Fig. 7a/7b transforms, Fig. 9 pooling, the
fused softmax, cuda-convnet's blocked direct conv, im2col + tiled GEMM)
step by step in NumPy.  The tests compare their results with the
reference layers and their counters with the traffic models in
``repro.layers`` and ``repro.tensors``.
"""
