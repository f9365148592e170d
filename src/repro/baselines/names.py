"""The names of the whole-network schemes (Fig. 14), apart from their models.

Listing the schemes (``repro info``) imports only this module, not the
planner and simulator that :mod:`repro.baselines.schemes` needs to time them.
"""

SCHEMES: tuple[str, ...] = (
    "cudnn-mm",
    "cudnn-fft",
    "cudnn-fft-t",
    "cudnn-best",
    "cuda-convnet",
    "caffe",
    "opt",
)
