"""Benchmark fixtures: make ``benchmarks`` importable and share the device."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.gpusim import TITAN_BLACK, TITAN_X  # noqa: E402


@pytest.fixture(scope="session")
def device():
    """The paper's GTX Titan Black: the figures' shape checks encode its
    numbers.  These do not hold on the Titan X: fig03's and table1's sets
    of CHWN-winning conv layers, fig04's N crossover, the calibration
    bench's row lookup (it names the Titan Black) and fig14's "cuDNN-best
    beats cuda-convnet" on zfnet and vgg.  Benches that check the Titan X
    take the ``titan_x`` fixture."""
    return TITAN_BLACK


@pytest.fixture(scope="session")
def titan_x():
    return TITAN_X
