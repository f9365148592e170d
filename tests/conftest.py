"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.gpusim import TITAN_BLACK, TITAN_X, default_context
from repro.layers import ConvSpec, PoolSpec, SoftmaxSpec


@pytest.fixture(scope="session")
def device():
    """The paper's primary platform."""
    return TITAN_BLACK


@pytest.fixture(scope="session")
def titan_x():
    return TITAN_X


@pytest.fixture()
def engine(device):
    return default_context(device)


@pytest.fixture(scope="session")
def small_conv():
    """A small convolution spec for numeric tests."""
    return ConvSpec(n=4, ci=3, h=12, w=12, co=8, fh=3, fw=3, stride=1, pad=1)


@pytest.fixture(scope="session")
def small_pool():
    """A small overlapped pooling spec for numeric tests."""
    return PoolSpec(n=4, c=6, h=13, w=13, window=3, stride=2)


@pytest.fixture(scope="session")
def small_softmax():
    return SoftmaxSpec(n=8, categories=10)
