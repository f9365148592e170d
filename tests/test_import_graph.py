"""Start-up fence: heavy modules stay off the import graph that needs none.

Each check imports in a fresh interpreter, since this test process has
long since loaded everything.  ``repro`` resolves its top-level names
lazily (PEP 562), so the public surface is tested here too.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def _loaded_after(statement: str, module: str) -> bool:
    """Whether ``module`` is in ``sys.modules`` after ``statement`` runs in a
    fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    probe = f"import sys\n{statement}\nprint({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip() == "True"


@pytest.mark.parametrize(
    "statement, module",
    [
        ("import repro.cli", "scipy"),
        ("import repro", "numpy"),
        ("import repro.obs", "numpy"),
        ("import repro.gpusim", "concurrent.futures.process"),
    ],
)
def test_import_does_not_load(statement, module):
    assert not _loaded_after(statement, module)


def test_numeric_fft_conv_loads_scipy_on_first_call():
    """The one SciPy user imports it when called (and the probe can say yes)."""
    run_fft = (
        "import numpy as np\n"
        "from repro.layers import ConvSpec\n"
        "from repro.layers.conv import conv_fft\n"
        "spec = ConvSpec(n=1, ci=1, h=4, w=4, co=1, fh=3, fw=3)\n"
        "conv_fft(np.ones((1, 1, 4, 4)), np.ones((1, 1, 3, 3)), spec)"
    )
    assert _loaded_after(run_fft, "scipy")


SUBPACKAGES = (
    "analysis", "core", "framework", "gpusim", "ir", "layers", "networks", "tensors",
)


def _public_names():
    yield from (pytest.param(repro, name, id=name) for name in repro.__all__)
    for sub in SUBPACKAGES:
        module = importlib.import_module(f"repro.{sub}")
        for name in module.__all__:
            yield pytest.param(module, name, id=f"{sub}.{name}")


@pytest.mark.parametrize("module, name", _public_names())
def test_public_name_resolves(module, name):
    assert getattr(module, name) is not None
    assert name in dir(module)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(repro, "no_such_name")
