"""Spec dataclasses refuse integer fields that hold no ``int``.

Structural cache keys share a spec's text by value, so two equal specs
must describe alike: ``ConvSpec(n=2)`` and ``ConvSpec(n=2.0)`` compare
equal, but a float, a bool or a string writes another text.
"""

import numpy as np
import pytest

from repro.layers.base import ConvSpec, FCSpec, PoolSpec, SoftmaxSpec
from repro.tensors import TensorDesc

VALID = {
    ConvSpec: dict(n=2, ci=3, h=8, w=8, co=4, fh=3, fw=3, stride=1, pad=0, groups=1),
    PoolSpec: dict(n=2, c=3, h=8, w=8, window=3, stride=2),
    SoftmaxSpec: dict(n=2, categories=10),
    TensorDesc: dict(n=2, c=3, h=8, w=8, itemsize=4),
    FCSpec: dict(n=2, in_features=8, out_features=4),
}
CASES = [(cls, name) for cls, kwargs in VALID.items() for name in kwargs]


@pytest.mark.parametrize("cls, name", CASES, ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize(
    "bad", [2.0, 2.5, True, "2", np.int64(2)], ids=["float", "half", "bool", "str", "np"]
)
def test_non_int_field_is_refused_by_name(cls, name, bad):
    kwargs = dict(VALID[cls], **{name: bad})
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\.{name} must be an int"):
        cls(**kwargs)


@pytest.mark.parametrize("cls", VALID, ids=lambda c: c.__name__)
def test_int_fields_build(cls):
    assert cls(**VALID[cls]) == cls(**VALID[cls])
