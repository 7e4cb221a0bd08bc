"""The JSON renderer against the plain recursive renderer it replaced."""

import collections
import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairvote.jsonio import render_json, render_value


def reference_render(value) -> str:
    """The recursive isinstance renderer, kept verbatim as the oracle."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if value == int(value) and abs(value) < 1e15:
            return f"{value:.1f}"
        return f"{value:.12g}"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {reference_render(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(reference_render(v) for v in value) + "]"
    # numpy scalars and the like
    if hasattr(value, "item"):
        return reference_render(value.item())
    raise TypeError(f"cannot render {type(value)!r}")


EDGE_FLOATS = (0.0, -0.0, 1.0, -1.0, 0.5, 1 / 3, 1 / 49, math.inf, -math.inf,
               1e15, -1e15, 1e15 - 1, 1e16, 1e-300, -1e-300, 5e-324, 2.0 ** 53)
floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=True))
scalars = st.one_of(
    floats,
    st.integers(-10 ** 20, 10 ** 20),
    floats.map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.fractions(max_denominator=10 ** 6),
    st.none(),
    st.text(max_size=6),
)
# lists drawn from a small pool repeat values, as the witness matrices do
repeating_floats = st.lists(st.sampled_from(EDGE_FLOATS), max_size=12)
payloads = st.recursive(
    st.one_of(scalars, repeating_floats),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-5, 5)), inner,
                        max_size=4)),
    max_leaves=40)


@given(payloads)
@settings(max_examples=400, deadline=None)
@example([0.0, -0.0, 0.0, -0.0])
@example([-0.0, 0.0, 1.0, -0.0])
@example({"w": [[1.0, 0.0, -0.0], (-0.0, 1.0, 0.0)], "v": -0.0})
@example([math.inf, -math.inf, 1e15, -1e15, 1e-300, 1e15, 1e-300])
@example([np.float64(-0.0), -0.0, np.int64(3), Fraction(1, 3), True, None, "s"])
def test_render_matches_reference(payload):
    assert render_value(payload) == reference_render(payload)
    assert render_json(payload) == reference_render(payload) + "\n"


class FloatList(list):
    pass


class Precise(float):
    pass


class Level(enum.IntEnum):
    LOW = 1


Pair = collections.namedtuple("Pair", "a b")


def test_subclasses_render_like_reference():
    payload = {"ordered": collections.OrderedDict(b=[1.0, -0.0], a=Pair(0.5, -0.0)),
               "list": FloatList([0.25, 0.0, -0.0, 0.25]),
               "float": [Precise(1 / 3), Precise(2.0)],
               "enum": [Level.LOW, True, np.float64(-0.0), np.bool_(False)]}
    assert render_value(payload) == reference_render(payload)


@pytest.mark.parametrize("payload", [
    math.nan,
    [math.nan],
    [1.0, 0.0, math.nan],
    [1.0, 1.0, math.nan, 1.0],
    {"a": [[0.5, 0.5], [0.5, math.nan]]},
    (np.float64(math.nan),),
    [[1.0], (math.nan, 2.0)],
])
def test_nan_raises_like_reference(payload):
    with pytest.raises(Exception) as expected:
        reference_render(payload)
    with pytest.raises(expected.type):
        render_value(payload)


def test_unrenderable_raises_type_error():
    for payload in (object(), [1.0, object()], {"a": {1, 2}}):
        with pytest.raises(TypeError):
            render_value(payload)
