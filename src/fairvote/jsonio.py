"""Deterministic JSON rendering: fixed key order (insertion order); a float
with an integral value below 1e15 in magnitude as "N.0", any other finite
float at 12 significant digits, infinities as the strings "inf" and "-inf";
exact rationals as "p/q" strings. NaN raises ValueError. An object with a
`json_table()` method renders as the array of rows that method describes."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


def _render_float(value: float) -> str:
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    if value == int(value) and abs(value) < 1e15:  # int(NaN) raises ValueError
        return f"{value:.1f}"
    return f"{value:.12g}"


def _render(value, floats: dict) -> str:
    """`floats` caches the text of each nonzero plain float met so far in one
    render; 0.0 and -0.0 are one dict key but print apart, so zeros bypass it."""
    kind = type(value)
    if kind is float:
        return _render_float(value)
    if kind is list or kind is tuple:
        return "[" + ", ".join([
            _render(item, floats) if type(item) is not float
            else floats.get(item) or floats.setdefault(item, _render_float(item)) if item
            else "-0.0" if math.copysign(1.0, item) < 0 else "0.0"
            for item in value]) + "]"
    if kind is dict:
        return "{" + ", ".join([f"{json.dumps(str(k))}: {_render(v, floats)}"
                                for k, v in value.items()]) + "}"
    return _render_other(value, floats)


def _render_other(value, floats: dict) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _render_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        return _render(dict(value), floats)
    if isinstance(value, (list, tuple)):
        return _render(list(value), floats)
    if hasattr(value, "json_table"):
        return _render_table(*value.json_table(), floats)
    # numpy scalars and the like
    if hasattr(value, "item"):
        return _render(value.item(), floats)
    raise TypeError(f"cannot render {type(value)!r}")


def _render_table(entries: list, codes: np.ndarray, floats: dict) -> str:
    """The JSON array of rows whose entry [b][a] is entries[codes[b, a]], as
    the nested list renders: each distinct entry is rendered once, in four
    forms (alone, opening a row, closing one, or both), and one gather and
    one join place them."""
    texts = [_render(entry, floats) for entry in entries]
    table = np.array(texts + ["[" + t for t in texts] + [t + "]" for t in texts]
                     + ["[" + t + "]" for t in texts], dtype=object)
    forms = codes.copy()
    forms[:, 0] += len(texts)
    forms[:, -1] += 2 * len(texts)
    return "[" + ", ".join(table.take(forms).ravel().tolist()) + "]"


def render_value(value) -> str:
    return _render(value, {})


def render_json(value) -> str:
    return render_value(value) + "\n"
