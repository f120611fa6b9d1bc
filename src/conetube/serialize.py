"""Deterministic JSON encoding of elements, descriptors, and reports.

Floats render with 12 significant digits through repeated runs, so equal
inputs produce byte-identical output. Complex numbers are [re, im] pairs,
elements are coordinate arrays, descriptors are {"family", "rank", "n"},
graded fields are {"u", "A", "w"}.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import algebra as al
from .errors import DimensionMismatch, NumericalFailure, require_finite


def format_float(x: float) -> str:
    """12 significant digits; NaN and ±Inf have no JSON form and raise."""
    if not math.isfinite(x):
        raise NumericalFailure(f"non-finite value {x!r} in output")
    if x == 0:
        x = 0.0  # fold -0.0
    return "%.12g" % float(x)


# exact leaf types skip the isinstance chain; _quote gives json.dumps(str)'s bytes
_quote = json.encoder.encode_basestring_ascii
_LEAVES = {str: _quote, int: str, float: format_float,
           bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _encode(obj, parts: list):
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        parts.append(leaf(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(_quote(str(k)))
            parts.append(":")
            _encode(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, v in enumerate(seq):
            if i:
                parts.append(",")
            _encode(v, parts)
        parts.append("]")
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        _encode([obj.real, obj.imag], parts)
    else:
        raise TypeError(f"cannot canonically encode {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    parts: list = []
    _encode(obj, parts)
    return "".join(parts)


def complex_pair(c) -> list:
    c = complex(c)
    return [c.real, c.imag]


def descriptor_to_json(algebra: al.AlgebraDescriptor) -> dict:
    return {"family": algebra.family, "rank": algebra.rank,
            "n": algebra.peirce_constant}


def descriptor_from_json(data) -> al.AlgebraDescriptor:
    if not isinstance(data, dict) or "family" not in data:
        raise DimensionMismatch("descriptor must be an object with a family")
    return al.make_algebra(data["family"], rank=data.get("rank"),
                           peirce_constant=data.get("n"))


def element_to_json(x) -> list:
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return [[float(v.real), float(v.imag)] for v in x]
    return [float(v) for v in x]


def _is_number(entry) -> bool:
    # JSON true and false load as bool, a subclass of int: not numbers here
    return isinstance(entry, (int, float)) and not isinstance(entry, bool)


def _entry(entry, allow_pair: bool, refusal: str) -> complex:
    """A JSON number, or an [re, im] pair if ``allow_pair``.

    Anything else raises DimensionMismatch: ``refusal``, then the entry as JSON.
    """
    if _is_number(entry):
        return complex(entry)
    if (allow_pair and isinstance(entry, list) and len(entry) == 2
            and all(map(_is_number, entry))):
        return complex(entry[0], entry[1])
    raise DimensionMismatch(refusal + json.dumps(entry, default=repr))


def element_from_json(algebra: al.AlgebraDescriptor, data) -> np.ndarray:
    if not isinstance(data, list):
        raise DimensionMismatch("element must be a JSON array")
    refusal = "element entries must be numbers or [re, im] pairs, got "
    vals = [_entry(entry, True, refusal) for entry in data]
    arr = require_finite(np.asarray(vals, dtype=complex), "element")
    return al.as_element(algebra, arr.real if np.all(arr.imag == 0) else arr)


def matrix_from_json(data, allow_complex: bool = False) -> np.ndarray:
    if not isinstance(data, list) or not data or not all(
            isinstance(row, list) for row in data):
        raise DimensionMismatch("matrix must be a JSON array of rows")
    rows = [[_entry(entry, allow_complex, "bad matrix entry ") for entry in row]
            for row in data]
    if len({len(r) for r in rows}) != 1:
        raise DimensionMismatch("matrix rows have unequal lengths")
    arr = require_finite(np.asarray(rows, dtype=complex), "matrix")
    return arr.real if np.all(arr.imag == 0) else arr


def field_to_json(field) -> dict:
    return {"u": element_to_json(field.u),
            "A": [element_to_json(row) for row in field.A],
            "w": element_to_json(field.w)}


def field_from_json(algebra: al.AlgebraDescriptor, data):
    from .fields import GradedField
    if not isinstance(data, dict) or set(data) - {"u", "A", "w"}:
        raise DimensionMismatch('field must be {"u": …, "A": …, "w": …}')
    d = algebra.dim
    u = element_from_json(algebra, data.get("u", [0.0] * d))
    w = element_from_json(algebra, data.get("w", [0.0] * d))
    A = matrix_from_json(data.get("A", np.zeros((d, d)).tolist()))
    if np.iscomplexobj(u) or np.iscomplexobj(w):
        raise DimensionMismatch("field coefficients u, w must be real")
    return GradedField(u, A, w)


def spectral_to_json(algebra, data, joint=None) -> dict:
    out = {
        "descriptor": descriptor_to_json(algebra),
        "eigenvalues": [float(v) for v in data.eigenvalues],
        "frame": [element_to_json(row) for row in data.frame],
    }
    if joint is not None:
        out["projections"] = {
            f"{j},{k}": [element_to_json(row) for row in mat]
            for (j, k), mat in sorted(joint.projections.items())
        }
        out["block_dims"] = {f"{j},{k}": int(d)
                             for (j, k), d in sorted(joint.dims.items())}
    return out
