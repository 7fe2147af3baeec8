"""JSON tensor files.

One document per tensor:

    {"n": 4, "kind": "double_form", "p": 1, "q": 1, "scalar": "rational",
     "entries": [{"row": [0], "col": [1], "value": "-3/2"}, ...]}

Multi-indices are ascending and 0-based; omitted entries are zero;
rational values are "a" or "a/b" strings so files round-trip losslessly.
kind "form" uses {"row": [...], "value"} entries with a degree field "k";
kind "multiform" adds a slot count "r" and uses {"slots": [[...], ...]}.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import scalars
from .dform import DoubleForm, check_dense
from .exterior import ExteriorForm, MultiForm
from .multiindex import MAX_DIM, unrank_tuple


class TensorFormatError(ValueError):
    """Malformed tensor document."""


# kind -> (type, degree fields, entry keys).  An entry keys its index lists
# by slot ("row", "col"), or, under "slots", lists one per slot.
_KINDS = {
    "double_form": (DoubleForm, ("p", "q"), ("row", "col")),
    "form": (ExteriorForm, ("k",), ("row",)),
    "multiform": (MultiForm, ("k", "r"), "slots"),
}


def tensor_to_doc(obj) -> dict:
    for kind, (cls, fields, keys) in _KINDS.items():
        if type(obj) is cls:
            break
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    n, degs = obj.n, obj._degs
    entries = []
    for idx, v in np.ndenumerate(obj._values):
        if v != 0:
            slots = [list(unrank_tuple(i, d, n)) for i, d in zip(idx, degs)]
            entry = {"slots": slots} if keys == "slots" else dict(zip(keys, slots))
            entry["value"] = scalars.format_scalar(v, obj.field)
            entries.append(entry)
    doc = {"n": n, "kind": kind}
    doc.update((f, getattr(obj, f)) for f in fields)
    doc.update(scalar=obj.field, entries=entries)
    return doc


def tensor_to_json(obj) -> str:
    return json.dumps(tensor_to_doc(obj))


def _need(doc, key, types):
    if key not in doc:
        raise TensorFormatError(f"missing field {key!r}")
    v = doc[key]
    if not isinstance(v, types) or isinstance(v, bool):  # JSON true is not 1
        raise TensorFormatError(f"field {key!r} has the wrong type")
    return v


def _index_tuple(raw):
    if not isinstance(raw, list) or not all(type(i) is int for i in raw):
        raise TensorFormatError("index must be a list of integers")
    return tuple(raw)


def _value(raw, field):
    try:
        if isinstance(raw, bool):
            raise TypeError("a boolean is not a number")
        if field == scalars.RATIONAL and not isinstance(raw, str):
            if isinstance(raw, int):
                return raw
            raise TensorFormatError("rational values must be strings")
        v = scalars.parse_scalar(raw, field)
    except (TypeError, ValueError, ArithmeticError) as exc:  # float(10**400) overflows
        raise TensorFormatError(f"bad value {raw!r}: {exc}") from None
    # float("nan") and json's NaN/Infinity tokens parse, but no report can
    # carry them: JSON has no non-finite numbers
    if field == scalars.FLOAT64 and not math.isfinite(v):
        raise TensorFormatError(f"bad value {raw!r}: not a finite number")
    return v


def tensor_from_doc(doc):
    if not isinstance(doc, dict):
        raise TensorFormatError("tensor document must be a JSON object")
    n = _need(doc, "n", int)
    if not 0 <= n <= MAX_DIM:
        raise TensorFormatError(f"dimension must be in [0, {MAX_DIM}], got {n}")
    kind = _need(doc, "kind", str)
    field = doc.get("scalar", scalars.RATIONAL)
    if field not in scalars.FIELDS:
        raise TensorFormatError(f"unknown scalar field {field!r}")
    entries = _need(doc, "entries", list)
    if kind not in _KINDS:
        raise TensorFormatError(f"unknown tensor kind {kind!r}")
    cls, fields, keys = _KINDS[kind]
    try:
        header = [_need(doc, f, int) for f in fields]
        if keys == "slots":
            k, r = header
            if not 1 <= r <= 64:  # numpy arrays have at most 64 axes
                raise TensorFormatError(f"a multiform needs 1 to 64 slots, got {r}")
            degs = (k,) * r
        else:
            degs = tuple(header)
        # before a single entry is read
        check_dense(math.prod(math.comb(n, d) for d in degs), "the tensor")
        values = {}
        for e in entries:
            if not isinstance(e, dict):
                raise TensorFormatError("each entry must be a JSON object")
            raw = (_need(e, "slots", list) if keys == "slots"
                   else [_need(e, key, list) for key in keys])
            slots = tuple(map(_index_tuple, raw))
            if slots in values:
                raise TensorFormatError(f"duplicate entry {slots}")
            if "value" not in e:
                raise TensorFormatError("entry missing 'value'")
            values[slots] = _value(e["value"], field)
        # _from_entries refuses a slot count, a length or an index out of place
        return cls._from_entries(n, degs, values, field)
    except ValueError as exc:
        if isinstance(exc, TensorFormatError):
            raise
        raise TensorFormatError(str(exc)) from None


def tensor_from_json(text: str):
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also ints past 4300 digits, deep nesting
        raise TensorFormatError(f"invalid JSON: {exc}") from None
    return tensor_from_doc(doc)


def load_tensor(path):
    with open(path, "r", encoding="utf-8") as fh:
        return tensor_from_json(fh.read())
