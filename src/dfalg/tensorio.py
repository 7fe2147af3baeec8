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
from .dform import DoubleForm
from .exterior import ExteriorForm, MultiForm
from .multiindex import MAX_DIM, rank_tuple, unrank_tuple

# The largest dense array a document may ask for: 2^24 entries, 128 MiB of
# float64 values or object pointers.  The tensors dfalg writes are far
# smaller (a 4-form at n = 12 has 495 entries); the limit stops a short
# header from allocating gigabytes before a single entry is read.
MAX_DENSE_ENTRIES = 1 << 24


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


def tensor_to_json(obj, indent=None) -> str:
    return json.dumps(tensor_to_doc(obj), indent=indent)


def _need(doc, key, types):
    if key not in doc:
        raise TensorFormatError(f"missing field {key!r}")
    v = doc[key]
    if not isinstance(v, types) or isinstance(v, bool):  # JSON true is not 1
        raise TensorFormatError(f"field {key!r} has the wrong type")
    return v


def _index_tuple(raw, n, what):
    if not isinstance(raw, list) or not all(type(i) is int for i in raw):
        raise TensorFormatError(f"{what} must be a list of integers")
    t = tuple(raw)
    if any(a >= b for a, b in zip(t, t[1:])) or (t and (t[0] < 0 or t[-1] >= n)):
        raise TensorFormatError(f"{what} {raw} is not ascending in [0, {n})")
    return t


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


def _check_dense_size(entries):
    if entries > MAX_DENSE_ENTRIES:
        raise TensorFormatError(f"the tensor needs {entries} dense entries, "
                                f"above the limit of {MAX_DENSE_ENTRIES}")


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
        shape = tuple(math.comb(n, d) for d in degs)
        _check_dense_size(math.prod(shape))
        values = scalars.zeros(shape, field)
        seen = set()
        for e in entries:
            if keys == "slots":
                raw = _need(e, "slots", list)
                if len(raw) != len(degs):
                    raise TensorFormatError(f"entry needs {len(degs)} slots")
            else:
                raw = [_need(e, key, list) for key in keys]
            slots = tuple(_index_tuple(s, n, "index") for s in raw)
            if tuple(map(len, slots)) != degs:
                raise TensorFormatError(f"entry {slots} does not match the degrees {degs}")
            if slots in seen:
                raise TensorFormatError(f"duplicate entry {slots}")
            seen.add(slots)
            if "value" not in e:
                raise TensorFormatError("entry missing 'value'")
            values[tuple(rank_tuple(s, n) for s in slots)] = _value(e["value"], field)
        return cls(n, *header, values, field)
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
