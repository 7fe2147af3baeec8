"""Property test of tensor documents: small hostile inputs of every kind
and field either load as a form that round-trips or raise TensorFormatError."""

import json
from datetime import timedelta

from hypothesis import example, given, settings, strategies as st

import pytest

from dfalg import scalars
from dfalg.cli import main
from dfalg.dform import DoubleForm
from dfalg.exterior import ExteriorForm, MultiForm
from dfalg.tensorio import TensorFormatError, tensor_from_doc, tensor_to_doc

GOOD_VALUES = {
    "rational": st.integers(-3, 3) | st.sampled_from(["2/3", "-7/4", "0/5", "5", 2 ** 70]),
    "float64": st.floats(-1e6, 1e6) | st.sampled_from([1e308, -5e-324, -0.0]),
}
BAD_VALUES = st.one_of(
    st.sampled_from([2 ** 62, -(2 ** 63), 10 ** 400, -(10 ** 400), "9" * 400,
                     "1/" + "7" * 60, "1/0", "x/y", "1.5", "", "3/-4", "nan", "inf",
                     "-inf", "1e999", None, True, [1], {"a": 1}]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def documents(draw):
    """Mostly well-formed small documents; about one choice in ten is
    hostile: a bad kind, dimension, field, degree, index, value or a
    duplicate entry."""
    def hostile():
        return draw(st.sampled_from((False,) * 15 + (True,)))

    kind = draw(st.sampled_from(["double_form", "form", "multiform"]))
    if hostile():
        kind = draw(st.sampled_from(["triple_form", 7, None]))
    n = draw(st.integers(-1, 5) if hostile() else st.integers(0, 4))
    field = draw(st.sampled_from(["rational", "float64"]))
    doc = {"n": n, "kind": kind, "scalar": field}
    if hostile():
        doc["scalar"] = draw(st.sampled_from(["complex", None, 3]))
    elif field == "rational" and draw(st.booleans()):
        del doc["scalar"]  # rational is the default
    degrees = {"double_form": "pq", "form": "k", "multiform": "kr"}.get(kind, "")
    for key in degrees:
        doc[key] = draw(st.integers(-1, 5) if hostile()
                        else st.integers(1, 3) if key == "r" else st.integers(0, 2))

    def index(d):
        if hostile() or not 0 <= d <= n:
            return draw(st.lists(st.integers(-1, max(n, 0)), max_size=3))
        if d == 0:
            return []
        return sorted(draw(st.sets(st.integers(0, n - 1), min_size=d, max_size=d)))

    entries, keys = [], set()
    for _ in range(draw(st.integers(0, 4))):
        if kind == "multiform":
            e = {"slots": [index(doc["k"]) for _ in range(max(doc["r"], 0))]}
        elif kind == "form":
            e = {"row": index(doc["k"])}
        else:
            e = {"row": index(doc.get("p", 0)), "col": index(doc.get("q", 0))}
        key = json.dumps(e)
        if key in keys:
            continue
        keys.add(key)
        value = draw(st.sampled_from(("good",) * 6 + ("bad", "missing")))
        if value != "missing":
            e["value"] = draw(GOOD_VALUES[field] if value == "good" else BAD_VALUES)
        entries.append(e)
    if entries and hostile():
        entries.append(dict(entries[0]))
    doc["entries"] = entries
    return doc


def _position(entry):
    return json.dumps({k: v for k, v in entry.items() if k != "value"}, sort_keys=True)


@settings(max_examples=300, deadline=timedelta(milliseconds=500))
@given(documents())
@example({"n": 2, "kind": "form", "k": 1, "scalar": "float64",
          "entries": [{"row": [0], "value": 10 ** 400}]})
def test_documents_load_as_round_tripping_forms_or_are_rejected(doc):
    try:
        obj = tensor_from_doc(doc)
    except TensorFormatError:
        return
    assert isinstance(obj, (DoubleForm, ExteriorForm, MultiForm))
    out = tensor_to_doc(obj)
    assert json.loads(json.dumps(out, allow_nan=False)) == out
    # every nonzero value of the document, and nothing else, is written back
    field = doc.get("scalar", scalars.RATIONAL)
    want = {}
    for e in doc["entries"]:
        v = scalars.parse_scalar(e["value"], field)
        if v != 0:
            want[_position(e)] = scalars.format_scalar(v, field)
    assert {_position(e): e["value"] for e in out["entries"]} == want
    back = tensor_from_doc(out)
    assert type(back) is type(obj) and back == obj
    assert tensor_to_doc(back) == out


# index faults that the form constructors (_LaneForm._ranks) refuse, and two
# that the reader refuses itself, in documents at n = 4
INDEX_FAULTS = {
    "descending": ("form", {"k": 2}, [{"row": [2, 1], "value": "1"}]),
    "index_past_n": ("double_form", {"p": 1, "q": 1},
                     [{"row": [4], "col": [0], "value": "1"}]),
    "negative_index": ("form", {"k": 1}, [{"row": [-1], "value": "1"}]),
    "wrong_length": ("double_form", {"p": 1, "q": 2},
                     [{"row": [0], "col": [1], "value": "1"}]),
    "wrong_slot_count": ("multiform", {"k": 1, "r": 2},
                         [{"slots": [[0], [1], [2]], "value": "1"}]),
    "duplicate": ("form", {"k": 1}, [{"row": [3], "value": "1"}, {"row": [3], "value": "2"}]),
    "entry_not_an_object": ("form", {"k": 1}, [3]),
}


@pytest.mark.parametrize("case", sorted(INDEX_FAULTS))
def test_index_faults_are_format_errors(tmp_path, capsys, case):
    kind, degrees, entries = INDEX_FAULTS[case]
    doc = {"n": 4, "kind": kind, **degrees, "entries": entries}
    with pytest.raises(TensorFormatError):
        tensor_from_doc(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["invariants", str(path), "--family", "s"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("dfalg: error:")
    assert "Traceback" not in out.err
