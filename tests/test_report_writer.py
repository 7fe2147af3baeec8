"""Differential test of the report writer: on every JSON tree,
cli._json_text writes the text json.dumps(obj, indent=2, allow_nan=False)
writes, or both refuse the tree with the same exception type."""

import enum
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dfalg.cli import _json_text


def _dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=False)


def _outcome(write, obj):
    """write(obj), or the type of the ValueError or TypeError it raises."""
    try:
        return write(obj)
    except (ValueError, TypeError) as exc:
        return type(exc)


# every code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["", "\ud800", "\udfff", "a\x00b\x1f\x7f", "\"\\/\b\f\n\r\t", "é 漢 😀", " "])


class Level(enum.IntEnum):  # an int subclass with its own repr
    LOW = -3


INTS = st.integers() | st.sampled_from(
    [-(2 ** 63), 2 ** 64, -(10 ** 300), 10 ** 4299 + 7, Level.LOW])
# np.float64 is a float subclass with its own repr
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1.0, -1e308, np.float64(0.1)])
GOOD = st.none() | st.booleans() | INTS | FLOATS | TEXT
# what json.dumps refuses: a float that is not finite, or an int past
# Python's int-to-string limit, is a ValueError; numpy ints and bools,
# sets and bytes are TypeErrors
BAD = st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"), np.int64(3),
                       np.bool_(True), {1, 2}, frozenset(), b"x"]) | st.just(4300).map(
    lambda digits: 10 ** digits)
KEYS = TEXT | st.sampled_from(["name", "params", "n"])
# Reports only use str keys.  json.dumps would write an int, float, bool
# or None key as a string, which the writer refuses (see the last test),
# so the only other keys drawn are tuples, which json.dumps refuses too.
BAD_KEYS = st.tuples(st.integers())


def _trees(leaves, keys):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(keys, children, max_size=5),
        max_leaves=40)


@settings(max_examples=200)
@given(obj=_trees(GOOD, KEYS))
@example(obj={"meta": {}, "identities": [], "summary": {"checks": 0, "rate": -0.0}})
@example(obj=[[[[]]], {"a": {"b": {}}}, (), ((1,),)])
def test_writer_writes_the_text_of_json_dumps(obj):
    assert _json_text(obj) == _dumps(obj)


@settings(max_examples=200)
@given(obj=_trees(GOOD | BAD, KEYS | BAD_KEYS))
def test_writer_refuses_what_json_dumps_refuses(obj):
    assert _outcome(_json_text, obj) == _outcome(_dumps, obj)


def _nest(leaf, depth):
    for i in range(depth):
        leaf = [1, {"k": leaf}] if i % 2 else {"a": "x", "b": [leaf, 2]}
    return leaf


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("leaf,error", [
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    (np.int64(3), TypeError), ({1, 2}, TypeError), ({(1,): 2}, TypeError),
])
def test_a_refused_leaf_at_any_depth_raises_as_json_dumps_does(depth, leaf, error):
    obj = _nest(leaf, depth)
    with pytest.raises(error):
        _dumps(obj)
    with pytest.raises(error):
        _json_text(obj)


@pytest.mark.parametrize("key", [1, 1.5, True, None])
def test_writer_refuses_a_key_that_is_not_a_str(key):
    # json.dumps would write this key as a string; no report has one
    with pytest.raises(TypeError):
        _json_text({"a": 1, key: 2})
