"""Differential tests of the wedge kernel's gather tables.

dform._wedge reads each chunk's (src, tgt, neg) rows from _wedge_table: a
one-slot table is multiindex.merge_table's own, and a multi-slot table is
combined over every position of the driving factor once and kept while it
has at most WEDGE_TABLE_LIMIT entries.  Past the limit the kernel combines
each chunk's rows with _gather_rows as it goes.  Both paths must give the
first-factor reference kernel's output bit for bit (tobytes() for float64,
== for int64 and object numerators), for every slot degree at n <= 7, and
agree with oracle.wedge_oracle where it is cheap enough to run.
"""

import contextlib
import io
import itertools
from math import comb, prod

import numpy as np
import pytest
from test_kernels import chunk_wedges, same_bits
from test_wedge_driving_factor import oracle_double, oracle_exterior, reference_wedge, same_output

from dfalg import cli, dform, scalars
from dfalg.dform import DoubleForm
from dfalg.multiindex import merge_table

# the most (nonzero, partner) pairs each factor's gather reaches here: a
# denser factor is thinned to random nonzero positions, so n = 7 stays cheap
GATHER = 3000


def degree_pairs(n, r):
    """Every (da, db) of r slots with da_s + db_s <= n; r = 3 as multiforms,
    one degree for every slot."""
    if r == 3:
        return [((x,) * 3, (y,) * 3) for x in range(n + 1) for y in range(n + 1 - x)]
    slot = [(x, y) for x in range(n + 1) for y in range(n + 1 - x)]
    return [tuple(zip(*pairs)) for pairs in itertools.product(slot, repeat=r)]


def factor(n, degs, partners, lane, rng):
    """A random array of slot degrees degs at most GATHER // partners of
    whose entries are nonzero.  The float lane's zeros alternate +0.0 and
    -0.0, and its values are not integers, so a sum in another order would
    round otherwise."""
    shape = dform._shape(n, degs)
    size = prod(shape)
    nonzero = np.zeros(size, dtype=bool)
    nonzero[rng.permutation(size)[:max(1, GATHER // max(partners, 1))]] = True
    ints = rng.integers(1, 10, size=size) * rng.choice([-1, 1], size=size) * nonzero
    if lane == "int64":
        x = ints
    elif lane == "object":
        x = ints.astype(object) * (1 << 70)
    else:
        x = np.where(nonzero, ints * (1 + rng.random(size)), 0.0)
        x[~nonzero & (np.arange(size) % 2 == 1)] = -0.0
    return x.reshape(shape)


def outputs(n, a, da, b, db):
    out = np.zeros(dform._shape(n, tuple(map(sum, zip(da, db)))), dtype=a.dtype)
    dform._wedge(n, a, da, b, db, out)
    return out


@pytest.fixture
def per_chunk(monkeypatch):
    """Run a function with no multi-slot table kept: the limit is 0 and the
    cache is a fresh dict, restored afterwards."""
    tables = dform._WEDGE_TABLES

    def run(fn, *args):
        with monkeypatch.context() as m:
            m.setattr(dform, "WEDGE_TABLE_LIMIT", 0)
            m.setattr(dform, "_WEDGE_TABLES", {})
            out = fn(*args)
            assert all(t is None for t in dform._WEDGE_TABLES.values())
        assert dform._WEDGE_TABLES is tables
        return out

    return run


@pytest.mark.parametrize("lane", ["int64", "object", "float"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_kept_and_per_chunk_rows_match_the_reference(per_chunk, r, lane):
    rng = np.random.default_rng(100 * r + len(lane))
    kept = 0
    for n in range(8):
        for da, db in degree_pairs(n, r):
            per_a = prod(comb(n - x, y) for x, y in zip(da, db))
            per_b = prod(comb(n - y, x) for x, y in zip(da, db))
            a, b = factor(n, da, per_a, lane, rng), factor(n, db, per_b, lane, rng)
            want = np.zeros(dform._shape(n, tuple(map(sum, zip(da, db)))), dtype=a.dtype)
            reference_wedge(n, a, da, b, db, want)
            got = outputs(n, a, da, b, db)
            assert same_output(got, want), (n, da, db, "kept")
            assert same_output(per_chunk(outputs, n, a, da, b, db), want), (n, da, db)
            kept += dform._wedge_table(n, da, db) is not None and r > 1
    # both paths ran: some multi-slot tables were kept, and r = 3 reaches
    # tables past the limit
    assert kept or r == 1
    if r == 3:
        assert dform._wedge_table(7, (2,) * 3, (2,) * 3) is None


def test_kept_and_per_chunk_rows_match_the_oracle(per_chunk):
    rng = np.random.default_rng(7)
    for n in range(5):
        for da, db in degree_pairs(n, 2):
            if n == 4 and sum(da) + sum(db) > 6:
                continue  # the oracle's shuffle sums grow fast; the reference covers these
            x = DoubleForm(n, *da, factor(n, da, 1, "int64", rng))
            y = DoubleForm(n, *db, factor(n, db, 1, "int64", rng))
            want = oracle_double(x, y)
            got = dform.wedge(x, y)
            assert (got._values.reshape(want.shape) == want).all(), (n, da, db)
            assert (per_chunk(dform.wedge, x, y)._values.reshape(want.shape) == want).all()
    for n in range(6):
        for (k,), (m,) in degree_pairs(n, 1):
            u = factor(n, (k,), 1, "int64", rng).astype(object)
            v = factor(n, (m,), 1, "int64", rng).astype(object)
            got = outputs(n, u, (k,), v, (m,))
            assert (got == oracle_exterior(n, u, k, v, m)).all(), (n, k, m)


@pytest.mark.parametrize("lane", ["int64", "object", "float"])
def test_per_chunk_rows_split_like_one_gather(monkeypatch, per_chunk, lane):
    # test_chunked_wedge_matches_one_gather on the kept tables; here each
    # chunk combines its own rows
    field = scalars.FLOAT64 if lane == "float" else scalars.RATIONAL
    if lane == "object":
        monkeypatch.setattr(dform, "LANE_BOUND", 0)
    chunks = []
    combine = dform._gather_rows

    def counting(*args):  # the kernel combines once per chunk
        chunks.append(1)
        return combine(*args)

    monkeypatch.setattr(dform, "_gather_rows", counting)
    whole = per_chunk(chunk_wedges, field)
    one_gather = len(chunks)
    for size in (1, 50):
        monkeypatch.setattr(dform, "WEDGE_CHUNK", size)
        chunks.clear()
        split = per_chunk(chunk_wedges, field)
        assert len(chunks) > one_gather
        assert len(split) == len(whole)
        for x, y in zip(split, whole):
            assert same_bits(x, y), (size, x)


def test_one_slot_tables_are_merge_tables(per_chunk):
    # no copy, whatever the limit
    for n in range(8):
        for (p,), (q,) in degree_pairs(n, 1):
            assert dform._wedge_table(n, (p,), (q,)) is merge_table(n, p, q)
            assert per_chunk(dform._wedge_table, n, (p,), (q,)) is merge_table(n, p, q)


def test_multi_slot_tables_are_kept_up_to_the_limit(monkeypatch):
    monkeypatch.setattr(dform, "_WEDGE_TABLES", {})
    sizes = set()
    for n in range(11):
        for da, db in degree_pairs(n, 2):
            size = prod(comb(n, x) * comb(n - x, y) for x, y in zip(da, db))
            if size > 2 * dform.WEDGE_TABLE_LIMIT:
                continue
            table = dform._wedge_table(n, da, db)
            rows, partners = prod(dform._shape(n, da)), size // prod(dform._shape(n, da))
            sizes.add(size <= dform.WEDGE_TABLE_LIMIT)
            if size > dform.WEDGE_TABLE_LIMIT:
                assert table is None, (n, da, db)
                continue
            src, tgt, neg = table
            assert (src.dtype, tgt.dtype, neg.dtype) == (np.int32, np.int32, np.bool_)
            assert src.shape == tgt.shape == neg.shape == (rows, partners)
            every = np.unravel_index(np.arange(rows), dform._shape(n, da))
            for kept, combined in zip(table, dform._gather_rows(n, da, db, every)):
                assert np.array_equal(kept, combined), (n, da, db)
    assert sizes == {True, False}


def test_the_table_cache_after_an_n_8_suite(monkeypatch):
    # every wedge of verify --n-range 2:8 --seeds 1, run in this process:
    # 54 tables kept, 607 KiB, and 30 past the limit
    monkeypatch.setattr(cli, "_suite_processes", lambda: 1)
    monkeypatch.setattr(dform, "_WEDGE_TABLES", {})
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--n-range", "2:8", "--seeds", "1"]) == 0
    tables = dform._WEDGE_TABLES
    kept = [t for t in tables.values() if t is not None]
    assert (len(tables), len(kept)) == (84, 54)
    assert sum(x.nbytes for t in kept for x in t) == 621252
