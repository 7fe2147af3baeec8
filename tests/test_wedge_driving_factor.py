"""Differential tests of the wedge kernel's choice of driving factor.

dform._wedge drives its gather from the factor whose gather (nonzeros times
partners per nonzero) is smaller, the one with fewer nonzeros on a tie, and
walks the second factor's nonzeros in reverse order when that one drives.
The reference below is the kernel before the choice, which always drives
from the first factor.  Every output must equal the reference's bit for
bit (tobytes() for float64, == for int64 and object numerators): on the
wedges that the exact and float suites, the Jacobi identities and the
Pfaffian and hyperdeterminant chains run, and on hand-built pairs where
each factor drives, which must also agree with oracle.wedge_oracle.
"""

import itertools
from math import comb, prod

import numpy as np
import pytest

from dfalg import dform, fixtures, invariants, pfaffian, scalars
from dfalg import identities as idn
from dfalg.dform import DoubleForm, metric_power, wedge, wedge_power
from dfalg.exterior import ExteriorForm, MultiForm, wedge_form, wedge_multi
from dfalg.multiindex import merge_table, subsets
from dfalg.oracle import basis_vector, wedge_oracle


def reference_wedge(n, a, da, b, db, out):
    """The kernel with a as the driving factor, whatever the sizes."""
    nz = np.nonzero(a)
    r = len(da)
    tables = [merge_table(n, x, y) for x, y in zip(da, db)]
    per = prod(cols.shape[1] for cols, _, _ in tables)
    step = max(1, dform.WEDGE_CHUNK // per)
    for lo in range(0, len(nz[0]), step):
        part = tuple(ix[lo:lo + step] for ix in nz)
        src = tgt = 0
        neg = False
        for s, (cols, targets, negs) in enumerate(tables):
            shape = [len(part[s])] + [1] * r
            shape[s + 1] = cols.shape[1]
            src = src * b.shape[s] + cols[part[s]].reshape(shape)
            tgt = tgt * out.shape[s] + targets[part[s]].reshape(shape)
            neg = neg ^ negs[part[s]].reshape(shape)
        vals = b.reshape(-1)[src]
        keep = vals != 0
        terms = np.broadcast_to(a[part].reshape((-1,) + (1,) * r), vals.shape)[keep] \
            * vals[keep]
        flip = neg[keep]
        terms[flip] = -terms[flip]
        np.add.at(out.reshape(-1), tgt[keep], terms)


def second_drives(n, a, da, b, db):
    """Whether the kernel's rule picks b as the driving factor."""
    count_a, count_b = np.count_nonzero(a), np.count_nonzero(b)
    gather_a = count_a * prod(comb(n - x, y) for x, y in zip(da, db))
    gather_b = count_b * prod(comb(n - y, x) for x, y in zip(da, db))
    return (gather_b, count_b) < (gather_a, count_a)


def same_output(x, y):
    if x.dtype != y.dtype or x.shape != y.shape:
        return False
    if x.dtype == np.float64:
        return x.tobytes() == y.tobytes()
    return bool((x == y).all())


@pytest.fixture
def checked(monkeypatch):
    """Check every _wedge call against the reference; count which factor drove.

    The kernel asks _wedge_table for (driving, partner) slot degrees, so
    where they differ the table it asks for shows which factor drove."""
    kernel, table = dform._wedge, dform._wedge_table
    drove = {"first": 0, "second": 0}
    asked = []

    def recording(n, da, db):
        asked.append((da, db))
        return table(n, da, db)

    def checking(n, a, da, b, db, out):
        want = np.zeros_like(out)
        reference_wedge(n, a, da, b, db, want)
        asked.clear()
        kernel(n, a, da, b, db, out)
        assert same_output(out, want), (n, da, db, out.dtype)
        second = second_drives(n, a, da, b, db)
        if da != db:
            assert asked == [(db, da) if second else (da, db)], (n, da, db)
        drove["second" if second else "first"] += 1

    monkeypatch.setattr(dform, "_wedge_table", recording)
    monkeypatch.setattr(dform, "_wedge", checking)
    return drove


# -- real traffic ---------------------------------------------------------------


@pytest.mark.parametrize("field", [scalars.RATIONAL, scalars.FLOAT64])
def test_suite_wedges_match_the_first_factor_kernel(checked, field):
    records = idn.run_suite([fixtures.suite_fixtures(n, 1, field) for n in range(2, 6)])
    assert records
    assert checked["first"] and checked["second"]


def test_jacobi_wedges_match_the_first_factor_kernel(checked):
    for n in range(2, 7):
        h0 = fixtures.random_bilinear(n, 40 + n)
        v = fixtures.random_bilinear(n, 50 + n)
        w = fixtures.random_bilinear(n, 60 + n, "symmetric")
        for k in range(1, n + 1):
            lhs, rhs = invariants.jacobi_with_metric(h0, v, dform.metric(n), w, k)
            assert lhs == rhs
    assert checked["first"] and checked["second"]


def test_pfaffian_chain_wedges_match_the_first_factor_kernel(checked):
    pfaffian.pf(fixtures.random_form(12, 2, 1))
    pfaffian.pf(fixtures.random_form(12, 4, 3))
    for k in (3, 6):
        pfaffian.hyperdet(pfaffian.embed(fixtures.random_form(6, k, 7 + k), 3))
    assert checked["first"] and checked["second"]


# -- hand-built pairs, with the oracle --------------------------------------------


def _double(n, p, q, seed, keep=None):
    """A (p, q) form with small integer entries; keep(i, j) zeroes the rest."""
    rng = fixtures.SplitMix64(seed)
    mat = np.zeros((comb(n, p), comb(n, q)), dtype=object)
    for i, j in itertools.product(range(mat.shape[0]), range(mat.shape[1])):
        if keep is None or keep(i, j):
            mat[i, j] = rng.next_entry() or 1
    return DoubleForm(n, p, q, mat)


def _vector(n, k, seed):
    rng = fixtures.SplitMix64(seed)
    return np.array([rng.next_entry() or 1 for _ in range(comb(n, k))], dtype=object)


def _basis(n, I):
    return [basis_vector(n, i) for i in I]


def oracle_double(x, y):
    n, P, Q = x.n, x.p + y.p, x.q + y.q
    return np.array([[wedge_oracle(x, y, _basis(n, I), _basis(n, J)) for J in subsets(n, Q)]
                     for I in subsets(n, P)], dtype=object).reshape(comb(n, P), comb(n, Q))


def oracle_exterior(n, u, k, v, m):
    """The exterior product of coefficient vectors, read as (k, 0) forms."""
    x = DoubleForm(n, k, 0, u.reshape(-1, 1))
    y = DoubleForm(n, m, 0, v.reshape(-1, 1))
    return np.array([wedge_oracle(x, y, _basis(n, K), []) for K in subsets(n, k + m)],
                    dtype=object)


def _outer(*vectors):
    return np.einsum("i,j,k->ijk", *vectors)


def hand_pairs():
    """(name, x, y, wedge function, the oracle array of x ^ y) for each order."""
    out = []
    n = 4
    g1, g2 = metric_power(n, 1), metric_power(n, 2)
    dense11, dense22 = _double(n, 1, 1, 1), _double(n, 2, 2, 2)
    rank_one = fixtures.rank_one_bilinear(n, 3)
    one_row = _double(n, 2, 2, 4, keep=lambda i, j: i == 2)
    doubles = [("diagonal metric powers", g1, g2), ("rank one", rank_one, dense22),
               ("single nonzero row", one_row, dense11), ("dense", dense11, dense22),
               ("dense (2, 1) with (1, 2)", _double(n, 2, 1, 5), _double(n, 1, 2, 6)),
               # 2 * 1 + 1 * 1 is odd: the commutation sign flips every product
               ("odd commutation sign", _double(n, 2, 1, 11), dense11)]
    for name, x, y in doubles:
        for a, b in ((x, y), (y, x)):
            out.append((name, a, b, wedge, oracle_double(a, b)))
    n = 6
    for k, m in ((2, 3), (1, 3)):  # the second pair's commutation sign is odd
        u, v = _vector(n, k, 7 + k), _vector(n, m, 8)
        for (a, i), (b, j) in (((u, k), (v, m)), ((v, m), (u, k))):
            out.append((f"1-slot ({k}) with ({m})", ExteriorForm(n, i, a),
                        ExteriorForm(n, j, b), wedge_form, oracle_exterior(n, a, i, b, j)))
    # 3 slots: a sum of two products of 1-vectors wedges slot by slot
    # with a product of 2-vectors
    n = 4
    ones = [[_vector(n, 1, 10 + 3 * t + s) for s in range(3)] for t in range(2)]
    twos = [_vector(n, 2, 20 + s) for s in range(3)]
    a = MultiForm(n, 1, 3, sum(_outer(*us) for us in ones))
    b = MultiForm(n, 2, 3, _outer(*twos))
    ab = sum(_outer(*(oracle_exterior(n, x, 1, y, 2) for x, y in zip(us, twos)))
             for us in ones)
    ba = sum(_outer(*(oracle_exterior(n, y, 2, x, 1) for x, y in zip(us, twos)))
             for us in ones)
    out += [("3-slot", a, b, wedge_multi, ab), ("3-slot", b, a, wedge_multi, ba)]
    return out


HAND = hand_pairs()


def _lane(x, lane):
    """x in the lane; "rounded" scales each entry by its own irrational
    factor, so that sums taken in another order would round otherwise."""
    if lane == "float":
        return x.astype(scalars.FLOAT64)
    if lane == "rounded":
        values = np.asarray(x._values, dtype=np.float64)
        factors = 1 + np.sqrt(np.arange(values.size) + 2.0).reshape(values.shape) / 10
        return type(x)._built(x.n, x._degs, values * factors, scalars.FLOAT64)
    return x


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("lane", ["int64", "object", "float", "rounded"])
def test_hand_built_wedges_match_the_reference_and_the_oracle(monkeypatch, checked,
                                                              lane, chunk):
    if lane == "object":
        monkeypatch.setattr(dform, "LANE_BOUND", 0)
    if chunk is not None:
        monkeypatch.setattr(dform, "WEDGE_CHUNK", chunk)
    drove = {}
    for name, x, y, wedge_of, want in HAND:
        before = checked["second"]
        got = wedge_of(_lane(x, lane), _lane(y, lane))
        drove.setdefault(name, set()).add(checked["second"] > before)
        if lane == "rounded":
            continue  # held to the reference bit for bit only
        values = got._values.reshape(want.shape)
        if lane == "float":
            want = want.astype(np.float64)  # small integers, exact in float64
        assert (values == want).all(), (name, lane)
    # each pair runs in both orders and the rule picks the same factor
    # either way, so one order is driven by its second factor; a tie in
    # gathers and in nonzeros leaves the first factor driving
    assert drove.pop("dense (2, 1) with (1, 2)") == {False}
    assert all(seen == {False, True} for seen in drove.values()), drove


def test_a_tie_is_driven_by_the_factor_with_fewer_nonzeros():
    # X^j ^ X with X bilinear and dense: both gathers are C(n, j)^2 (n - j)^2;
    # X is a Vandermonde matrix on 2 < 3 < ..., whose minors are all positive
    n, j = 6, 2
    X = DoubleForm(n, 1, 1, [[(i + 2) ** e for e in range(n)] for i in range(n)])
    a, b = wedge_power(X, j)._lane()[0], X._lane()[0]
    assert np.count_nonzero(a) == a.size and np.count_nonzero(b) == b.size
    assert a.size * (n - j) ** 2 == b.size * comb(n - 1, j) ** 2
    assert second_drives(n, a, (j, j), b, (1, 1))
    assert not second_drives(n, b, (1, 1), a, (j, j))
    want = np.zeros((comb(n, j + 1),) * 2, dtype=a.dtype)
    reference_wedge(n, a, (j, j), b, (1, 1), want)
    got = np.zeros_like(want)
    dform._wedge(n, a, (j, j), b, (1, 1), got)
    assert same_output(got, want)
    assert wedge_power(X, j + 1) == DoubleForm(n, j + 1, j + 1, want)
