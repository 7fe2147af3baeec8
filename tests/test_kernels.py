"""Differential tests of the slot-generic wedge and star kernels, of
the gather contraction kernel and of the exact integer lane.

The references below are the loops the kernels replaced: the
merge_table build, the scatter and gather double-form wedges, the
exterior-form and multiform wedge loops, the three Hodge-star loops, the
contract and contract_with_metric loops, the Gauss-Jordan metric inverse,
the split, insertion and complement table builds, the first-Bianchi sum
and the multiform embedding.  They run on their own copies of the
tuple- and dict-format tables they were written against.  Exact mode must
agree entry for entry; float mode sums in another order, so it is held to
a relative tolerance of 1e-12.  The integer lane is held to the
entry-by-entry int and Fraction arithmetic it replaced, and its int64 and
Python-int numerators to each other.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from conftest import traced_peak

from dfalg import dform, fixtures, oracle, pfaffian, scalars
from dfalg.dform import (
    DoubleForm,
    _invert_metric,
    bianchi_residual,
    compose,
    compose_power,
    contract,
    contract_with_metric,
    hodge,
    inner,
    metric,
    metric_power,
    transpose,
    wedge,
)
from dfalg.exterior import (
    ExteriorForm,
    MultiForm,
    hodge_form,
    hodge_multi,
    wedge_form,
    wedge_multi,
)
from dfalg.fixtures import SplitMix64
from dfalg.invariants import power_sums
from dfalg.multiindex import (
    MAX_DIM,
    complement_table,
    insertion_table,
    merge_table,
    split_table,
    subsets,
)
from dfalg.oracle import complement_sign_tuple, complement_tuple, merge_sign_tuple

FLOAT_RTOL = 1e-12
DIMS = range(0, 8)
# the reference loops cost about one interpreted step per pair of entries;
# above this many pairs a dense input is thinned to a sparse one
PAIR_BUDGET = 5_000


# -- the replaced code, kept as the reference -----------------------------------

@lru_cache(maxsize=None)
def rank_of(n, k):
    """{k-subset: rank}, the lookup dict the replaced code read."""
    return {s: r for r, s in enumerate(subsets(n, k))}


@lru_cache(maxsize=None)
def old_merge_table(n, p, q):
    """[rank_I][rank_J] -> (sign, rank of I|J), or None when I and J meet."""
    qsubs = subsets(n, q)
    ranks = rank_of(n, p + q)
    table = []
    for I in subsets(n, p):
        row = []
        for J in qsubs:
            res = merge_sign_tuple(I, J)
            row.append(None if res is None else (res[0], ranks[res[1]]))
        table.append(tuple(row))
    return tuple(table)


def ref_merge_table(n, p, q):
    """The merge_table build of one merge_sign_tuple call per disjoint pair."""
    rank_q = rank_of(n, q)
    rank_pq = rank_of(n, p + q)
    cols, targets, neg = [], [], []
    for I in subsets(n, p):
        for J in itertools.combinations(complement_tuple(I, n), q):
            sign, merged = merge_sign_tuple(I, J)
            cols.append(rank_q[J])
            targets.append(rank_pq[merged])
            neg.append(sign < 0)
    shape = (comb(n, p), comb(n - p, q))
    return (np.array(cols, dtype=np.intp).reshape(shape),
            np.array(targets, dtype=np.intp).reshape(shape),
            np.array(neg, dtype=bool).reshape(shape))


@lru_cache(maxsize=None)
def old_complement_table(n, k):
    """For each k-subset I: (rank of I^c, complement sign of I)."""
    ranks = rank_of(n, n - k)
    return tuple((ranks[complement_tuple(I, n)], complement_sign_tuple(I, n))
                 for I in subsets(n, k))


@lru_cache(maxsize=None)
def old_split_table(n, k, p):
    """For each k-subset K: all (rank_I, rank_J, sign) with I|J = K, |I| = p."""
    rank_p = rank_of(n, p)
    rank_q = rank_of(n, k - p)
    table = []
    for K in subsets(n, k):
        entries = []
        for pos in itertools.combinations(range(k), p):
            I = tuple(K[s] for s in pos)
            J = tuple(K[s] for s in range(k) if s not in pos)
            inv = sum(s - idx for idx, s in enumerate(pos))
            entries.append((rank_p[I], rank_q[J], -1 if inv % 2 else 1))
        table.append(tuple(entries))
    return tuple(table)


@lru_cache(maxsize=None)
def old_insertion_table(n, p):
    """For each (p-1)-subset I: dict a -> (sign, rank of {a}|I) over a not in I."""
    ranks = rank_of(n, p)
    table = []
    for I in subsets(n, p - 1):
        inside = set(I)
        row = {}
        for a in range(n):
            if a in inside:
                continue
            res = merge_sign_tuple((a,), I)
            row[a] = (res[0], ranks[res[1]])
        table.append(row)
    return tuple(table)


def old_bianchi_residual(w):
    """The first-Bianchi sum, one merge_sign_tuple call per term."""
    n, p, q = w.n, w.p, w.q
    m = w.mat
    worst = 0
    ranks_p = rank_of(n, p)
    for X in subsets(n, p + 1):
        for Y in subsets(n, q - 1):
            acc = 0
            for j, xj in enumerate(X):
                rest = X[:j] + X[j + 1:]
                merged = merge_sign_tuple((xj,), Y)
                if merged is None:
                    continue
                sign, col = merged
                term = sign * m[ranks_p[rest], rank_of(n, q)[col]]
                acc += -term if j % 2 == 0 else term  # (-1)^j with 1-based j
            worst = max(worst, abs(acc))
    return worst


def old_embed(form, r):
    """The rk-form as r slots of degree k, one merge per slot tuple."""
    n, k = form.n, form.k // r
    blocks = subsets(n, k)
    target = scalars.zeros((len(blocks),) * r, form.field)
    ranks = rank_of(n, form.k)
    for idx in itertools.product(range(len(blocks)), repeat=r):
        sign = 1
        merged = blocks[idx[0]]
        for s in idx[1:]:
            hit = merge_sign_tuple(merged, blocks[s])
            if hit is None:
                sign = 0
                break
            sign *= hit[0]
            merged = hit[1]
        if sign:
            v = form.coeffs[ranks[merged]]
            if v != 0:
                target[idx] = sign * v
    if r == 2:
        return DoubleForm(n, k, k, target, form.field)
    return MultiForm(n, k, r, target, form.field)


def ref_wedge(w1, w2, path):
    n = w1.n
    P, Q = w1.p + w2.p, w1.q + w2.q
    mo = scalars.zeros((comb(n, P), comb(n, Q)), w1.field)
    if P <= n and Q <= n:
        if path == "scatter":
            _ref_wedge_scatter(w1, w2, mo)
        else:
            _ref_wedge_gather(w1, w2, mo)
    return DoubleForm(n, P, Q, mo, w1.field)


def _ref_wedge_scatter(w1, w2, mo):
    n = w1.n
    rows = old_merge_table(n, w1.p, w2.p)
    cols = old_merge_table(n, w1.q, w2.q)
    m1, m2 = w1.mat, w2.mat
    for (i1, j1), v1 in np.ndenumerate(m1):
        if v1 == 0:
            continue
        rrow = rows[i1]
        rcol = cols[j1]
        for (i2, j2), v2 in np.ndenumerate(m2):
            if v2 == 0:
                continue
            mr = rrow[i2]
            if mr is None:
                continue
            mc = rcol[j2]
            if mc is None:
                continue
            sr, ri = mr
            sc, rj = mc
            mo[ri, rj] += (v1 * v2) if sr == sc else -(v1 * v2)


def _ref_wedge_gather(w1, w2, mo):
    n = w1.n
    P, Q = w1.p + w2.p, w1.q + w2.q
    rows = old_split_table(n, P, w1.p)
    cols = old_split_table(n, Q, w1.q)
    m1, m2 = w1.mat, w2.mat
    for ri in range(mo.shape[0]):
        row_splits = rows[ri]
        for rj in range(mo.shape[1]):
            acc = mo[ri, rj]
            for (ra, rb, sr) in row_splits:
                r1 = m1[ra]
                r2 = m2[rb]
                for (ca, cb, sc) in cols[rj]:
                    v = r1[ca]
                    if v == 0:
                        continue
                    u = r2[cb]
                    if u == 0:
                        continue
                    acc += (v * u) if sr == sc else -(v * u)
            mo[ri, rj] = acc


def ref_wedge_form(a, b):
    n, k = a.n, a.k + b.k
    out = scalars.zeros(comb(n, k), a.field)
    if k > n:
        return ExteriorForm(n, k, out, a.field)
    table = old_merge_table(n, a.k, b.k)
    for i, va in enumerate(a.coeffs):
        if va == 0:
            continue
        row = table[i]
        for j, vb in enumerate(b.coeffs):
            if vb == 0:
                continue
            hit = row[j]
            if hit is None:
                continue
            sign, r = hit
            out[r] += sign * (va * vb)
    return ExteriorForm(n, k, out, a.field)


def ref_wedge_multi(a, b):
    n, k = a.n, a.k + b.k
    out = scalars.zeros((comb(n, k),) * a.r, a.field)
    if k > n:
        return MultiForm(n, k, a.r, out, a.field)
    table = old_merge_table(n, a.k, b.k)
    for ia, va in np.ndenumerate(a.coeffs):
        if va == 0:
            continue
        for ib, vb in np.ndenumerate(b.coeffs):
            if vb == 0:
                continue
            sign = 1
            target = []
            for s in range(a.r):
                hit = table[ia[s]][ib[s]]
                if hit is None:
                    break
                sign *= hit[0]
                target.append(hit[1])
            else:
                out[tuple(target)] += sign * (va * vb)
    return MultiForm(n, k, a.r, out, a.field)


def ref_hodge(w):
    n, p, q = w.n, w.p, w.q
    if p > n or q > n:
        return DoubleForm.zeros(n, max(n - p, 0), max(n - q, 0), w.field)
    mo = scalars.zeros((comb(n, n - p), comb(n, n - q)), w.field)
    sigma = -1 if ((p + q) * (n - p - q)) % 2 else 1
    rows = old_complement_table(n, n - p)
    cols = old_complement_table(n, n - q)
    m = w.mat
    for ri in range(mo.shape[0]):
        rc, er = rows[ri]
        se = sigma * er
        for rj in range(mo.shape[1]):
            cc, ec = cols[rj]
            v = m[rc, cc]
            if v != 0:
                mo[ri, rj] = (se * ec) * v
    return DoubleForm(n, n - p, n - q, mo, w.field)


def ref_hodge_form(a):
    n = a.n
    out = scalars.zeros(comb(n, n - a.k), a.field)
    table = old_complement_table(n, a.k)
    for i, v in enumerate(a.coeffs):
        if v != 0:
            rc, eps = table[i]
            out[rc] = eps * v
    return ExteriorForm(n, n - a.k, out, a.field)


def ref_hodge_multi(a):
    n = a.n
    out = scalars.zeros((comb(n, n - a.k),) * a.r, a.field)
    table = old_complement_table(n, a.k)
    for idx, v in np.ndenumerate(a.coeffs):
        if v == 0:
            continue
        sign = 1
        target = []
        for i in idx:
            rc, eps = table[i]
            sign *= eps
            target.append(rc)
        out[tuple(target)] = sign * v
    return MultiForm(n, n - a.k, a.r, out, a.field)


def ref_contract(w):
    n = w.n
    if w.p == 0 or w.q == 0:
        return DoubleForm.zeros(n, max(w.p - 1, 0), max(w.q - 1, 0), w.field)
    mo = scalars.zeros((comb(n, w.p - 1), comb(n, w.q - 1)), w.field)
    rows = old_insertion_table(n, w.p)
    cols = old_insertion_table(n, w.q)
    m = w.mat
    for ri in range(mo.shape[0]):
        rins = rows[ri]
        for rj in range(mo.shape[1]):
            acc = mo[ri, rj]
            cins = cols[rj]
            for a, (sr, ra) in rins.items():
                hit = cins.get(a)
                if hit is None:
                    continue
                sc, ca = hit
                v = m[ra, ca]
                if v == 0:
                    continue
                acc += v if sr == sc else -v
            mo[ri, rj] = acc
    return DoubleForm(n, w.p - 1, w.q - 1, mo, w.field)


def ref_contract_with_metric(w, G):
    n = w.n
    Ginv = ref_invert_metric(G)
    if w.p == 0 or w.q == 0:
        return DoubleForm.zeros(n, max(w.p - 1, 0), max(w.q - 1, 0), w.field)
    mo = scalars.zeros((comb(n, w.p - 1), comb(n, w.q - 1)), w.field)
    rows = old_insertion_table(n, w.p)
    cols = old_insertion_table(n, w.q)
    m = w.mat
    for ri in range(mo.shape[0]):
        rins = rows[ri]
        for rj in range(mo.shape[1]):
            acc = mo[ri, rj]
            cins = cols[rj]
            for a, (sa, ra) in rins.items():
                for b, (sb, cb) in cins.items():
                    gi = Ginv[a, b]
                    if gi == 0:
                        continue
                    v = m[ra, cb]
                    if v == 0:
                        continue
                    acc += gi * v if sa == sb else -(gi * v)
            mo[ri, rj] = acc
    return DoubleForm(n, w.p - 1, w.q - 1, mo, w.field)


def ref_invert_metric(G):
    n = G.n
    M = G.mat
    if not np.all(M == M.T):
        raise ValueError("metric must be symmetric")
    if G.field == scalars.FLOAT64:
        a = M.astype(float).copy()
        inv = np.eye(n)
    else:
        a = np.empty((n, n), dtype=object)
        for idx, v in np.ndenumerate(M):
            a[idx] = Fraction(v)
        inv = np.zeros((n, n), dtype=object)
        for i in range(n):
            inv[i, i] = Fraction(1)
    for col in range(n):
        piv_row = max(range(col, n), key=lambda r: abs(a[r, col]))
        if a[piv_row, col] == 0:
            raise ValueError("metric is singular")
        if piv_row != col:
            a[[col, piv_row]] = a[[piv_row, col]]
            inv[[col, piv_row]] = inv[[piv_row, col]]
        piv = a[col, col]
        a[col] = a[col] / piv
        inv[col] = inv[col] / piv
        for r in range(n):
            if r != col and a[r, col] != 0:
                f = a[r, col]
                a[r] = a[r] - f * a[col]
                inv[r] = inv[r] - f * inv[col]
    return inv


# -- inputs ---------------------------------------------------------------------

def fill(out, seed, keep=None):
    """Fill out in place with seeded entries in [-3, 3], in float mode over 7.

    keep, when given, caps the number of filled entries: they go to seeded
    positions and the rest stay zero, so the input is sparse.
    """
    rng = SplitMix64(seed)
    flat = out.reshape(-1)
    positions = range(flat.size)
    if keep is not None and flat.size > keep:
        positions = sorted({rng.next_u64() % flat.size for _ in range(keep)})
    for i in positions:
        v = rng.next_entry()
        flat[i] = v if out.dtype == object else v / 7
    return out


def _keep(size, partner_size):
    if size * partner_size <= PAIR_BUDGET:
        return None
    return max(1, PAIR_BUDGET // partner_size)


def double_inputs(n, p, q, seed, field, partner_size):
    """Dense random, sparse random and zero (p, q) forms, and g^p if p = q.

    The dense form is thinned when the reference loops would pair each of
    its entries with more than PAIR_BUDGET entries of a dense partner.
    """
    shape = (comb(n, p), comb(n, q))
    dense = fill(scalars.zeros(shape, field), seed, _keep(math.prod(shape), partner_size))
    sparse = fill(scalars.zeros(shape, field), seed + 1, keep=2)
    forms = [DoubleForm(n, p, q, dense, field), DoubleForm(n, p, q, sparse, field),
             DoubleForm.zeros(n, p, q, field)]
    if p == q and p <= n:
        forms.append(metric_power(n, p, field))
    return forms


def slot_pairs(n):
    """Slot degrees (x, y) with x + y <= n + 1: every wedge that fits, and
    the first spillover degree past the top."""
    return [(x, y) for x in range(n + 2) for y in range(n + 2 - x)]


# the cold tables of the pfaffian_exterior benchmark workload: Pfaffians of
# 2-forms at n = 12 and 14 and of a 4-form at n = 12
PFAFFIAN_TABLES = [(12, p, 2) for p in range(2, 11, 2)] + [(12, 4, 4), (12, 8, 4)] \
    + [(14, p, 2) for p in range(2, 13, 2)]


def assert_same_table(n, p, q):
    for new, ref in zip(merge_table(n, p, q), ref_merge_table(n, p, q), strict=True):
        assert new.dtype == ref.dtype and new.shape == ref.shape, (n, p, q)
        assert np.array_equal(new, ref), (n, p, q)


@pytest.mark.parametrize("n", range(0, 11))
def test_merge_table_matches_loop(n):
    for p in range(n + 1):
        for q in range(n - p + 1):
            assert_same_table(n, p, q)


@pytest.mark.parametrize("n, p, q", PFAFFIAN_TABLES)
def test_merge_table_matches_loop_on_pfaffian_tables(n, p, q):
    assert_same_table(n, p, q)


def test_merge_table_matches_loop_at_n11():
    for p in range(12):
        for q in range(12 - p):
            assert_same_table(11, p, q)


# shapes at the largest dimension that the reference loop walks quickly: the
# index arithmetic and the sum of int8 indices must hold up to index 63
@pytest.mark.parametrize("p, q", [(1, 1), (2, 1), (0, 3), (62, 2), (63, 1)])
def test_merge_table_matches_loop_at_max_dim(p, q):
    assert_same_table(MAX_DIM, p, q)


def assert_same(new, ref, field):
    new = np.asarray(new, dtype=object if field == scalars.RATIONAL else float)
    ref = np.asarray(ref, dtype=new.dtype)
    assert new.shape == ref.shape
    if field == scalars.RATIONAL:
        assert bool(np.all(new == ref))
    elif ref.size:
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert float(np.max(np.abs(new - ref))) <= FLOAT_RTOL * scale


FIELDS = [scalars.RATIONAL, scalars.FLOAT64]


# -- double forms ---------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_wedge_matches_scatter_and_gather(n, field):
    pairs = slot_pairs(n)
    for i, (p1, p2) in enumerate(pairs):
        # every row-degree pair meets a rotating choice of column-degree
        # pairs; the column slot runs the same kernel as the row slot
        for (q1, q2) in pairs[i % 3::3] if n > 3 else pairs:
            if p1 > n or q1 > n or p2 > n or q2 > n:
                continue
            size2 = comb(n, p2) * comb(n, q2)
            for a in double_inputs(n, p1, q1, 17 * i + q1, field, size2):
                for b in double_inputs(n, p2, q2, 31 * i + q2, field, 1):
                    new = wedge(a, b)
                    assert (new.p, new.q) == (p1 + p2, q1 + q2)
                    assert_same(new.mat, ref_wedge(a, b, "scatter").mat, field)
                    if a.mat.size * b.mat.size <= PAIR_BUDGET:
                        assert_same(new.mat, ref_wedge(a, b, "gather").mat, field)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_hodge_matches_loop(n, field):
    for p in range(n + 2):
        for q in range(n + 2):
            for w in double_inputs(n, p, q, 13 * p + q, field, 1):
                new = hodge(w)
                ref = ref_hodge(w)
                assert (new.p, new.q) == (ref.p, ref.q)
                assert_same(new.mat, ref.mat, field)


# -- exterior forms and multiforms -------------------------------------------------

def form_inputs(n, k, seed, field):
    dense = ExteriorForm(n, k, fill(scalars.zeros(comb(n, k), field), seed), field)
    forms = [dense, ExteriorForm.zeros(n, k, field)]
    if k <= n:
        forms.append(ExteriorForm.unit(n, tuple(range(n - k, n)), field))
    return forms


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_wedge_form_and_hodge_form_match_loops(n, field):
    for x, y in slot_pairs(n):
        if x > n or y > n:
            continue
        for a in form_inputs(n, x, 3 * x + y, field):
            for b in form_inputs(n, y, 5 * y + x, field):
                new = wedge_form(a, b)
                assert new.k == x + y
                assert_same(new.coeffs, ref_wedge_form(a, b).coeffs, field)
    for k in range(n + 1):
        for a in form_inputs(n, k, 11 * k, field):
            assert_same(hodge_form(a).coeffs, ref_hodge_form(a).coeffs, field)
    with pytest.raises(ValueError):
        hodge_form(ExteriorForm.zeros(n, n + 1, field))


def multi_inputs(n, k, r, seed, field, partner_size):
    shape = (comb(n, k),) * r
    dense = fill(scalars.zeros(shape, field), seed, _keep(math.prod(shape), partner_size))
    sparse = fill(scalars.zeros(shape, field), seed + 1, keep=1)
    return [MultiForm(n, k, r, dense, field), MultiForm(n, k, r, sparse, field),
            MultiForm.zeros(n, k, r, field)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("n", DIMS)
def test_wedge_multi_and_hodge_multi_match_loops(n, r, field):
    for x, y in slot_pairs(n):
        if x > n or y > n:
            continue
        size_b = comb(n, y) ** r
        for a in multi_inputs(n, x, r, 3 * x + y, field, size_b):
            for b in multi_inputs(n, y, r, 5 * y + x, field, 1):
                new = wedge_multi(a, b)
                assert (new.k, new.r) == (x + y, r)
                assert_same(new.coeffs, ref_wedge_multi(a, b).coeffs, field)
    for k in range(n + 1):
        for a in multi_inputs(n, k, r, 11 * k, field, 1):
            assert_same(hodge_multi(a).coeffs, ref_hodge_multi(a).coeffs, field)


# -- the chunked wedge gather ----------------------------------------------------

def chunk_wedges(field):
    """Wedges of double, exterior and multi forms at n = 4, dense first
    factors among them, so the kernel splits their nonzeros into many
    chunks."""
    n, out = 4, []
    for x, y in [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)]:
        for a in double_inputs(n, x, y, 7 * x + y, field, 1):
            for b in double_inputs(n, y, x, 11 * y + x, field, 1):
                out.append(wedge(a, b))
        for a in form_inputs(n, x, 3 * x + y, field):
            for b in form_inputs(n, y, 5 * y + x, field):
                out.append(wedge_form(a, b))
        for r in (2, 3):
            for a in multi_inputs(n, x, r, 13 * x + y, field, 1):
                for b in multi_inputs(n, y, r, 17 * y + x, field, 1):
                    out.append(wedge_multi(a, b))
    return out


def same_bits(x, y):
    (a, da, _), (b, db, _) = x._lane(), y._lane()
    if type(x) is not type(y) or x._degs != y._degs or da != db:
        return False
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return [(type(v), v) for v in a.flat] == [(type(v), v) for v in b.flat]
    if a.dtype == np.float64:
        # a lane's -0.0 reads +0.0 at the edge; every other bit counts
        a, b = a + 0.0, b + 0.0
    return a.tobytes() == b.tobytes()


@pytest.mark.parametrize("lane", ["int64", "object", "float"])
def test_chunked_wedge_matches_one_gather(monkeypatch, lane):
    field = scalars.FLOAT64 if lane == "float" else scalars.RATIONAL
    if lane == "object":
        monkeypatch.setattr(dform, "LANE_BOUND", 0)
    chunks = []
    table_of = dform._wedge_table

    class Rows(np.ndarray):  # the kernel reads each chunk's rows of src once
        def __getitem__(self, rows):
            chunks.append(1)
            return np.asarray(self)[rows]

    def counting(n, da, db):
        src, tgt, neg = table_of(n, da, db)
        return src.view(Rows), tgt, neg

    monkeypatch.setattr(dform, "_wedge_table", counting)
    whole = chunk_wedges(field)  # WEDGE_CHUNK is far above every gather here
    one_gather = len(chunks)
    want = np.int64 if lane == "int64" else np.float64 if lane == "float" else object
    assert any(w._lane()[0].dtype == want for w in whole)
    for size in (1, 50):
        monkeypatch.setattr(dform, "WEDGE_CHUNK", size)
        chunks.clear()
        split = chunk_wedges(field)
        assert len(chunks) > one_gather
        assert len(split) == len(whole)
        for x, y in zip(split, whole):
            assert same_bits(x, y), (size, x)


def contracted_forms(field):
    """c(w) of the contract_inputs at n = 5, every p, q <= n + 1."""
    n = 5
    return [contract(w) for p in range(n + 2) for q in range(n + 2)
            for w in contract_inputs(n, p, q, 13 * p + q, field)]


@pytest.mark.parametrize("lane", ["int64", "object", "float"])
def test_chunked_contract_matches_one_gather(monkeypatch, lane):
    field = scalars.FLOAT64 if lane == "float" else scalars.RATIONAL
    if lane == "object":
        monkeypatch.setattr(dform, "LANE_BOUND", 0)
    whole = contracted_forms(field)  # WEDGE_CHUNK is far above every gather here
    want = np.int64 if lane == "int64" else np.float64 if lane == "float" else object
    assert any(w._lane()[0].dtype == want for w in whole)
    for size in (1, 50):
        monkeypatch.setattr(dform, "WEDGE_CHUNK", size)
        split = contracted_forms(field)
        assert len(split) == len(whole)
        for x, y in zip(split, whole):
            assert same_bits(x, y), (size, x)


def test_chunked_contract_holds_a_bounded_gather(monkeypatch):
    # a dense (5, 5) form at n = 10: one gather holds C(10, 4)^2 10 = 441000
    # entries, a chunk of one row 2100
    n, size = 10, comb(10, 5)
    w = DoubleForm(n, 5, 5, np.arange(size * size).reshape(size, size) % 7 - 3)
    whole, whole_peak = traced_peak(contract, w)
    monkeypatch.setattr(dform, "WEDGE_CHUNK", 1)
    split, split_peak = traced_peak(contract, w)
    assert same_bits(split, whole)
    assert whole_peak > 441000 * 8 and split_peak < whole_peak / 4, (whole_peak, split_peak)


# -- single-entry operands ------------------------------------------------------
#
# A wedge with a 0-form is a scalar multiple and the star of a form whose
# every slot degree is 0 or n keeps its one entry, so neither runs a gather.
# The references run the kernels as every such operation did before.

GATHER, STAR = dform._wedge, dform._star
WEDGES = {DoubleForm: wedge, ExteriorForm: wedge_form, MultiForm: wedge_multi}
HODGES = {DoubleForm: hodge, ExteriorForm: hodge_form, MultiForm: hodge_multi}


def no_kernel(*args):
    raise AssertionError("a single-entry operand started a gather kernel")


def gather_wedge(w1, w2):
    """w1 ^ w2 through the gather kernel, whatever the slot degrees.

    An exact wedge that runs no gather (a degree past n, or a zero factor)
    is the int64 zero form, as DoubleForm.zeros builds it.  A float zero
    factor is gathered."""
    n, d1, d2 = w1.n, w1._degs, w2._degs
    degs = tuple(x + y for x, y in zip(d1, d2))
    a, da, ma = w1._lane()
    b, db, mb = w2._lane()
    gather = max(degs) <= n and (w1.field == scalars.FLOAT64 or ma * mb != 0)
    dtype = dform._lane_dtype(w1.field, ma * mb * math.prod(map(comb, degs, d1)),
                              *((ma, mb) if gather else ()))
    out = np.zeros(dform._shape(n, degs), dtype=dtype)
    if gather:
        GATHER(n, dform._as(a, dtype), d1, dform._as(b, dtype), d2, out)
    return dform._form(type(w1), n, degs, w1.field, out, da * db)


def kernel_star(w):
    """The star of w through the star kernel."""
    n = w.n
    num, den, mag = w._lane()
    out = np.zeros(num.shape, dtype=num.dtype)
    STAR(n, num, w._degs, out)
    return dform._form(type(w), n, tuple(n - d for d in w._degs), w.field, out, den, mag)


def lane_form(cls, n, degs, values, field):
    return cls._built(n, degs, np.array(values, dtype=object if field == scalars.RATIONAL
                                        else np.float64), field)


def zero_form(like, v):
    """The form of like's type and slot count whose one value is v."""
    r = len(like._degs)
    return lane_form(type(like), like.n, (0,) * r,
                     np.full((1,) * r, scalars.coerce(v, like.field), dtype=object), like.field)


def zero_holding_forms(n, field, zero):
    """Double forms (one of them past n), exterior forms and multiforms of
    dimension n, about half their entries zero, stored as zero."""
    degrees = [(DoubleForm, (p, q)) for p, q in [(0, 0), (1, 0), (1, 2), (2, 2), (3, 1),
                                                 (n + 1, 1)]]
    degrees += [(ExteriorForm, (k,)) for k in range(n + 1)]
    degrees += [(MultiForm, (k,) * r) for k, r in [(0, 2), (1, 2), (2, 3)]]
    forms = []
    for seed, (cls, degs) in enumerate(degrees):
        shape = dform._shape(n, degs)
        values = fill(scalars.zeros(shape, field), seed, keep=max(1, math.prod(shape) // 2))
        if field == scalars.FLOAT64:
            values[values == 0] = zero
        forms.append(lane_form(cls, n, degs, values, field))
    return forms


@pytest.mark.parametrize("lane", ["int64", "object", "float"])
def test_zero_form_wedge_matches_the_gather(monkeypatch, lane):
    field = scalars.FLOAT64 if lane == "float" else scalars.RATIONAL
    bound = 1 << 62
    if lane == "object":
        monkeypatch.setattr(dform, "LANE_BOUND", 0)
    if field == scalars.FLOAT64:
        # 5e-324 times an entry below 1 underflows to a signed zero
        values = [0.0, -0.0, 1.0, -1.0, -2.5, 3 / 7, 5e-324, -5e-324]
        forms = [w for zero in (0.0, -0.0) for w in zero_holding_forms(3, field, zero)]
    else:
        values = [0, 1, -1, Fraction(-2, 3), bound - 1, -(bound + 1), Fraction(bound, 7)]
        forms = zero_holding_forms(3, field, 0)
        forms += [w * (1 << 61) for w in forms]
    monkeypatch.setattr(dform, "_wedge", no_kernel)
    dtypes = set()
    for w in forms:
        wedge_of = WEDGES[type(w)]
        # zero factors of degree 1 per slot: the wedge starts no gather,
        # and equals the gather bit for bit in every lane
        degs = (1,) * len(w._degs)
        zeros = [type(w)._zeros(w.n, degs, field)]
        if field == scalars.FLOAT64:
            zeros.append(lane_form(type(w), w.n, degs, np.full(dform._shape(w.n, degs), -0.0),
                                   field))
        for s in [zero_form(w, v) for v in values] + zeros:
            for x, y in ((s, w), (w, s)):
                new, ref = wedge_of(x, y), gather_wedge(x, y)
                assert same_bits(new, ref), (x, y)
                dtypes.add(new._lane()[0].dtype)
    want = {"int64": {np.dtype(np.int64), np.dtype(object)}, "object": {np.dtype(object)},
            "float": {np.dtype(np.float64)}}[lane]
    assert dtypes == want


def test_wedge_with_no_gather_is_the_int64_zero(monkeypatch):
    """An exact zero factor, or a degree past n, gives DoubleForm.zeros,
    whatever the magnitude of the other factor."""
    monkeypatch.setattr(dform, "_wedge", no_kernel)
    big = DoubleForm(3, 1, 1, np.full((3, 3), (1 << 62) + 1, dtype=object))
    assert big._lane()[0].dtype == object
    for x, y in ((DoubleForm.zeros(3, 1, 1), big), (big, DoubleForm.zeros(3, 2, 1)),
                 (big, DoubleForm(3, 3, 0, [[1]]))):
        out = wedge(x, y)
        p, q = x.p + y.p, x.q + y.q
        assert same_bits(out, DoubleForm.zeros(3, p, q)), (x, y)
        assert out._lane()[0].dtype == np.int64


def single_entry_forms(n, field, entries):
    """Every double form of dimension n with slot degrees 0 or n, the
    exterior forms of degree 0 and n and the multiforms of 1 to 3 such
    slots, one of each per entry value."""
    tops = sorted({0, n})
    degrees = [(DoubleForm, (p, q)) for p in tops for q in tops]
    degrees += [(ExteriorForm, (k,)) for k in tops]
    degrees += [(MultiForm, (k,) * r) for k in tops for r in (1, 2, 3)]
    return [lane_form(cls, n, degs, np.full((1,) * len(degs), v, dtype=object), field)
            for v in entries for cls, degs in degrees]


@pytest.mark.parametrize("lane", ["int64", "object", "float"])
@pytest.mark.parametrize("n", range(0, 5))
def test_single_entry_star_matches_the_kernel(monkeypatch, n, lane):
    if lane == "float":
        field, entries = scalars.FLOAT64, [0.0, -0.0, 3.0, -3.0, -2 / 3, 2.0 ** 70]
    else:
        field, entries = scalars.RATIONAL, [0, 3, -3, Fraction(-2, 3), 2 ** 70, -(2 ** 70) - 1]
    if lane == "object":
        monkeypatch.setattr(dform, "LANE_BOUND", 0)
    monkeypatch.setattr(dform, "_star", no_kernel)
    forms = single_entry_forms(n, field, entries)
    for w in forms:
        new, ref = HODGES[type(w)](w), kernel_star(w)
        assert same_bits(new, ref), (w, w._lane()[0])
        assert new._lane()[0].dtype == w._lane()[0].dtype and new._den == w._den
    dtypes = {w._lane()[0].dtype for w in forms}
    assert dtypes == {"int64": {np.dtype(np.int64), np.dtype(object)},
                      "object": {np.dtype(object)}, "float": {np.dtype(np.float64)}}[lane]


# -- contractions -------------------------------------------------------------------

def contract_inputs(n, p, q, seed, field):
    """double_inputs, and in exact mode a dense form of Fraction entries."""
    forms = double_inputs(n, p, q, seed, field, 1)
    if field == scalars.RATIONAL:
        dense = fill(scalars.zeros((comb(n, p), comb(n, q)), field), seed + 2)
        for i, v in enumerate(dense.flat):
            dense.flat[i] = Fraction(v, 1 + i % 5)
        forms.append(DoubleForm(n, p, q, dense, field))
    return forms


def random_metric(n, seed, field, fractions):
    """A seeded invertible symmetric (1, 1) form with entries in [-3, 3]
    (over 1..4 when fractions is set).  Singular draws are skipped, after
    checking that both inverses refuse them."""
    while True:
        m = scalars.zeros((n, n), field)
        rng = SplitMix64(seed)
        for i in range(n):
            for j in range(i, n):
                v = rng.next_entry()
                if fractions:
                    v = Fraction(v, 1 + rng.next_u64() % 4)
                m[i, j] = m[j, i] = scalars.coerce(v, field)
        G = DoubleForm(n, 1, 1, m, field)
        try:
            ref_invert_metric(G)
        except ValueError:
            with pytest.raises(ValueError):
                _invert_metric(G)
            seed += 1000
            continue
        return G


def unit_metric(n, field):
    """g, also at n = 0, where it is the empty (1, 1) form."""
    return metric(n, field) if n else DoubleForm.zeros(0, 1, 1, field)


def swapped_metric(n, field, pairs):
    """The permutation metric swapping each (a, b) in pairs, the identity
    elsewhere: a zero leading pivot that forces a row swap."""
    m = unit_metric(n, field).mat.copy()
    for a, b in pairs:
        m[a, a] = m[b, b] = scalars.coerce(0, field)
        m[a, b] = m[b, a] = scalars.coerce(1, field)
    return DoubleForm(n, 1, 1, m, field)


def metric_inputs(n, field):
    g = unit_metric(n, field)
    out = [g, g * Fraction(7, 3), random_metric(n, 5 * n, field, False)]
    if field == scalars.RATIONAL:
        out.append(random_metric(n, 5 * n + 1, field, True))
    if n >= 2:
        out.append(swapped_metric(n, field, [(0, 1)]))
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_contract_matches_loop(n, field):
    # p or q = n + 1 is the spillover bidegree a wedge past the top returns
    for p in range(n + 2):
        for q in range(n + 2):
            for w in contract_inputs(n, p, q, 7 * p + q, field):
                new = contract(w)
                ref = ref_contract(w)
                assert (new.p, new.q) == (ref.p, ref.q)
                assert_same(new.mat, ref.mat, field)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", DIMS)
def test_contract_with_metric_matches_loop(n, field):
    metrics = metric_inputs(n, field)
    for G in metrics:
        assert_same(_invert_metric(G).mat, ref_invert_metric(G), field)
    for p in range(n + 2):
        for q in range(n + 2):
            inputs = contract_inputs(n, p, q, 11 * p + q, field)
            for i, w in enumerate(inputs):
                # above n = 4 each input meets one metric, rotating over
                # (p, q), to bound the reference loops' time
                chosen = metrics if n <= 4 else [metrics[(p + q + i) % len(metrics)]]
                for G in chosen:
                    new = contract_with_metric(w, G)
                    ref = ref_contract_with_metric(w, G)
                    assert (new.p, new.q) == (ref.p, ref.q)
                    assert_same(new.mat, ref.mat, field)


@pytest.mark.parametrize("field", FIELDS)
def test_invert_metric_matches_gauss_jordan(field):
    for n in range(0, 9):
        metrics = metric_inputs(n, field)
        # the anti-diagonal permutation: a zero pivot in each of the
        # first n // 2 columns
        metrics.append(swapped_metric(n, field, [(a, n - 1 - a) for a in range(n // 2)]))
        metrics += [random_metric(n, seed, field, fractions)
                    for seed in range(3) for fractions in (False, True)]
        for G in metrics:
            inv = _invert_metric(G)
            assert inv.bidegree == (1, 1) and inv.field == field
            assert_same(inv.mat, ref_invert_metric(G), field)
            if field == scalars.RATIONAL:
                assert all(type(v) in (int, Fraction) for v in inv.mat.flat)


@pytest.mark.parametrize("field", FIELDS)
def test_invert_metric_refuses_bad_metrics(field):
    n = 4
    skew = random_metric(n, 1, field, False).mat.copy()
    skew[0, 1] = skew[0, 1] + 1
    singular = metric(n, field).mat.copy()
    singular[2, 3] = singular[3, 2] = scalars.coerce(1, field)
    singular[3, 3] = scalars.coerce(1, field)  # rows 2 and 3 agree
    skew, singular = (DoubleForm(n, 1, 1, m, field) for m in (skew, singular))
    for G in (skew, singular, DoubleForm.zeros(n, 1, 1, field)):
        with pytest.raises(ValueError):
            ref_invert_metric(G)
        with pytest.raises(ValueError):
            _invert_metric(G)
        with pytest.raises(ValueError):
            contract_with_metric(metric_power(n, 2, field), G)


def ref_bareiss_inverse(G):
    """The fraction-free inverse, as _invert_metric ran it before its loop
    became _eliminate's; an exact form's inverse as its lane."""
    n = G.n
    S, s, _ = G._lane()
    if not np.array_equal(S, S.T):
        raise ValueError("metric must be symmetric")
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(S.tolist())]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            raise ValueError("metric is singular")
        a[k], a[piv] = a[piv], a[k]
        ak, akk = a[k], a[k][k]
        for i in range(n):
            if i != k:
                ai, aik = a[i], a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(ai, ak)]
        prev = akk
    s = s if prev > 0 else -s
    flat = [s * x for row in a for x in row[n:]]
    mag = max(map(abs, flat), default=0)
    num = np.array(flat, dtype=dform._lane_dtype(scalars.RATIONAL, mag)).reshape(n, n)
    return dform._form(DoubleForm, n, (1, 1), scalars.RATIONAL, num, abs(prev), mag)._lane()


def determinant_inputs(n):
    """Exact (1, 1) forms: general and symmetric, with denominators, an
    object lane of entries about 2^40, and singular ones."""
    from dfalg.fixtures import random_bilinear, rank_one_bilinear

    forms = [random_bilinear(n, 60 + n, kind) for kind in ("general", "symmetric")]
    forms += [f * Fraction(5, 3) for f in forms]
    forms += [random_metric(n, 5 * n + 1, scalars.RATIONAL, True), swapped_metric(
        n, scalars.RATIONAL, [(a, n - 1 - a) for a in range(n // 2)])]
    big = forms[1].mat * 2 ** 40 + np.eye(n, dtype=object)
    forms.append(dform._form(DoubleForm, n, (1, 1), scalars.RATIONAL,
                             np.array(big, dtype=object), 1))
    forms += [DoubleForm.zeros(n, 1, 1), rank_one_bilinear(n, 80 + n)]
    if n >= 2:
        # rows 0 and 1 agree, so the second column runs out of pivots
        equal = forms[1].mat.copy()
        equal[1] = equal[0]
        forms.append(DoubleForm(n, 1, 1, equal))
    return forms


@pytest.mark.parametrize("n", DIMS)
def test_determinant_matches_s_n_and_oracle(n):
    from dfalg.invariants import _det_bilinear, s_k

    forms = determinant_inputs(n)
    assert forms[6]._lane()[0].dtype == object
    for G in forms:
        want = oracle.det_oracle(G.mat)
        got = _det_bilinear(G)
        assert got == want == s_k(G, n)
        assert type(got) in (int, Fraction)
        F = G.astype(scalars.FLOAT64)
        assert _det_bilinear(F) == pytest.approx(float(want), rel=1e-9, abs=1e-9)
        try:
            ref = ref_bareiss_inverse(G)
        except ValueError:
            with pytest.raises(ValueError):
                _invert_metric(G)
            with pytest.raises(ValueError):
                _invert_metric(F)
            continue
        assert want != 0
        num, den, mag = _invert_metric(G)._lane()
        assert num.dtype == ref[0].dtype and np.array_equal(num, ref[0])
        assert (den, mag) == ref[1:]
        assert np.array_equal(_invert_metric(F).mat, ref_invert_metric(F))


def test_contract_matches_oracle():
    for n in range(0, 6):
        for p in range(n + 1):
            for q in range(n + 1):
                for w in contract_inputs(n, p, q, 3 * p + q, scalars.RATIONAL):
                    assert contract(w) == oracle.contract_oracle(w)


def test_exact_contractions_hold_python_scalars():
    # a numpy integer among the entries (from np.pad, say) would poison
    # every later product with fixed-width arithmetic
    for n in range(1, 6):
        metrics = metric_inputs(n, scalars.RATIONAL)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                for w in contract_inputs(n, p, q, 5 * p + q, scalars.RATIONAL):
                    outs = [contract(w)] + [contract_with_metric(w, G) for G in metrics]
                    for out in outs:
                        assert all(type(v) in (int, Fraction) for v in out.mat.flat)


# -- float zeros -------------------------------------------------------------------

@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_float_stars_write_no_negative_zeros(zero):
    f = scalars.FLOAT64
    for n in range(1, 7):
        for k in range(n + 1):
            v = scalars.zeros((comb(n, k), comb(n, n - k)), f)
            c = scalars.zeros(comb(n, k), f)
            mc = scalars.zeros((comb(n, k),) * 3, f)
            for seed, arr in enumerate((v, c, mc)):
                fill(arr, 3 * n + k + seed, keep=max(1, arr.size // 2))
                arr[arr == 0] = zero
            w = DoubleForm(n, k, n - k, v, f)
            a, m = ExteriorForm(n, k, c, f), MultiForm(n, k, 3, mc, f)
            for out in (hodge(w).mat, hodge_form(a).coeffs, hodge_multi(m).coeffs):
                assert not np.any(np.signbit(out) & (out == 0))


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_float_contractions_write_no_negative_zeros(zero):
    f = scalars.FLOAT64
    for n in range(1, 7):
        metrics = metric_inputs(n, f)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                shape = (comb(n, p), comb(n, q))
                half = fill(scalars.zeros(shape, f), 7 * n + 3 * p + q,
                            keep=max(1, math.prod(shape) // 2))
                for v in (half, scalars.zeros(shape, f)):
                    v[v == 0] = zero
                    w = DoubleForm(n, p, q, v, f)
                    outs = [contract(w)] + [contract_with_metric(w, G) for G in metrics]
                    for out in outs:
                        assert not np.any(np.signbit(out.mat) & (out.mat == 0))


# The read-out rule: a float lane may hold -0.0, but no value read out of a
# form, through mat, coeffs, entry, scalar or coeff, is -0.0.

SIGNED = [-0.0, -1.5, 0.0, 2.0, -0.0, 0.5, -2.0]


def signed_values(shape, seed):
    """A float64 array of the given shape cycling through SIGNED from seed."""
    size = math.prod(shape)
    return np.array([SIGNED[(i + seed) % len(SIGNED)] for i in range(size)]).reshape(shape)


def values_read(w):
    """Every value read out of w: its whole array, then entry by entry."""
    n = w.n
    if isinstance(w, DoubleForm):
        vals = list(w.mat.flat)
        vals += [w.entry(I, J) for I in subsets(n, w.p) for J in subsets(n, w.q)]
        if w.bidegree == (0, 0):
            vals.append(w.scalar())
    elif isinstance(w, ExteriorForm):
        vals = list(w.coeffs.flat) + [w.coeff(I) for I in subsets(n, w.k)]
    else:
        vals = list(w.coeffs.flat)
        vals += [w.entry(slots) for slots in itertools.product(subsets(n, w.k), repeat=w.r)]
    return vals


def float_results(n):
    """Float forms of dimension n from every operation, their inputs
    holding +-0.0 and negative entries."""
    F = scalars.FLOAT64
    bideg = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    ds = [DoubleForm(n, p, q, signed_values((comb(n, p), comb(n, q)), i), F)
          for i, (p, q) in enumerate(bideg)]
    outs = list(ds)
    outs += [DoubleForm.zeros(n, 1, 1, F), -DoubleForm.zeros(n, 1, 1, F),
             DoubleForm.from_entries(n, 0, 0, {((), ()): -0.0}, F)]
    for a in ds:
        b = DoubleForm(n, a.p, a.q, signed_values(a.mat.shape, 3), F)
        outs += [-a, a * -1, a * 0.0, -2.0 * a, a + b, a - b, (-a) + (-a), a - a,
                 hodge(a), transpose(a), contract(a)]
        outs += [contract_with_metric(a, G) for G in metric_inputs(n, F)]
        outs += [compose(a, c) for c in ds] + [wedge(a, c) for c in ds if a.p + c.p <= n]
    es = [ExteriorForm(n, k, signed_values((comb(n, k),), k), F) for k in range(n + 1)]
    outs += es + [ExteriorForm.zeros(n, 1, F), ExteriorForm.unit(n, (), F) * -0.0,
                  ExteriorForm.from_coeffs(n, 0, {(): -0.0}, F)]
    for a in es:
        outs += [-a, a * -1, hodge_form(a)] + [wedge_form(a, b) for b in es]
        outs += [pfaffian.embed(a, r) for r in (2, 3) if a.k % r == 0]
    for k in range(n + 1):
        ms = [MultiForm(n, k, r, signed_values((comb(n, k),) * r, r), F) for r in (1, 2, 3)]
        ms.append(MultiForm.from_slots([es[k], -es[k], es[k]]))
        outs += ms + [MultiForm.zeros(n, k, 2, F)]
        for a in ms:
            outs += [-a, a * -1, hodge_multi(a)]
            outs += [wedge_multi(a, b) for b in ms if b.r == a.r]
    return outs


@pytest.mark.parametrize("n", range(0, 4))
def test_no_float_value_reads_negative_zero(n):
    outs = float_results(n)
    negative = [w for w in outs if any(v == 0 and math.copysign(1, v) < 0 for v in values_read(w))]
    assert negative == []
    if n:  # the lanes do hold -0.0, so the rule is what keeps it in
        assert any(np.signbit(w._lane()[0][w._lane()[0] == 0]).any() for w in outs)


# -- the integer lane ------------------------------------------------------------
#
# The exact operations below ran entry by entry on int and Fraction values
# before the integer lane; those versions are kept as the references.  The
# inputs pair each form with its entries computed independently, so no
# reference reads a lane through the code under test.

def old_mul(v, s):
    return v * s


def old_compose(v1, v2):
    """M(w2) . M(w1) over values, for degrees that meet."""
    return v2.dot(v1)


def old_inner(v1, v2):
    acc = 0
    for x, y in zip(v1.flat, v2.flat):
        if x != 0 and y != 0:
            acc += x * y
    return acc


def old_max_abs(v):
    if v.size == 0:
        return 0
    return max(abs(x) for x in v.flat)


def old_integer_scaled(mat):
    flat = mat.reshape(-1)
    den = math.lcm(*(v.denominator for v in flat))
    ints = np.array([v.numerator * (den // v.denominator) for v in flat], dtype=object)
    return ints.reshape(mat.shape), den


def old_contract(n, p, q, v, Ginv):
    """The gather contraction over values scaled to ints, divided per entry."""
    out = np.zeros((comb(n, max(p - 1, 0)), comb(n, max(q - 1, 0))), dtype=object)
    if p == 0 or q == 0:
        return out
    rp, negp = insertion_table(n, p)
    rq, negq = insertion_table(n, q)
    m, den = old_integer_scaled(v)
    pad = np.zeros((m.shape[0] + 1, m.shape[1] + 1), dtype=object)
    pad[:-1, :-1] = m
    if Ginv is None:
        x = pad[rp[:, None, :], rq[None, :, :]]
        neg = negp[:, None, :] ^ negq[None, :, :]
        x[neg] = -x[neg]
        res = x.sum(axis=2)
    else:
        x = pad[rp[:, :, None, None], rq[None, None, :, :]]
        neg = negp[:, :, None, None] ^ negq[None, None, :, :]
        x[neg] = -x[neg]
        A, den_g = old_integer_scaled(Ginv)
        den *= den_g
        res = np.tensordot(x, A, axes=([1, 3], [0, 1]))
    nz = np.nonzero(res)
    vals = res[nz]
    if den != 1:
        vals = np.array([Fraction(v, den) for v in vals], dtype=object)
    out[nz] = vals
    return out


R = scalars.RATIONAL
# scalars for the multiply test: zero, units, ints, Fractions such as the
# 1/k! normalisations, and multipliers that keep or leave the int64 lane
LANE_SCALARS = [0, 1, -1, 3, Fraction(2, 9), Fraction(-7, 3), Fraction(1, 720),
                2 ** 40, -(2 ** 61), Fraction(2 ** 70, 3)]


def lane_inputs(n, p, q, seed):
    """(form, values) pairs of exact (p, q) inputs.

    Value-built: dense int, sparse, dense Fraction and zero.  Built by an
    operation, so they hold a lane: g^p, a Fraction lane with den 7, and
    int lanes with magnitudes near 2^42 (int64) and 2^72 (object).
    """
    dense = fill(np.zeros((comb(n, p), comb(n, q)), dtype=object), seed)
    sparse = fill(np.zeros_like(dense), seed + 1, keep=2)
    fracs = dense.copy()
    for i, v in enumerate(fracs.flat):
        fracs.flat[i] = Fraction(v, 1 + i % 5)
    out = [(DoubleForm(n, p, q, v), v) for v in (dense, sparse, fracs, np.zeros_like(dense))]
    if p == q <= n:
        g = np.zeros_like(dense)
        for i in range(g.shape[0]):
            g[i, i] = math.factorial(p)
        out.append((metric_power(n, p), g))
    for s in (Fraction(3, 7), 2 ** 40, 2 ** 70):
        out.append((DoubleForm(n, p, q, dense) * s, old_mul(dense, s)))
    return out


def lane_bidegrees(n):
    """Every (p, q) up to the first spillover at n <= 4, a third above."""
    pairs = [(p, q) for p in range(n + 2) for q in range(n + 2)]
    return pairs if n <= 4 else [(p, q) for p, q in pairs if (p + 2 * q + n) % 3 == 0]


def assert_lane(form, values):
    """form holds values, in a canonical lane, and reads back as Python values."""
    num, den, mag = form._lane()
    assert num.dtype in (np.int64, object)
    assert type(den) is int and den >= 1
    assert math.gcd(den, *(int(v) for v in num.flat)) == 1
    assert mag == max((abs(int(v)) for v in num.flat), default=0)
    mat = form.mat if isinstance(form, DoubleForm) else form.coeffs
    assert all(type(v) in (int, Fraction) for v in mat.flat)
    assert mat.shape == values.shape and bool(np.all(mat == values))


@pytest.mark.parametrize("n", DIMS)
def test_lane_unary_operations_match_fraction_path(n):
    for p, q in lane_bidegrees(n):
        for w, v in lane_inputs(n, p, q, 7 * p + q):
            for s in LANE_SCALARS:
                assert_lane(w * s, old_mul(v, s))
                assert_lane(s * w, old_mul(v, s))
            assert_lane(-w, -v)
            assert_lane(w, v)
            assert_lane(transpose(w), v.T)
            assert w.max_abs() == old_max_abs(v)
            assert w.is_zero() == all(x == 0 for x in v.flat)
            if v.size:
                I, J = subsets(n, p)[-1], subsets(n, q)[0]
                assert w.entry(I, J) == v[-1, 0]
                assert type(w.entry(I, J)) in (int, Fraction)
            if (p, q) == (0, 0):
                assert w.scalar() == v[0, 0] and type(w.scalar()) in (int, Fraction)
            assert_lane(hodge(w), ref_hodge(DoubleForm(n, p, q, v)).mat)
            assert_lane(contract(w), old_contract(n, p, q, v, None))


def lane_pairs(n, left, right):
    """Every pair up to n = 5; above, each left input meets three partners."""
    if n <= 5:
        return itertools.product(left, right)
    return [(a, right[(i + k) % len(right)]) for i, a in enumerate(left) for k in range(3)]


@pytest.mark.parametrize("n", DIMS)
def test_lane_binary_operations_match_fraction_path(n):
    for p, q in lane_bidegrees(n):
        left = lane_inputs(n, p, q, 3 * p + q)
        right = lane_inputs(n, p, q, 5 * q + p)
        flipped = lane_inputs(n, q, p, 11 * p + q)
        for (a, va), (b, vb) in lane_pairs(n, left, right):
            assert_lane(a + b, va + vb)
            assert_lane(a - b, va - vb)
            assert a == DoubleForm(n, p, q, va)
            assert (a == b) == bool(np.all(va == vb))
            got = inner(a, b)
            assert got == old_inner(va, vb) and type(got) in (int, Fraction)
        for (a, va), (b, vb) in lane_pairs(n, left, flipped):
            # (p, q) after (q, p) is a (q, q) form; the other order a (p, p)
            assert_lane(compose(a, b), old_compose(va, vb))
            assert_lane(compose(b, a), old_compose(vb, va))
        # degrees that do not meet compose to zero
        if p != q:
            a, _ = left[0]
            assert_lane(compose(a, a), np.zeros((comb(n, p), comb(n, q)), dtype=object))


@pytest.mark.parametrize("n", DIMS)
def test_lane_wedge_and_metric_contraction_match_fraction_path(n):
    metrics = metric_inputs(n, R)
    for p, q in lane_bidegrees(n):
        inputs = lane_inputs(n, p, q, 13 * p + q)
        for i, (w, v) in enumerate(inputs):
            G = metrics[(p + q + i) % len(metrics)]
            Ginv = ref_invert_metric(G)
            assert_lane(contract_with_metric(w, G), old_contract(n, p, q, v, Ginv))
        # each input meets one partner, rotating over the bidegrees
        x, y = (p + 1) % 2, q % 2
        partners = lane_inputs(n, x, y, 17 * p + q)
        for i, (a, va) in enumerate(inputs):
            b, vb = partners[(i + p) % len(partners)]
            ref = ref_wedge(DoubleForm(n, p, q, va), DoubleForm(n, x, y, vb), "scatter")
            assert_lane(wedge(a, b), ref.mat)


def test_lane_power_sums_and_composition_powers_match_dot_loops():
    for n in range(0, 6):
        for h, v in lane_inputs(n, 1, 1, 40 + n):
            acc = np.eye(n, dtype=int).astype(object)
            traces = []
            for r in range(4):
                assert_lane(compose_power(h, r), acc)
                if r:
                    traces.append(sum(acc[i, i] for i in range(n)))
                acc = acc.dot(v)
            assert power_sums(h, 3) == traces


# -- the int64 bound ---------------------------------------------------------------

BOUND = 1 << 62


def one_entry(n, p, q, value, at=(0, 0)):
    """A value-built (p, q) form with one nonzero entry."""
    v = np.zeros((comb(n, p), comb(n, q)), dtype=object)
    v[at] = value
    return DoubleForm(n, p, q, v)


def lane_dtype(form):
    return form._lane()[0].dtype


def bound_cases():
    """(name, operation, lane of the result) on both sides of the bound.

    Each bound is the input magnitudes times the terms summed into one
    entry; every true value stays below 2^63, so a wrong lane would still
    compute in range and only the lane check can tell.  The sum has its
    own test below; an inner product returns a Python int either way.
    """
    cases = []
    for side, k in (("below", -1), ("at", 0)):
        want = np.int64 if k < 0 else object
        # wedge of two (1, 0) forms at n = 2: C(2, 1) C(0, 0) = 2 terms
        a, b = one_entry(2, 1, 0, 2 ** 30), one_entry(2, 1, 0, 2 ** 31 + k, (1, 0))
        cases.append((f"wedge {side}", lambda a=a, b=b: wedge(a, b), want))
        # compose of (1, 1) forms at n = 2: C(2, 1) = 2 terms
        a, b = one_entry(2, 1, 1, 2 ** 30), one_entry(2, 1, 1, 2 ** 31 + k)
        cases.append((f"compose {side}", lambda a=a, b=b: compose(a, b), want))
        # contraction of a (1, 1) form at n = 2: n = 2 terms
        a = one_entry(2, 1, 1, 2 ** 61 + k)
        cases.append((f"contract {side}", lambda a=a: contract(a), want))
        # metric contraction at n = 2: n^2 = 4 terms; (2g)^-1 = g/2 has |num| = 1
        a, G = one_entry(2, 1, 1, 2 ** 60 + k), metric(2) * 2
        cases.append((f"contract_with_metric {side}",
                      lambda a=a, G=G: contract_with_metric(a, G), want))
        # scalar multiple: |a| x
        a = one_entry(2, 1, 1, 2 ** 31)
        cases.append((f"mul {side}", lambda a=a, k=k: a * (2 ** 31 + k), want))
        # a value-built form is read into int64 below the bound
        cases.append((f"read {side}", lambda k=k: one_entry(2, 1, 1, 2 ** 62 + k), want))
    return cases


@pytest.mark.parametrize("name, op, want", bound_cases(),
                         ids=[c[0] for c in bound_cases()])
def test_lane_bound_picks_int64_below_and_object_at_the_bound(name, op, want):
    out = op()
    assert lane_dtype(out) == want
    values = out.mat
    assert all(type(v) in (int, Fraction) for v in values.flat)


def test_lane_bound_sum_sits_on_both_sides():
    # a / 5 + b / 3 runs over the denominator 15 as 3 a + 5 b, whose bound
    # crosses 2^62 between the two values of b
    a = one_entry(2, 1, 1, Fraction(2 ** 60 + 1, 5))
    for extra, want in ((0, np.int64), (1, object)):
        top = (BOUND - 3 * (2 ** 60 + 1)) // 5 + extra
        while math.gcd(top, 3) != 1:
            top += 1 if extra else -1
        b = one_entry(2, 1, 1, Fraction(top, 3), (1, 1))
        s = a + b
        assert (3 * (2 ** 60 + 1) + 5 * top < BOUND) == (want is np.int64)
        assert lane_dtype(s) == want
        assert s.entry((0,), (0,)) == Fraction(2 ** 60 + 1, 5)
        assert s.entry((1,), (1,)) == Fraction(top, 3)


def test_lane_cancels_to_the_zero_form():
    # a denominator far past int64 on int64 numerators, cancelled by a sum
    for n in range(1, 5):
        w = random_lane_form(n) * Fraction(1, 3 ** 50)
        zero = np.zeros((n, n), dtype=object)
        for z in (w - w, w + (-w), w * 0, contract(wedge(w, w - w))):
            assert_lane(z, zero)
            assert z._lane()[1] == 1 and z.is_zero() and z.max_abs() == 0


def test_int64_and_object_lanes_agree(monkeypatch):
    # the same operations with every lane forced to Python ints
    def run():
        out = []
        for n in range(0, 6):
            h = lane_inputs(n, 1, 1, 50 + n)
            Rf = lane_inputs(n, 2, 2, 60 + n)
            G = metric_inputs(n, R)[-1]
            for (a, _), (b, _) in zip(h, h[1:] + h[:1]):
                out += [wedge(a, b), a + b, a - b, a * Fraction(5, 6), compose(a, b),
                        contract(a), contract_with_metric(a, G), hodge(a), inner(a, b)]
            for (a, _), (b, _) in zip(Rf, Rf[1:] + Rf[:1]):
                out += [wedge(a, b), contract(contract(wedge(a, b))), hodge(a - b),
                        compose(a, b), inner(a, b), a.max_abs()]
        return out

    fast = run()
    assert any(isinstance(w, DoubleForm) and lane_dtype(w) == np.int64 for w in fast)
    monkeypatch.setattr(dform, "LANE_BOUND", 0)
    slow = run()
    assert all(lane_dtype(w) == object for w in slow if isinstance(w, DoubleForm))
    assert len(fast) == len(slow)
    for x, y in zip(fast, slow):
        if isinstance(x, DoubleForm):
            assert x._lane()[1] == y._lane()[1] and x == y
            assert bool(np.all(x.mat == y.mat))
        else:
            assert x == y and type(x) is type(y)


# -- one storage -------------------------------------------------------------------

def construction_routes(field):
    """Forms of field made by every route: the constructor, zeros,
    from_entries, each operation, the fixtures, a tensor load, an
    embedded exterior form, the oracles and the power memo."""
    from dfalg import tensorio

    n = 4
    v = fill(scalars.zeros((n, n), field), 90)
    h = DoubleForm(n, 1, 1, v, field)
    G = fixtures.random_bilinear(n, 91, "symmetric", field) + metric(n, field) * 20
    B = fixtures.random_bianchi(n, 2, 2, 92, field=field)
    forms = [h, G, B, DoubleForm.zeros(n, 2, 1, field),
             DoubleForm.from_entries(n, 1, 2, {((0,), (1, 2)): 3}, field),
             wedge(h, h), contract(B), contract_with_metric(B, G), hodge(B),
             compose(h, h), compose_power(h, 2), transpose(h), h + h, h - G, -h,
             h * 3, 3 * h, metric_power(n, 2, field),
             metric_power(n, 2, field).astype(scalars.FLOAT64 if field == R else R),
             dform._invert_metric(G),
             fixtures.random_bilinear(n, 93, "general", field),
             fixtures.random_bilinear(n, 94, "skew", field),
             fixtures.rank_one_bilinear(n, 95, field), fixtures.jordan_block(n, field),
             fixtures.constant_curvature(n, 1, field),
             tensorio.tensor_from_doc(tensorio.tensor_to_doc(B)),
             pfaffian.embed(fixtures.random_form(n, 2, 98, field), 2),
             oracle.contract_oracle(h), oracle.hodge_oracle(h)]
    with dform.power_memo():
        forms += [dform.metric_wedge_power(h, 1, 2), dform.wedge_power(h, 3)]
    if field == R:
        forms.append(h * Fraction(1, 3))
    return forms


@pytest.mark.parametrize("field", FIELDS)
def test_mat_is_read_only_on_every_route(field):
    for w in construction_routes(field):
        m = w.mat
        assert not m.flags.writeable and m.dtype == (object if w.field == R else float)
        if m.size:
            with pytest.raises(ValueError):
                m[0, 0] = 1
            with pytest.raises(ValueError):
                m += 1
        assert w.mat is m


@pytest.mark.parametrize("field", FIELDS)
def test_changing_the_callers_array_does_not_change_the_form(field):
    v = fill(scalars.zeros((4, 6), field), 96)
    v[0, 0] = scalars.coerce(Fraction(5, 2) if field == R else 2, field)
    before = v.copy()
    w = DoubleForm(4, 1, 2, v, field)
    v[0, 0] = v[1, 1] = scalars.coerce(99, field)
    v[:, 2] = 0
    assert bool(np.all(w.mat == before)) and w == DoubleForm(4, 1, 2, before, field)
    assert contract(w) == ref_contract(DoubleForm(4, 1, 2, before, field))


def test_value_built_form_is_read_once(monkeypatch):
    calls = []
    lane_of = dform._lane_of

    def counted(mat):
        calls.append(mat.shape)
        return lane_of(mat)

    monkeypatch.setattr(dform, "_lane_of", counted)
    v = fill(np.zeros((4, 4), dtype=object), 97)
    v[0, 1] = Fraction(1, 3)
    w = DoubleForm(4, 1, 1, v)
    assert calls == [(4, 4)]
    g = metric(4)
    wedge(w, w), wedge(w, g), contract(w), contract_with_metric(w, g * 2), w + w, w - g
    w.mat, hodge(w), inner(w, w), w.max_abs(), w.entry((0,), (1,))
    assert w == w and w != g
    assert calls == [(4, 4)]


def random_lane_form(n):
    """A (1, 1) form held in the lane, with a Fraction denominator."""
    v = fill(np.zeros((n, n), dtype=object), 77 + n)
    return DoubleForm(n, 1, 1, v) * Fraction(2, 3)


# -- exterior forms and multiforms in the lane --------------------------------------

def fractions_of(forms):
    """The exact forms with entry i divided by 1 + i % 5."""
    out = []
    for f in forms:
        v = f.coeffs.copy()
        for i, x in enumerate(v.flat):
            v.flat[i] = Fraction(x, 1 + i % 5)
        out.append(ExteriorForm(f.n, f.k, v) if isinstance(f, ExteriorForm)
                   else MultiForm(f.n, f.k, f.r, v))
    return out


@pytest.mark.parametrize("n", range(0, 6))
def test_fraction_forms_and_multiforms_match_loops(n):
    for x, y in slot_pairs(n):
        if x > n or y > n:
            continue
        for a in fractions_of(form_inputs(n, x, 3 * x + y, R)):
            for b in fractions_of(form_inputs(n, y, 5 * y + x, R)):
                ref = ref_wedge_form(a, b)
                assert_lane(wedge_form(a, b), ref.coeffs)
        for r in (2, 3):
            size_b = comb(n, y) ** r
            for a in fractions_of(multi_inputs(n, x, r, 3 * x + y, R, size_b)):
                for b in fractions_of(multi_inputs(n, y, r, 5 * y + x, R, 1)):
                    assert_lane(wedge_multi(a, b), ref_wedge_multi(a, b).coeffs)
    for k in range(n + 1):
        for a in fractions_of(form_inputs(n, k, 11 * k, R)):
            assert_lane(hodge_form(a), ref_hodge_form(a).coeffs)
        for a in fractions_of(multi_inputs(n, k, 2, 11 * k, R, 1)):
            assert_lane(hodge_multi(a), ref_hodge_multi(a).coeffs)


def test_fraction_coefficients_share_one_denominator_in_lowest_terms():
    a = ExteriorForm(3, 1, [Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)])
    num, den, mag = a._lane()
    assert (num.tolist(), den, mag) == ([3, 2, 5], 6, 5)
    b = ExteriorForm(3, 1, [Fraction(2, 3), 0, Fraction(4, 9)])
    m = MultiForm(2, 1, 2, [[Fraction(1, 2), Fraction(1, 4)], [0, Fraction(3, 8)]])
    assert m._lane()[1] == 8
    va, vm = a.coeffs, m.coeffs
    cases = [(a, va), (m, vm), (wedge_form(a, b), ref_wedge_form(a, b).coeffs),
             (a * Fraction(4, 3), old_mul(va, Fraction(4, 3))), (a + a, va + va),
             (a - b, va - b.coeffs), (-m, -vm), (m * 8, old_mul(vm, 8)),
             (hodge_form(a), ref_hodge_form(a).coeffs), (hodge_multi(m), ref_hodge_multi(m).coeffs),
             (wedge_multi(m, m), ref_wedge_multi(m, m).coeffs)]
    for form, values in cases:
        assert_lane(form, values)
    # a sum that cancels every denominator
    half = ExteriorForm(3, 1, [Fraction(1, 2), 0, 0])
    assert (half + half)._lane()[1] == 1 and (a - a)._lane()[1] == 1


def exterior_bound_cases():
    """(name, operation, lane of the result) on both sides of the bound.

    A wedge of degree-1 slots at n = 2 sums C(2, 1) = 2 products per slot,
    so a form wedge is bounded by 2 |a| |b| and a two-slot multiform wedge
    by 4 |a| |b|, with |b| = 2 below.
    """
    cases = []
    for side, k, want in (("below", -1, np.int64), ("at", 0, object)):
        big = 2 ** 60 + k
        a, b = ExteriorForm(2, 1, [big, 0]), ExteriorForm(2, 1, [0, 2])
        cases.append((f"wedge_form {side}", lambda a=a, b=b: wedge_form(a, b), want, 2 * big))
        big = 2 ** 59 + k
        a = MultiForm(2, 1, 2, [[big, 0], [0, 0]])
        b = MultiForm(2, 1, 2, [[0, 0], [0, 2]])
        cases.append((f"wedge_multi {side}", lambda a=a, b=b: wedge_multi(a, b), want, 2 * big))
    for big, want in ((3, np.int64), (2 ** 61, object)):
        a, b = ExteriorForm(2, 1, [big, 0]), ExteriorForm(2, 1, [0, 2])
        cases.append((f"wedge_form {big}", lambda a=a, b=b: wedge_form(a, b), want, 2 * big))
        a = MultiForm(2, 1, 2, [[big, 0], [0, 0]])
        b = MultiForm(2, 1, 2, [[0, 0], [0, 2]])
        cases.append((f"wedge_multi {big}", lambda a=a, b=b: wedge_multi(a, b), want, 2 * big))
    return cases


@pytest.mark.parametrize("name, op, want, top", exterior_bound_cases(),
                         ids=[c[0] for c in exterior_bound_cases()])
def test_exterior_lane_bound_picks_int64_below_and_object_at_the_bound(name, op, want, top):
    out = op()
    assert lane_dtype(out) == want
    assert out.coeffs.flat[0] == top and type(out.coeffs.flat[0]) is int


def test_exterior_int64_and_object_lanes_agree(monkeypatch):
    def run():
        out = []
        for n in range(0, 6):
            for x, y in slot_pairs(n):
                if x > n or y > n:
                    continue
                a = fractions_of(form_inputs(n, x, 7 * x + y, R))[0]
                b = form_inputs(n, y, 9 * y + x, R)[0]
                out += [wedge_form(a, b), hodge_form(a), a * 5, a + a]
                ma = multi_inputs(n, x, 2, 7 * x + y, R, 1)[0]
                mb = fractions_of(multi_inputs(n, y, 2, 9 * y + x, R, 1))[0]
                out += [wedge_multi(ma, mb), hodge_multi(mb), mb - mb]
        return out

    fast = run()
    assert any(lane_dtype(w) == np.int64 for w in fast)
    monkeypatch.setattr(dform, "LANE_BOUND", 0)
    slow = run()
    assert all(lane_dtype(w) == object for w in slow)
    for x, y in zip(fast, slow, strict=True):
        assert x._lane()[1] == y._lane()[1] and x == y
        assert bool(np.all(x.coeffs == y.coeffs))


def exterior_routes(field):
    """Exterior forms and multiforms of field made by every route."""
    from dfalg import tensorio
    from dfalg.exterior import wedge_form_power

    f = fixtures.random_form(4, 2, 80, field)
    e = ExteriorForm.unit(4, (1,), field)
    m = pfaffian.embed(fixtures.random_form(6, 6, 81, field), 3)
    h = fixtures.random_bilinear(4, 82, "skew", field)
    return [f, e, ExteriorForm.zeros(4, 3, field),
            ExteriorForm.from_coeffs(4, 1, {(2,): 5}, field),
            ExteriorForm(4, 1, fill(scalars.zeros(4, field), 83), field),
            wedge_form(f, e), hodge_form(f), wedge_form_power(f, 0), wedge_form_power(f, 2),
            f + f, f - f, -f, f * 3, 3 * f, f.astype(scalars.FLOAT64 if field == R else R),
            pfaffian.skew_to_form(h), tensorio.tensor_from_doc(tensorio.tensor_to_doc(f)),
            m, MultiForm.zeros(3, 1, 2, field), MultiForm.from_slots([e, e, e]),
            MultiForm(3, 1, 2, fill(scalars.zeros((3, 3), field), 84), field),
            wedge_multi(m, m), hodge_multi(m), m + m, -m, m * 2,
            MultiForm(h.n, h.p, 2, h.mat, h.field),
            tensorio.tensor_from_doc(tensorio.tensor_to_doc(m))]


@pytest.mark.parametrize("field", FIELDS)
def test_coeffs_are_read_only_on_every_route(field):
    for w in exterior_routes(field):
        c = w.coeffs
        assert not c.flags.writeable and c.dtype == (object if w.field == R else float)
        if c.size:
            with pytest.raises(ValueError):
                c[(0,) * c.ndim] = 1
            with pytest.raises(ValueError):
                c += 1
        assert w.coeffs is c


@pytest.mark.parametrize("field", FIELDS)
def test_changing_the_callers_array_does_not_change_a_form(field):
    c = fill(scalars.zeros(6, field), 85)
    mc = fill(scalars.zeros((4, 4, 4), field), 86)
    c[0] = scalars.coerce(Fraction(5, 2) if field == R else 2, field)
    before, mbefore = c.copy(), mc.copy()
    f, m = ExteriorForm(4, 2, c, field), MultiForm(4, 1, 3, mc, field)
    c[:2] = mc[0, 0, :2] = scalars.coerce(99, field)
    mc[1] = 0
    assert bool(np.all(f.coeffs == before)) and f == ExteriorForm(4, 2, before, field)
    assert bool(np.all(m.coeffs == mbefore)) and m == MultiForm(4, 1, 3, mbefore, field)
    assert_same(hodge_form(f).coeffs, ref_hodge_form(ExteriorForm(4, 2, before, field)).coeffs,
                field)


# -- the sign tables, the Bianchi sum and the embedding read merge_table ------------

@pytest.mark.parametrize("n", range(0, 10))
def test_insertion_table_matches_loop(n):
    # p = n + 1 and n + 2 are the spillover degrees a wedge past n contracts
    for p in range(1, n + 3):
        ranks, neg = insertion_table(n, p)
        old = old_insertion_table(n, p)
        assert ranks.dtype == np.intp and neg.dtype == bool
        assert ranks.shape == neg.shape == (len(old), n), (n, p)
        for i, row in enumerate(old):
            for a in range(n):
                sign, rank = row.get(a, (1, comb(n, p)))
                assert (ranks[i, a], neg[i, a]) == (rank, sign < 0), (n, p, i, a)


@pytest.mark.parametrize("n", range(0, 9))
def test_split_table_matches_loop(n):
    for k in range(n + 2):
        for p in range(k + 1):
            new = split_table(n, k, p)
            assert new == old_split_table(n, k, p), (n, k, p)
            assert all(type(x) is int for K in new for e in K for x in e)


@pytest.mark.parametrize("n", range(0, 10))
def test_complement_table_matches_loop(n):
    for k in range(n + 1):
        ranks, neg = complement_table(n, k)
        old = old_complement_table(n, k)
        assert ranks.dtype == np.intp and neg.dtype == bool
        assert ranks.tolist() == [rank for rank, _ in old], (n, k)
        assert neg.tolist() == [sign < 0 for _, sign in old], (n, k)


def bianchi_inputs(n, p, q, field, seed):
    """Dense, sparse and zero (p, q) forms, a Bianchi one when p = q = 2,
    and in exact mode a dense form of Fraction entries and one whose sums
    pass the int64 lane."""
    forms = double_inputs(n, p, q, seed, field, 1)
    if (p, q) == (2, 2) and n >= 2:
        forms.append(fixtures.random_bianchi(n, 2, 2, seed=seed, field=field))
    if field == R:
        v = forms[0].mat.copy()
        for i in range(v.size):
            v.flat[i] = Fraction(v.flat[i], 1 + i % 5)
        forms += [DoubleForm(n, p, q, v), forms[0] * (1 << 60)]
    return forms


@pytest.mark.parametrize("lane", ["int64", "object", "float"])
@pytest.mark.parametrize("n", range(0, 8))
def test_bianchi_residual_matches_loop(monkeypatch, n, lane):
    field = scalars.FLOAT64 if lane == "float" else R
    if lane == "object":
        monkeypatch.setattr(dform, "LANE_BOUND", 0)
    for p in range(1, 4):
        for q in range(1, 4):
            for w in bianchi_inputs(n, p, q, field, 13 * n + 4 * p + q):
                new, ref = bianchi_residual(w), old_bianchi_residual(w)
                if field == R:
                    assert new == ref and type(new) in (int, Fraction), (n, p, q)
                else:
                    assert abs(new - ref) <= FLOAT_RTOL * max(1.0, ref), (n, p, q)
                    assert type(new) is float or (new == 0 and p + 1 > n)


def embed_inputs(n, d, field, seed):
    """Dense, sparse and zero d-forms; in float mode half the zeros are
    -0.0, in exact mode one form has Fraction entries and one sits past
    the int64 lane."""
    forms = form_inputs(n, d, seed, field)
    forms.append(ExteriorForm(n, d, fill(scalars.zeros(comb(n, d), field), seed + 1, 2), field))
    if field == R:
        forms += fractions_of(forms[:1]) + [forms[0] * (1 << 62)]
    else:
        v = forms[0].coeffs.copy()
        v[(v == 0) & (np.arange(v.size) % 2 == 1)] = -0.0
        forms.append(ExteriorForm(n, d, v, field))
    return forms


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", range(0, 9))
def test_embed_matches_loop(n, field):
    for r in (2, 3, 4):
        for k in range(n // r + 2):
            if comb(n, k) ** r > 20_000:
                continue
            for form in embed_inputs(n, r * k, field, 7 * n + 3 * r + k):
                new, ref = pfaffian.embed(form, r), old_embed(form, r)
                # float zeros, -0.0 included, and the int64 or object lane alike
                assert same_bits(new, ref), (n, r, k)


# -- the float lane's magnitude ---------------------------------------------------
#
# A float form keeps the largest |entry| as its lane magnitude, as an exact
# form does, and max_abs, is_zero and inner read the lane.  The references
# are the per-entry loops the float lane ran before: old_max_abs and
# old_inner above, and old_is_zero.

F = scalars.FLOAT64


def old_is_zero(v):
    return all(x == 0 for x in v.flat)


def float_lane_forms(n):
    """Float forms of dimension n made by every route that sets or skips
    the magnitude, their entries dyadic so every sum is exact: constructor
    forms with +-0.0 entries, zero forms, metric powers, zero-factor wedges,
    one-entry stars and forms with no entries (a degree past n)."""
    values = [0.0, -0.0, 1.0, -2.5, 0.75, -3.0]
    rng = SplitMix64(n)
    forms = []
    for p, q in [(0, 0), (1, 0), (1, 1), (1, 2), (2, 2)]:
        shape = dform._shape(n, (p, q))
        for k in (2, len(values)):  # only signed zeros, then all values
            mat = [values[rng.next_u64() % k] for _ in range(math.prod(shape))]
            forms.append(DoubleForm(n, p, q, np.reshape(mat, shape), F))
        forms.append(DoubleForm.zeros(n, p, q, F))
    forms += [metric_power(n, k, F) for k in range(n + 1)]
    forms += [wedge(DoubleForm.zeros(n, 1, 1, F), w) for w in forms[:6]]
    forms += [hodge(DoubleForm(n, n, 0, [[v]], F)) for v in (-0.0, 2.5)]
    forms += [DoubleForm.zeros(n, n + 1, 1, F), DoubleForm(n, 1, n + 1, np.zeros((n, 0)), F),
              wedge(metric_power(n, n, F), metric(n, F))]
    forms += [ExteriorForm.zeros(n, 1, F), ExteriorForm(n, 1, values[:n], F),
              hodge_form(ExteriorForm(n, 0, [-0.0], F)), ExteriorForm.zeros(n, n + 1, F),
              MultiForm.zeros(n, 1, 2, F), MultiForm(n, 1, 2, np.full((n, n), -0.0), F)]
    return forms


@pytest.mark.parametrize("n", range(1, 5))
def test_float_max_abs_and_is_zero_match_loops(n):
    for w in float_lane_forms(n):
        new, ref = w.max_abs(), old_max_abs(w._num)
        assert new == ref and str(new) == str(ref), w
        assert type(new) is (int if w._num.size == 0 else float), w
        assert w.is_zero() == old_is_zero(w._num), w


@pytest.mark.parametrize("n", range(1, 5))
def test_float_inner_matches_loop(n):
    forms = [w for w in float_lane_forms(n) if type(w) is DoubleForm]
    pairs = 0
    for x in forms:
        for y in forms:
            if x.bidegree == y.bidegree:
                new, ref = inner(x, y), scalars.coerce(old_inner(x._num, y._num), F)
                assert new == ref and str(new) == str(ref), (x, y)
                assert type(new) is float, (x, y)
                pairs += 1
    assert pairs > len(forms)


def test_float_max_abs_propagates_nan_wherever_it_sits():
    for i in range(4):
        mat = np.ones(4)
        mat[i] = np.nan
        w = DoubleForm(2, 1, 1, mat.reshape(2, 2), F)
        assert math.isnan(w.max_abs()) and not w.is_zero(), i
