"""Differential tests of the slot-generic wedge and star kernels.

The references below are the per-type loops the kernels replaced: the
scatter and gather double-form wedges, the exterior-form and multiform
wedge loops, and the three Hodge-star loops.  They run on their own copies
of the tuple-format tables they were written against.  Exact mode must
agree entry for entry; float mode sums in another order, so it is held to
a relative tolerance of 1e-12.
"""

from functools import lru_cache
from math import comb

import numpy as np
import pytest

from dfalg import scalars
from dfalg.dform import DoubleForm, hodge, metric_power, wedge
from dfalg.exterior import (
    ExteriorForm,
    MultiForm,
    hodge_form,
    hodge_multi,
    wedge_form,
    wedge_multi,
)
from dfalg.fixtures import SplitMix64
from dfalg.multiindex import (
    _rank_of,
    complement_sign_tuple,
    complement_tuple,
    merge_sign_tuple,
    split_table,
    subsets,
)

FLOAT_RTOL = 1e-12
DIMS = range(0, 8)
# the reference loops cost about one interpreted step per pair of entries;
# above this many pairs a dense input is thinned to a sparse one
PAIR_BUDGET = 5_000


# -- the replaced code, kept as the reference -----------------------------------

@lru_cache(maxsize=None)
def old_merge_table(n, p, q):
    """[rank_I][rank_J] -> (sign, rank of I|J), or None when I and J meet."""
    qsubs = subsets(n, q)
    ranks = _rank_of(n, p + q)
    table = []
    for I in subsets(n, p):
        row = []
        for J in qsubs:
            res = merge_sign_tuple(I, J)
            row.append(None if res is None else (res[0], ranks[res[1]]))
        table.append(tuple(row))
    return tuple(table)


@lru_cache(maxsize=None)
def old_complement_table(n, k):
    """For each k-subset I: (rank of I^c, complement sign of I)."""
    ranks = _rank_of(n, n - k)
    return tuple((ranks[complement_tuple(I, n)], complement_sign_tuple(I, n))
                 for I in subsets(n, k))


def ref_wedge(w1, w2, path):
    n = w1.n
    P, Q = w1.p + w2.p, w1.q + w2.q
    out = DoubleForm.zeros(n, P, Q, w1.field)
    if P > n or Q > n:
        return out
    if path == "scatter":
        _ref_wedge_scatter(w1, w2, out)
    else:
        _ref_wedge_gather(w1, w2, out)
    return out


def _ref_wedge_scatter(w1, w2, out):
    n = w1.n
    rows = old_merge_table(n, w1.p, w2.p)
    cols = old_merge_table(n, w1.q, w2.q)
    m1, m2, mo = w1.mat, w2.mat, out.mat
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


def _ref_wedge_gather(w1, w2, out):
    n = w1.n
    P, Q = out.p, out.q
    rows = split_table(n, P, w1.p)
    cols = split_table(n, Q, w1.q)
    m1, m2, mo = w1.mat, w2.mat, out.mat
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
    out = ExteriorForm.zeros(n, k, a.field)
    if k > n:
        return out
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
            out.coeffs[r] += sign * (va * vb)
    return out


def ref_wedge_multi(a, b):
    n, k = a.n, a.k + b.k
    out = MultiForm.zeros(n, k, a.r, a.field)
    if k > n:
        return out
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
                out.coeffs[tuple(target)] += sign * (va * vb)
    return out


def ref_hodge(w):
    n, p, q = w.n, w.p, w.q
    if p > n or q > n:
        return DoubleForm.zeros(n, max(n - p, 0), max(n - q, 0), w.field)
    out = DoubleForm.zeros(n, n - p, n - q, w.field)
    sigma = -1 if ((p + q) * (n - p - q)) % 2 else 1
    rows = old_complement_table(n, n - p)
    cols = old_complement_table(n, n - q)
    m, mo = w.mat, out.mat
    for ri in range(mo.shape[0]):
        rc, er = rows[ri]
        se = sigma * er
        for rj in range(mo.shape[1]):
            cc, ec = cols[rj]
            v = m[rc, cc]
            if v != 0:
                mo[ri, rj] = (se * ec) * v
    return out


def ref_hodge_form(a):
    n = a.n
    out = ExteriorForm.zeros(n, n - a.k, a.field)
    table = old_complement_table(n, a.k)
    for i, v in enumerate(a.coeffs):
        if v != 0:
            rc, eps = table[i]
            out.coeffs[rc] = eps * v
    return out


def ref_hodge_multi(a):
    n = a.n
    out = MultiForm.zeros(n, n - a.k, a.r, a.field)
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
        out.coeffs[tuple(target)] = sign * v
    return out


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
    dense = DoubleForm.zeros(n, p, q, field)
    fill(dense.mat, seed, _keep(dense.mat.size, partner_size))
    sparse = fill(DoubleForm.zeros(n, p, q, field).mat, seed + 1, keep=2)
    forms = [dense, DoubleForm(n, p, q, sparse, field), DoubleForm.zeros(n, p, q, field)]
    if p == q and p <= n:
        forms.append(metric_power(n, p, field))
    return forms


def slot_pairs(n):
    """Slot degrees (x, y) with x + y <= n + 1: every wedge that fits, and
    the first spillover degree past the top."""
    return [(x, y) for x in range(n + 2) for y in range(n + 2 - x)]


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
    dense = ExteriorForm.zeros(n, k, field)
    fill(dense.coeffs, seed)
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
    dense = MultiForm.zeros(n, k, r, field)
    fill(dense.coeffs, seed, _keep(dense.coeffs.size, partner_size))
    sparse = fill(MultiForm.zeros(n, k, r, field).coeffs, seed + 1, keep=1)
    return [dense, MultiForm(n, k, r, sparse, field), MultiForm.zeros(n, k, r, field)]


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


# -- float zeros -------------------------------------------------------------------

@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_float_stars_write_no_negative_zeros(zero):
    f = scalars.FLOAT64
    for n in range(1, 7):
        for k in range(n + 1):
            w = DoubleForm.zeros(n, k, n - k, f)
            a = ExteriorForm.zeros(n, k, f)
            m = MultiForm.zeros(n, k, 3, f)
            for seed, arr in enumerate((w.mat, a.coeffs, m.coeffs)):
                fill(arr, 3 * n + k + seed, keep=max(1, arr.size // 2))
                arr[arr == 0] = zero
            for out in (hodge(w).mat, hodge_form(a).coeffs, hodge_multi(m).coeffs):
                assert not np.any(np.signbit(out) & (out == 0))
