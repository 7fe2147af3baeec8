"""Differential tests of the half chain w^q = w^ceil(q/2) ^ w^floor(q/2)
against the full chain w, w^2, ..., w^q it replaced, and of merge_table's
closed-form one-partner tables (p + q = n) against the general build.

The references below are the replaced code, kept as copies: the power
loop and the general merge_table build.  Exact values must be equal, and
float inputs with integer values must give bit-identical floats.  Float
inputs with irrational values sum in another order, so they are held to a
relative 1e-12.  The wedge counts pin the work: a top power w^q costs
ceil(q/2) wedges, where the full chain cost q - 1.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from dfalg import dform, exterior, oracle, pfaffian, scalars
from dfalg.dform import DoubleForm, hodge, wedge, wedge_power
from dfalg.exterior import ExteriorForm, MultiForm, hodge_multi, wedge_form, wedge_multi
from dfalg.fixtures import random_bilinear, random_form
from dfalg.multiindex import _lex_ranks, complement_table, merge_table, rank_tuple, subsets

FLOAT_RTOL = 1e-12
MODES = ("exact", "float_integer", "float_irrational")


# -- the replaced code, kept as the reference -------------------------------------

def full_chain(w, q, times, unit):
    """w^q as the loop built it: w, w ^ w, ..., one wedge per step."""
    if q == 0:
        return unit
    out = w
    for _ in range(q - 1):
        out = times(out, w)
    return out


def full_pf(form):
    q = form.n // form.k
    top = full_chain(form, q, wedge_form, ExteriorForm.unit(form.n, (), form.field))
    return top.coeffs[0] * Fraction(1, factorial(q))


def full_hyperdet(mf):
    p = mf.n // mf.k
    unit = MultiForm(mf.n, 0, mf.r, np.ones((1,) * mf.r), mf.field)
    top = full_chain(mf, p, wedge_multi, unit)
    return hodge_multi(top).coeffs[(0,) * mf.r] * Fraction(1, factorial(p))


def full_hn(w, m):
    """*(w^m) of a (k, k) form at n = mk: the right side of pf_squared_hn."""
    unit = DoubleForm(w.n, 0, 0, np.ones((1, 1)), w.field)
    return hodge(full_chain(w, m, wedge, unit)).scalar()


def general_merge_table(n, p, q):
    """merge_table's general build, which made the one-partner tables too."""
    I = np.array(subsets(n, p), dtype=np.int8).reshape(comb(n, p), p)
    free = np.ones((len(I), n), dtype=bool)
    free[np.arange(len(I))[:, None], I] = False
    rest = np.nonzero(free)[1].astype(np.int8).reshape(len(I), n - p)
    S = np.array(subsets(n - p, q), dtype=np.intp).reshape(comb(n - p, q), q)
    J = rest[:, S]
    IJ = np.concatenate([np.broadcast_to(I[:, None, :], J.shape[:2] + (p,)), J], axis=2)
    IJ.sort(axis=2)
    neg = (J.sum(axis=2, dtype=np.intp) + S.sum(axis=1) + p * q) % 2 == 1
    return _lex_ranks(J, n), _lex_ranks(IJ, n), neg


# -- inputs -------------------------------------------------------------------------

def values(shape, seed, mode):
    """Integers in [-3, 3], exact or as floats, or signed square roots of
    2..49, whose products and sums round."""
    rng = np.random.default_rng(seed)
    ints = rng.integers(-3, 4, size=shape)
    if mode == "exact":
        return ints, scalars.RATIONAL
    if mode == "float_integer":
        return ints.astype(float), scalars.FLOAT64
    roots = np.sqrt(rng.integers(2, 50, size=shape).astype(float))
    return np.where(rng.integers(0, 2, size=shape) == 1, roots, -roots), scalars.FLOAT64


def assert_agrees(got, want, mode):
    assert type(got) is type(want)
    if mode == "float_irrational":
        assert abs(got - want) <= FLOAT_RTOL * abs(want), (got, want)
    elif mode == "float_integer":
        assert got.hex() == want.hex()
    else:
        assert got == want


# (degree d, number of factors q), n = d q; past these the budget refuses
PF_CASES = [(2, q) for q in range(8)] + [(4, q) for q in range(5)] + [(6, q) for q in range(3)]
# (slot degree k, slots r, number of factors p), n = k p: odd k with odd r,
# such as (1, 1, 1) at n = 3, where only associativity orders the product
HYPERDET_CASES = [(1, 2, p) for p in range(8)] + [(1, 3, p) for p in range(7)] \
    + [(1, 5, p) for p in range(4)] + [(2, 2, p) for p in range(5)] \
    + [(3, 3, p) for p in range(3)]
# (slot degree k, number of factors m) of a (k, k) form at n = k m
HN_CASES = [(1, m) for m in range(8)] + [(2, m) for m in range(5)] + [(3, m) for m in range(3)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("d, q", PF_CASES)
def test_pf_half_chain_matches_the_full_chain(d, q, mode):
    n = d * q
    coeffs, field = values(comb(n, d), 100 * d + q, mode)
    form = ExteriorForm(n, d, coeffs, field)
    assert_agrees(pfaffian.pf(form), full_pf(form), mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k, r, p", HYPERDET_CASES)
def test_hyperdet_half_chain_matches_the_full_chain(k, r, p, mode):
    n = k * p
    coeffs, field = values((comb(n, k),) * r, 100 * k + 10 * r + p, mode)
    mf = MultiForm(n, k, r, coeffs, field)
    got, want = pfaffian.hyperdet(mf), full_hyperdet(mf)
    if mode == "float_irrational" and k * r % 2 and p > 1:
        # w ^ w = -w ^ w, so both are rounding noise on an exact zero
        assert max(abs(got), abs(want)) <= FLOAT_RTOL * float(np.abs(coeffs).max()) ** p
    else:
        assert_agrees(got, want, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k, m", HN_CASES)
def test_hn_half_chain_matches_the_full_chain(k, m, mode):
    # any power m, odd ones included: the right side of pf_squared_hn
    # itself only reaches even ones
    n = k * m
    coeffs, field = values((comb(n, k),) * 2, 100 * k + m, mode)
    w = DoubleForm(n, k, k, coeffs, field)
    got = hodge(pfaffian._top_power(w, m, wedge_power, wedge)).scalar()
    assert_agrees(got, full_hn(w, m), mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, d", [(4, 4), (8, 4), (6, 6), (8, 8)])
def test_pf_squared_hn_right_side_matches_the_full_chain(n, d, mode):
    coeffs, field = values(comb(n, d), n + d, mode)
    form = ExteriorForm(n, d, coeffs, field)
    rec = pfaffian.check_pf_squared(form, 2)
    assert rec.name == "pf_squared_hn"
    assert_agrees(rec.rhs, full_hn(pfaffian.embed(form, 2), 2 * n // d), mode)


@pytest.mark.parametrize("n", range(0, 11, 2))
def test_pf_half_chain_matches_the_matching_oracle(n):
    h = random_bilinear(n, 5200 + n, "skew")
    form = pfaffian.skew_to_form(h)
    value = pfaffian.pf(form)
    assert value == full_pf(form) == oracle.pf_matching_oracle(h.mat)


# -- the work pinned ------------------------------------------------------------------

@pytest.fixture
def wedges(monkeypatch):
    """The slot degrees of every wedge run, counted at dform._wedged under
    both names it is called by."""
    calls = []
    real = dform._wedged

    def counted(w1, w2):
        calls.append((w1._degs, w2._degs))
        return real(w1, w2)

    for module in (dform, exterior):
        monkeypatch.setattr(module, "_wedged", counted)
    return calls


@pytest.mark.parametrize("q", range(1, 8))
def test_pf_runs_ceil_half_q_wedges(wedges, q):
    # a 2-form at n = 2q: the full chain ran q - 1
    pfaffian.pf(random_form(2 * q, 2, 5300 + q))
    assert len(wedges) == (q + 1) // 2, wedges


@pytest.mark.parametrize("r, p", [(2, p) for p in range(1, 8)] + [(3, p) for p in range(1, 7)])
def test_hyperdet_runs_ceil_half_p_wedges(wedges, r, p):
    # (1, 1) forms are p x p matrices, (1, 1, 1) forms p x p x p arrays
    coeffs, field = values((p,) * r, 5400 + p, "exact")
    pfaffian.hyperdet(MultiForm(p, 1, r, coeffs, field))
    assert len(wedges) == (p + 1) // 2, wedges


# -- the one-partner merge tables ---------------------------------------------------

@pytest.mark.parametrize("n", range(15))
def test_one_partner_merge_table_matches_the_general_build(n):
    for p in range(n + 1):
        got, want = merge_table(n, p, n - p), general_merge_table(n, p, n - p)
        for new, ref in zip(got, want, strict=True):
            assert new.dtype == ref.dtype and new.shape == ref.shape, (n, p)
            assert np.array_equal(new, ref), (n, p)


@pytest.mark.parametrize("n", [*range(15), 24])
def test_a_cold_one_partner_merge_table_builds_no_subsets(n):
    # subsets(24, 12) is a 371 MiB tuple of tuples, and lru_cache keeps it
    for p in range(n + 1):
        before = subsets.cache_info()
        merge_table.__wrapped__(n, p, n - p)
        after = subsets.cache_info()
        assert (after.hits, after.misses, after.currsize) == \
            (before.hits, before.misses, before.currsize), (n, p)


@pytest.mark.parametrize("n", range(15))
def test_complement_table_matches_the_oracle(n):
    for k in range(n + 1):
        ranks, neg = complement_table(n, k)
        want = [(rank_tuple(oracle.complement_tuple(I, n), n),
                 oracle.complement_sign_tuple(I, n) < 0) for I in subsets(n, k)]
        assert list(zip(ranks.tolist(), neg.tolist())) == want, (n, k)

