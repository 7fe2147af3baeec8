from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_dform
from dfalg import oracle, scalars
from dfalg.dform import (
    DoubleForm,
    bianchi_residual,
    compose,
    compose_power,
    contract,
    contract_iter,
    contract_with_metric,
    hodge,
    inner,
    metric,
    metric_power,
    metric_wedge_power,
    one,
    power_memo,
    transpose,
    wedge,
    wedge_power,
)
from dfalg.exterior import ExteriorForm, MultiForm
from dfalg.fixtures import random_bianchi, random_bilinear
from dfalg.multiindex import subsets


# -- metric powers -----------------------------------------------------------

def test_metric_is_identity_matrix():
    assert np.all(metric(3).mat == np.eye(3, dtype=object))


@pytest.mark.parametrize("field", [scalars.RATIONAL, scalars.FLOAT64])
def test_metric_calls_share_one_read_only_array(field):
    a, b = metric(4, field), metric(4, field)
    assert a is not b and a == b
    for g in (a, b, metric_power(4, 2, field), compose_power(metric(4, field), 0)):
        num = g._lane()[0]
        assert not num.flags.writeable
        with pytest.raises(ValueError):
            num[0, 0] = 5
    # operations on the shared array build fresh ones and leave it as it was
    assert (a + b)._lane()[0].flags.writeable
    assert metric(4, field) == a and a.entry((0,), (0,)) == 1


def test_metric_power_values():
    g2 = metric_power(3, 2)
    assert g2.entry((0, 1), (0, 1)) == 2
    g4 = metric_power(4, 4)
    assert g4.mat.shape == (1, 1)
    assert g4.mat[0, 0] == 24


def test_metric_power_is_wedge_power():
    for n in (2, 3, 4, 5):
        assert metric_power(n, n) == wedge_power(metric(n), n)


def test_metric_power_bounds():
    with pytest.raises(ValueError):
        metric_power(3, 4)


# -- the powers g^m w^k and their memo ----------------------------------------

def loop_power(w, k):
    out = one(w.n, w.field)
    for _ in range(k):
        out = wedge(out, w)
    return out


@pytest.mark.parametrize("field", [scalars.RATIONAL, scalars.FLOAT64])
def test_metric_wedge_power_is_the_wedge_product(field):
    h = random_bilinear(5, 3, field=field)
    R = random_bianchi(6, 2, 2, seed=4, field=field)
    for w in (h, R):
        n, p = w.n, w.p
        for m in range(n + 1):
            for k in range((n - m) // p + 2):  # one spillover power past the top
                want = wedge(metric_power(n, m, field), loop_power(w, k))
                got = metric_wedge_power(w, m, k)
                assert got.bidegree == want.bidegree and got.field == field
                assert got == want
    assert wedge_power(h, 1) is h
    with pytest.raises(ValueError):
        metric_wedge_power(h, 0, -1)
    with pytest.raises(ValueError):
        metric_wedge_power(h, 6, 1)


def test_power_memo_shares_read_only_powers():
    h = random_bilinear(5, 3)
    with power_memo():
        a = metric_wedge_power(h, 1, 2)
        assert metric_wedge_power(h, 1, 2) is a
        h3 = wedge_power(h, 3)
        assert wedge_power(h, 2) is metric_wedge_power(h, 0, 2)
        assert wedge_power(h, 3) is h3
        assert wedge_power(h, 1) is h
        with pytest.raises(ValueError):
            a.mat[0, 0] = 1
        # a form with equal entries is another key
        assert metric_wedge_power(DoubleForm(5, 1, 1, h.mat), 1, 2) is not a
    b = metric_wedge_power(h, 1, 2)
    assert b == a and b is not a
    assert metric_wedge_power(h, 1, 2) is not b


def test_power_memo_is_dropped_on_error():
    h = random_bilinear(4, 3)
    with pytest.raises(RuntimeError):
        with power_memo():
            wedge_power(h, 2)
            raise RuntimeError("boom")
    assert wedge_power(h, 2) is not wedge_power(h, 2)


def test_wedge_power_loops_past_the_recursion_limit():
    # w^k is built in a loop, so k past sys.getrecursionlimit() is no deeper
    h = random_bilinear(3, 1)
    top = wedge_power(h, 2000)
    assert top.bidegree == (2000, 2000) and top.is_zero()
    assert wedge_power(2 * one(3), 1500).scalar() == 2 ** 1500
    with power_memo():
        assert wedge_power(h, 2000) is wedge_power(h, 2000)


# -- wedge -------------------------------------------------------------------

def test_wedge_squared_bilinear_is_twice_determinant():
    n = 4
    h = random_dform(n, 1, 1, seed=3)
    hh = wedge(h, h)
    for I in subsets(n, 2):
        for J in subsets(n, 2):
            minor = oracle.det_oracle(h.mat[np.ix_(I, J)])
            assert hh.entry(I, J) == 2 * minor


def test_wedge_zero_and_overflow():
    n = 3
    h = random_dform(n, 1, 1, seed=4)
    z = DoubleForm.zeros(n, 1, 1)
    assert wedge(h, z).max_abs() == 0
    over = wedge(wedge_power(h, 2), wedge_power(h, 2))
    assert over.bidegree == (4, 4) and over.mat.size == 0 and over.max_abs() == 0


def test_kulkarni_nomizu_pattern():
    # g * w for a (1, 1) form follows the four-term antisymmetrization
    n = 4
    w = random_dform(n, 1, 1, seed=5)
    g = metric(n)
    prod = wedge(g, w)
    for (a, b) in subsets(n, 2):
        for (c, d) in subsets(n, 2):
            expected = (int(a == c) * w.mat[b, d] - int(a == d) * w.mat[b, c]
                        - int(b == c) * w.mat[a, d] + int(b == d) * w.mat[a, c])
            assert prod.entry((a, b), (c, d)) == expected


@given(st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_sign_commutativity_property(n, data):
    p1 = data.draw(st.integers(0, 2))
    q1 = data.draw(st.integers(0, 2))
    p2 = data.draw(st.integers(0, n - p1))
    q2 = data.draw(st.integers(0, n - q1))
    a = random_dform(n, p1, q1, seed=data.draw(st.integers(0, 10 ** 6)))
    b = random_dform(n, p2, q2, seed=data.draw(st.integers(0, 10 ** 6)))
    assert wedge(a, b) == (-1) ** (p1 * p2 + q1 * q2) * wedge(b, a)


@pytest.mark.parametrize("n", range(2, 7))
def test_wedge_sign_commutativity(n):
    seeds = iter(range(100, 200))
    for (p1, q1, p2, q2) in [(1, 1, 1, 1), (1, 0, 1, 1), (2, 1, 1, 2), (1, 1, 2, 2)]:
        if p1 + p2 > n or q1 + q2 > n:
            continue
        a = random_dform(n, p1, q1, seed=next(seeds))
        b = random_dform(n, p2, q2, seed=next(seeds))
        assert wedge(a, b) == (-1) ** (p1 * p2 + q1 * q2) * wedge(b, a)


def test_wedge_associativity():
    n = 5
    a = random_dform(n, 1, 1, seed=31)
    b = random_dform(n, 1, 0, seed=32)
    c = random_dform(n, 1, 2, seed=33)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


def test_wedge_agrees_with_shuffle_oracle_on_random_tensors():
    n = 4
    a = random_dform(n, 1, 1, seed=41)
    b = random_dform(n, 1, 1, seed=42)
    prod = wedge(a, b)
    for I in subsets(n, 2):
        for J in subsets(n, 2):
            xs = [oracle.basis_vector(n, i) for i in I]
            ys = [oracle.basis_vector(n, j) for j in J]
            assert prod.entry(I, J) == oracle.wedge_oracle(a, b, xs, ys)


# -- contraction -------------------------------------------------------------

def test_contract_metric_is_dimension():
    assert contract(metric(5)).scalar() == 5


def test_contract_metric_square():
    n = 5
    lhs = contract(metric_power(n, 2) * Fraction(1, 2))
    assert lhs == (n - 1) * metric(n)


def test_contract_matches_oracle():
    for (n, p, q, seed) in [(4, 2, 2, 51), (4, 2, 1, 52), (3, 1, 1, 53)]:
        w = random_dform(n, p, q, seed=seed)
        assert contract(w) == oracle.contract_oracle(w)


def test_contract_on_degree_zero_is_zero():
    w = random_dform(3, 0, 1, seed=54)
    out = contract(w)
    assert out.max_abs() == 0 and out.bidegree == (0, 0)


def test_adjointness_of_metric_multiplication():
    # <g w1, w2> = <w1, c w2>
    n = 5
    for (p, q, s1, s2) in [(1, 1, 61, 62), (2, 1, 63, 64), (2, 2, 65, 66)]:
        w1 = random_dform(n, p, q, seed=s1)
        w2 = random_dform(n, p + 1, q + 1, seed=s2)
        assert inner(wedge(metric(n), w1), w2) == inner(w1, contract(w2))


def test_contract_with_metric_reduces_and_scales():
    n = 4
    w = random_dform(n, 2, 2, seed=71)
    assert contract_with_metric(w, metric(n)) == contract(w)
    lam = Fraction(7, 3)
    assert contract_with_metric(w, lam * metric(n)) == Fraction(1, lam) * contract(w)


def test_contract_with_metric_trace_formula():
    n = 4
    h = random_dform(n, 1, 1, seed=72)
    G = random_dform(n, 1, 1, seed=73, symmetric=True) + 20 * metric(n)
    from dfalg.dform import _invert_metric

    Gi = _invert_metric(G)
    expected = sum(Gi.mat.dot(h.mat)[i, i] for i in range(n))
    assert contract_with_metric(h, G).scalar() == expected


def test_contract_with_metric_rejects_bad_metrics():
    n = 3
    w = random_dform(n, 1, 1, seed=74)
    with pytest.raises(ValueError):
        contract_with_metric(w, random_dform(n, 1, 1, seed=75))  # not symmetric
    singular = DoubleForm.zeros(n, 1, 1)
    with pytest.raises(ValueError):
        contract_with_metric(w, singular)


@pytest.mark.parametrize("field", [scalars.RATIONAL, scalars.FLOAT64])
def test_contract_with_metric_refuses_a_metric_of_another_field(field):
    # a float inverse once went through an exact form's int64 lane
    other = scalars.FLOAT64 if field == scalars.RATIONAL else scalars.RATIONAL
    h = random_bilinear(3, 1, field=field)
    G = 3 * metric(3, other) + random_bilinear(3, 2, "symmetric", other)
    with pytest.raises(ValueError, match="incompatible double forms"):
        contract_with_metric(h, G)


# -- Hodge star --------------------------------------------------------------

def test_hodge_unit_and_top():
    n = 4
    assert hodge(one(n)) == metric_power(n, n) * Fraction(1, factorial(n))
    assert hodge(metric_power(n, n) * Fraction(1, factorial(n))).scalar() == 1


@pytest.mark.parametrize("n", range(2, 6))
def test_star_contraction_relations(n):
    # g w = * c * w and c w = * g * w, exact whenever (p+q) n is even
    # (in particular on every (p, p) form); on the odd sector the intrinsic
    # sign (-1)^((p+q)n) appears and no star convention can remove it.
    # When the target bidegree leaves [0, n] both sides are zero forms.
    seeds = iter(range(300, 400))
    for p in range(n + 1):
        for q in range(n + 1):
            w = random_dform(n, p, q, seed=next(seeds))
            sign = -1 if ((p + q) * n) % 2 else 1
            lhs1, rhs1 = wedge(metric(n), w), hodge(contract(hodge(w)))
            if p + 1 > n or q + 1 > n:
                assert lhs1.max_abs() == 0 and rhs1.max_abs() == 0
            else:
                assert lhs1 == sign * rhs1
            lhs2, rhs2 = contract(w), hodge(wedge(metric(n), hodge(w)))
            if p == 0 or q == 0:
                assert lhs2.max_abs() == 0 and rhs2.max_abs() == 0
            else:
                assert lhs2 == sign * rhs2


@pytest.mark.parametrize("n", range(2, 6))
def test_inner_product_via_star(n):
    seeds = iter(range(400, 500))
    for (p, q) in [(1, 1), (2, 1), (1, 0), (2, 2)]:
        if p > n or q > n:
            continue
        w = random_dform(n, p, q, seed=next(seeds))
        t = random_dform(n, p, q, seed=next(seeds))
        assert inner(w, t) == hodge(wedge(w, hodge(t))).scalar()


@pytest.mark.parametrize("n", range(1, 6))
def test_double_star_sign_exhaustive_basis(n):
    # ** w = (-1)^((p+q)(n+1)) w; the identity on every (p, p) form
    for p in range(n + 1):
        for q in range(n + 1):
            sign = -1 if ((p + q) * (n + 1)) % 2 else 1
            for ri in range(comb(n, p)):
                for rj in range(comb(n, q)):
                    m = np.zeros((comb(n, p), comb(n, q)), dtype=object)
                    m[ri, rj] = 1
                    w = DoubleForm(n, p, q, m)
                    assert hodge(hodge(w)) == sign * w


def test_hodge_matches_oracle():
    for (n, p, q, seed) in [(4, 2, 1, 81), (3, 1, 1, 82), (4, 2, 2, 83), (5, 3, 2, 84)]:
        w = random_dform(n, p, q, seed=seed)
        assert hodge(w) == oracle.hodge_oracle(w)


@pytest.mark.parametrize("n", range(2, 7))
def test_star_metric_expansion_for_bianchi_forms(n):
    # (1/(k-p)!) *(g^(k-p) w) as an alternating contraction series
    from dfalg.invariants import g_power_star_expansion

    for p in range(1, n + 1):
        w = random_bianchi(n, p, terms=2, seed=1000 + 10 * n + p) if p <= 3 \
            else metric_power(n, p) * Fraction(1, factorial(p))
        for k in range(p, n + 1):
            lhs = hodge(wedge(metric_power(n, k - p), w)) * Fraction(1, factorial(k - p))
            assert lhs == g_power_star_expansion(w, k - p)


def test_star_full_contraction_special_case():
    # *(g^(n-p) w / (n-p)!) = c^p w / p! on Bianchi (p, p) forms
    n = 5
    for p in (1, 2):
        w = random_bianchi(n, p, terms=2, seed=90 + p)
        lhs = hodge(wedge(metric_power(n, n - p), w)) * Fraction(1, factorial(n - p))
        assert lhs == contract_iter(w, p) * Fraction(1, factorial(p))


# -- transpose, inner, composition -------------------------------------------

def test_inner_of_metric():
    assert inner(metric(6), metric(6)) == 6


def test_inner_requires_equal_bidegrees():
    with pytest.raises(ValueError):
        inner(random_dform(3, 1, 1, seed=1), random_dform(3, 1, 2, seed=2))


def test_compose_identity_and_matrix_product():
    n = 4
    w = random_dform(n, 1, 1, seed=91)
    assert compose(metric(n), w) == w
    assert compose(w, metric(n)) == w
    a = random_dform(n, 2, 2, seed=92)
    b = random_dform(n, 2, 2, seed=93)
    assert np.all(compose(a, b).mat == b.mat.dot(a.mat))


def test_compose_degree_mismatch_is_zero():
    a = random_dform(4, 1, 1, seed=94)
    b = random_dform(4, 2, 2, seed=95)
    assert compose(a, b).max_abs() == 0


def test_inner_as_full_contraction_of_composition():
    # <w1, w2> = c^p (w1^t o w2)/p! for (p, q) forms, p <= 3, n <= 6
    for (n, p, q) in [(4, 1, 1), (5, 2, 1), (6, 3, 2), (4, 2, 2)]:
        w1 = random_dform(n, p, q, seed=100 + n + p)
        w2 = random_dform(n, p, q, seed=200 + n + q)
        lhs = inner(w1, w2)
        rhs = contract_iter(compose(transpose(w1), w2), p).scalar() \
            * Fraction(1, factorial(p))
        assert lhs == rhs


def test_compose_power_examples():
    n = 4
    h = random_dform(n, 1, 1, seed=96)
    assert compose_power(h, 1) == h
    assert np.all(compose_power(h, 3).mat == h.mat.dot(h.mat).dot(h.mat))
    ident = compose_power(h, 0)
    assert ident == metric(n)  # g^1/1! is the identity of the (1,1) algebra
    d = DoubleForm(n, 1, 1, np.diag(np.arange(1, n + 1)))
    assert all(compose_power(d, 4).mat[i, i] == (i + 1) ** 4 for i in range(n))
    with pytest.raises(ValueError):
        compose_power(random_dform(n, 1, 2, seed=97), 2)


# -- Bianchi -----------------------------------------------------------------

def test_bianchi_metric_powers():
    assert bianchi_residual(metric_power(4, 2)) == 0
    assert bianchi_residual(metric_power(5, 3)) == 0


def test_bianchi_product_of_symmetric_forms():
    n = 5
    a = random_dform(n, 1, 1, seed=98, symmetric=True)
    b = random_dform(n, 1, 1, seed=99, symmetric=True)
    assert bianchi_residual(wedge(a, b)) == 0


def test_bianchi_generic_form_fails():
    w = DoubleForm.from_entries(4, 2, 2, {((0, 1), (0, 2)): 1})
    assert bianchi_residual(w) != 0


# -- scalar fields -----------------------------------------------------------

def test_float_field_operations():
    n = 3
    h = random_bilinear(n, 7, "symmetric", scalars.FLOAT64)
    assert h.field == scalars.FLOAT64
    val = inner(h, h)
    assert isinstance(val, float)
    w = wedge(h, h)
    assert w.mat.dtype == float


def test_field_mixing_rejected():
    a = random_bilinear(3, 1, "general", scalars.RATIONAL)
    b = random_bilinear(3, 1, "general", scalars.FLOAT64)
    with pytest.raises(ValueError):
        wedge(a, b)


def test_astype_round_trip():
    a = random_bilinear(3, 5, "general")
    f = a.astype(scalars.FLOAT64)
    back = f.astype(scalars.RATIONAL)
    assert back == a



# -- index tuples ------------------------------------------------------------

@pytest.mark.parametrize("access", [
    lambda h: h.entry((0, 1), (2,)),
    lambda h: wedge(h, h).entry((0,), (1,)),
    lambda h: ExteriorForm(4, 2, np.arange(6)).coeff((3,)),
    lambda h: DoubleForm.from_entries(4, 1, 1, {((0, 1), (2,)): 5}),
    lambda h: ExteriorForm.from_coeffs(4, 2, {(3,): 7}),
    lambda h: MultiForm(4, 1, 2, h.mat).entry([(1,)]),
    lambda h: MultiForm(4, 1, 2, h.mat).entry([(1,), (2,), (3,)]),
], ids=["entry", "wedge_entry", "coeff", "from_entries", "from_coeffs",
        "multiform_entry", "multiform_extra_slot"])
def test_index_tuples_of_the_wrong_size_are_refused(access):
    with pytest.raises(ValueError, match="do not match the slot degrees"):
        access(random_bilinear(4, 1))
