import ast
import contextlib
import functools
import hashlib
import importlib.util
import inspect
import itertools
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest

from conftest import random_dform, traced_peak
from dfalg import dform, invariants as inv, oracle, scalars
from dfalg.dform import (
    DoubleForm,
    contract,
    contract_iter,
    contract_with_metric,
    hodge,
    inner,
    metric,
    metric_power,
    metric_wedge_power,
    transpose,
    wedge,
    wedge_power,
)
from dfalg.fixtures import constant_curvature, random_bianchi, random_bilinear
from dfalg.multiindex import subsets


# -- s_k ---------------------------------------------------------------------

def test_s_k_of_metric_is_binomial():
    for n in range(2, 6):
        assert [inv.s_k(metric(n), k) for k in range(n + 1)] == \
            [comb(n, k) for k in range(n + 1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_s_k_is_principal_minor_sum(n):
    for seed in range(3):
        h = random_bilinear(n, 500 + seed)
        for k in range(n + 1):
            assert inv.s_k(h, k) == oracle.minor_sum_oracle(h.mat, k)


def test_s_n_is_determinant():
    h = random_bilinear(5, 77)
    assert inv.s_k(h, 5) == oracle.det_oracle(h.mat)


def test_s_k_range_errors():
    with pytest.raises(ValueError):
        inv.s_k(metric(3), 4)
    with pytest.raises(ValueError):
        inv.s_k(random_dform(3, 2, 2, seed=1), 1)


def _s_rq_on(h, r, q, path):
    """s_(r,q)(h) = h_(r,1q)(h)/q! on one path of h_rpq."""
    return inv.h_rpq(h, r, 1, q, path) * Fraction(1, factorial(q))


def test_s_k_dual_paths_agree():
    h = random_bilinear(5, 31)
    for k in range(6):
        star = _s_rq_on(h, 0, k, "hodge").scalar()
        assert star == _s_rq_on(h, 0, k, "contraction").scalar() == inv.s_k(h, k)


# -- sectional values: the diagonal of g^k h^r ---------------------------------------------------------

def test_sectional_value_of_pure_metric():
    # r = 0: the diagonal of g^k is k! whatever h is
    h = random_bilinear(4, 1)
    for k in (1, 2, 3):
        S = tuple(range(k))
        assert metric_wedge_power(h, k, 0).entry(S, S) == factorial(k)


def test_sectional_value_metric_case():
    n, k, r = 5, 2, 2
    S = (0, 1, 2, 3)
    assert metric_wedge_power(metric(n), k, r).entry(S, S) == \
        factorial(k) * factorial(r) * comb(k + r, r)


def test_sectional_value_is_restricted_minor_sum():
    n = 5
    h = random_bilinear(n, 321)
    # k = r = 1 on the subset {0, 2}: 1!1! * trace of the restriction
    assert metric_wedge_power(h, 1, 1).entry((0, 2), (0, 2)) == \
        h.mat[0, 0] + h.mat[2, 2]
    # general: k! r! s_r of the restricted matrix
    for S in [(0, 1, 2), (1, 3, 4)]:
        sub = h.mat[np.ix_(S, S)]
        for r in range(len(S) + 1):
            k = len(S) - r
            assert metric_wedge_power(h, k, r).entry(S, S) == \
                factorial(k) * factorial(r) * oracle.minor_sum_oracle(sub, r)


def test_sectional_value_subset_mismatch():
    with pytest.raises(ValueError):
        metric_wedge_power(random_bilinear(4, 1), 1, 1).entry((0, 1, 2), (0, 1, 2))


# -- t_k -----------------------------------------------------------------------

def test_t_0_is_metric():
    h = random_bilinear(4, 41)
    assert inv.t_k(h, 0) == metric(4)


def test_t_k_of_metric():
    n = 5
    for k in range(n):
        assert inv.t_k(metric(n), k) == comb(n - 1, k) * metric(n)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_t_top_is_cofactor_matrix(n):
    h = random_bilinear(n, 600 + n)
    assert np.all(inv.t_k(h, n - 1).mat == oracle.cofactor_oracle(h.mat))


def test_higher_determinants_do_not_match_minor_s_k():
    # off-diagonal entries of t_k differ from (-1)^(i+j) s_k of the
    # corresponding non-principal minor once 1 <= k < n-1 (diagonal entries
    # DO agree); record one concrete witness
    found = None
    for seed in range(10):
        h = random_bilinear(3, 700 + seed, "symmetric")
        t1 = inv.t_k(h, 1)
        sub = h.mat[np.ix_((1, 2), (0, 2))]  # delete row 0, column 1
        claimed = -(sub[0, 0] + sub[1, 1])  # (-1)^(0+1) s_1 of that minor
        if t1.mat[0, 1] != claimed:
            found = (seed, t1.mat[0, 1], claimed)
            break
    assert found is not None, "no counterexample found in the searched range"
    print(f"\nrecorded witness (n=3, k=1, entry (0,1)): seed {700 + found[0]}, "
          f"t_1 entry {found[1]} vs minor s_1 value {found[2]}")


def test_t_k_diagonal_matches_minor_s_k():
    # the diagonal comparison DOES hold, by the sectional-value lemma
    n = 4
    h = random_bilinear(n, 71, "symmetric")
    for k in range(1, n):
        tk = inv.t_k(h, k)
        for i in range(n):
            rest = tuple(j for j in range(n) if j != i)
            sub = h.mat[np.ix_(rest, rest)]
            assert tk.mat[i, i] == oracle.minor_sum_oracle(sub, k)


@pytest.mark.parametrize("field", scalars.FIELDS)
def test_t_or_top_builds_each_composition_power_once(field, monkeypatch):
    # the same sum as with compose_power(h^t, r) for each r, to the last bit
    # in float, from n composes in place of n(n+1)/2
    composes = []
    for n in range(1, 7):
        h = random_bilinear(n, 4100 + n, "general", field)
        ht = transpose(h)
        want = DoubleForm.zeros(n, 1, 1, field)
        for r in range(n + 1):
            want = want + ((-1) ** r * inv.s_k(h, n - r)) * dform.compose_power(ht, r)
        monkeypatch.setattr(inv, "compose", lambda a, b: composes.append(n) or
                            dform.compose(a, b))
        got = inv.t_or_top(h, n)
        monkeypatch.undo()
        assert got == want
        assert composes.count(n) == n


# -- s_rq -----------------------------------------------------------------------

def test_s_rq_special_cases():
    h = random_bilinear(5, 81, "symmetric")
    for q in range(5):
        assert inv.s_rq(h, 1, q) == inv.t_k(h, q)
    for q in range(6):
        assert inv.s_rq(h, 0, q).scalar() == inv.s_k(h, q)
    for r in range(6):
        assert inv.s_rq(h, r, 0) == metric_power(5, r) * Fraction(1, factorial(r))


def test_s_rq_dual_paths_on_overlap():
    h = random_bilinear(4, 82, "symmetric")
    for q in range(5):
        for r in range(0, 4 - q + 1):
            star = _s_rq_on(h, r, q, "hodge")
            assert star == _s_rq_on(h, r, q, "contraction") == inv.s_rq(h, r, q)


def test_s_rq_extension_requires_symmetry():
    h = random_bilinear(4, 83)  # not symmetric
    with pytest.raises(ValueError, match="symmetric"):
        _s_rq_on(h, 4, 2, "contraction")
    with pytest.raises(ValueError, match="Hodge-star path needs"):
        _s_rq_on(h, 4, 2, "hodge")
    with pytest.raises(ValueError, match="symmetric"):
        inv.s_rq(h, 4, 2)


def test_s_rq_eigenvalues_of_diagonal_form():
    # diagonal h: s_(r,q) is diagonal with entries the sums of q-fold
    # eigenvalue products disjoint from the row multi-index
    n, r, q = 4, 2, 2
    lam = [2, -1, 3, 5]
    h = DoubleForm(n, 1, 1, np.diag(lam))
    srq = inv.s_rq(h, r, q)
    import itertools
    for ri, I in enumerate(subsets(n, r)):
        others = [j for j in range(n) if j not in I]
        expect = sum(lam[a] * lam[b] for a, b in itertools.combinations(others, q))
        for rj in range(comb(n, r)):
            assert srq.mat[ri, rj] == (expect if rj == ri else 0)


# -- char polys ------------------------------------------------------------------

def test_char_poly_s_of_metric():
    n = 4
    cp = inv.char_poly_s(metric(n))
    for lam in range(-2, 3):
        assert cp(lam) == (1 - lam) ** n


def test_char_poly_s_random_matches_det():
    n = 4
    h = random_bilinear(n, 91)
    cp = inv.char_poly_s(h)
    for lam in range(0, n + 1):
        M = h.mat - lam * np.eye(n, dtype=object)
        assert cp(lam) == oracle.det_oracle(M)


def test_char_poly_s_n2_pattern():
    h = random_bilinear(2, 92)
    cp = inv.char_poly_s(h)
    assert cp.coeffs == [inv.s_k(h, 2), -inv.s_k(h, 1), 1]


def test_char_poly_t_constant_term_and_samples():
    n = 4
    h = random_bilinear(n, 93)
    cp = inv.char_poly_t(h)
    assert cp.degree == n - 1
    assert cp.coeffs[0] == inv.t_k(h, n - 1)
    for lam in range(3):
        assert cp(lam) == inv.t_k(h - lam * metric(n), n - 1)


def test_char_poly_srq_samples():
    n = 4
    h = random_bilinear(n, 94, "symmetric")
    for r in (1, 2):
        cp = inv.char_poly_srq(h, r)
        assert cp.degree == n - r
        for lam in range(3):
            expect = hodge(wedge_power(h - lam * metric(n), n - r)) \
                * Fraction(1, factorial(n - r))
            assert cp(lam) == expect


def test_char_poly_hn_samples_and_degree():
    n = 4
    R = random_bianchi(n, 2, 2, seed=95)
    cp = inv.char_poly_hn(R)
    assert cp.degree == n // 2
    base = metric_power(n, 2) * Fraction(1, 2)
    for lam in range(4):
        assert cp(lam) == inv.h_2k(R - lam * base, n // 2)
    Z = DoubleForm.zeros(n, 2, 2)
    cpz = inv.char_poly_hn(Z)
    assert all(c == 0 for c in cpz.coeffs[:-1])
    assert cpz.coeffs[-1] == Fraction((-1) ** (n // 2), 2 ** (n // 2)) * factorial(n)


def test_char_poly_hn_odd_dimension_rejected():
    with pytest.raises(ValueError):
        inv.char_poly_hn(random_bianchi(5, 2, 1, seed=96))


# -- power sums -------------------------------------------------------------------

def test_power_sums_trace_and_metric():
    n = 4
    h = random_bilinear(n, 97)
    ps = inv.power_sums(h, 3)
    assert ps[0] == sum(h.mat[i, i] for i in range(n))
    assert inv.power_sums(metric(n), 5) == [n] * 5


@pytest.mark.parametrize("n", range(2, 7))
def test_newton_recurrence_exact(n):
    h = random_bilinear(n, 1000 + n)
    ss = [inv.s_k(h, k) for k in range(n + 1)]
    ps = inv.power_sums(h, n)
    for r in range(1, n + 1):
        assert r * ss[r] == sum((-1) ** (i + 1) * ss[r - i] * ps[i - 1]
                                for i in range(1, r + 1))


# -- s_k of sums --------------------------------------------------------------------

def test_s_k_of_sum_edge_cases():
    n = 4
    A = random_bilinear(n, 98, "symmetric")
    Z = DoubleForm.zeros(n, 1, 1)
    for k in range(n + 1):
        assert inv.s_k_of_sum(A, Z, k) == inv.s_k(A, k)
    g = metric(n)
    for k in range(n + 1):
        assert inv.s_k_of_sum(g, g, k) == comb(n, k) * 2 ** k


def test_s_k_of_sum_random():
    n = 4
    A = random_bilinear(n, 99, "symmetric")
    B = random_bilinear(n, 100)
    for k in range(n + 1):
        assert inv.s_k_of_sum(A, B, k) == inv.s_k(A + B, k)


# -- Gauss-Bonnet family -----------------------------------------------------------

def test_h_2k_constant_curvature_closed_form():
    for n in (4, 5, 6):
        R = constant_curvature(n, 1)
        for k in range(n // 2 + 1):
            assert inv.h_2k(R, k) == Fraction(factorial(n), 2 ** k * factorial(n - 2 * k))
        R0 = constant_curvature(n, 0)
        assert all(inv.h_2k(R0, k) == 0 for k in range(1, n // 2 + 1))


def test_h_2k_h0_is_one():
    R = random_bianchi(4, 2, 2, seed=101)
    assert inv.h_2k(R, 0) == 1


def test_einstein_tensor():
    for n in (3, 4, 5):
        R = constant_curvature(n, 1)
        assert inv.T_2k(R, 1) == Fraction((n - 1) * (n - 2), 2) * metric(n)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_h_T_N_dual_paths(n):
    R = random_bianchi(n, 2, 2, seed=1100 + n)
    for k in range(n // 2 + 1):
        star = inv.h_rpq(R, 0, 2, k, "hodge")
        assert star == inv.h_rpq(R, 0, 2, k, "contraction")
        assert star.scalar() == inv.h_2k(R, k)
    for k in range(1, (n - 1) // 2 + 1):
        star = inv.h_rpq(R, 1, 2, k, "hodge")
        assert star == inv.h_rpq(R, 1, 2, k, "contraction") == inv.T_2k(R, k)
    for k in range(1, (n - 2) // 2 + 1):
        star = inv.h_rpq(R, 2, 2, k, "hodge")
        assert star == inv.h_rpq(R, 2, 2, k, "contraction") == inv.N_2k(R, k)


def test_degree_bounds():
    R = random_bianchi(4, 2, 1, seed=102)
    with pytest.raises(ValueError):
        inv.h_2k(R, 3)
    with pytest.raises(ValueError):
        inv.T_2k(R, 2)
    with pytest.raises(ValueError):
        inv.N_2k(R, 2)


# -- one door: only h_rpq takes a path, and FAMILIES gives every family's orders ----

def test_h_rpq_is_the_only_public_function_that_takes_a_path():
    takers = [name for name, fn in inspect.getmembers(inv, inspect.isfunction)
              if not name.startswith("_") and "path" in inspect.signature(fn).parameters]
    assert takers == ["h_rpq"]


def test_identities_pass_a_path_to_h_rpq_only():
    from dfalg import identities

    tree = ast.parse(inspect.getsource(identities))
    callees = {ast.unparse(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and any(kw.arg == "path" for kw in node.keywords)}
    assert callees == {"h_rpq"}


# the orders each family's own range check allowed before the table
ORDERS_BEFORE_THE_TABLE = {
    "s": lambda n: range(0, n + 1),
    "t": lambda n: range(0, n),
    "h2k": lambda n: range(0, n // 2 + 1),
    "T": lambda n: range(1, (n - 1) // 2 + 1),
    "N": lambda n: range(1, (n - 2) // 2 + 1),
}


def test_family_orders_keep_every_family_range():
    assert set(inv.FAMILIES) == set(ORDERS_BEFORE_THE_TABLE)
    for n in range(13):
        for family, orders in ORDERS_BEFORE_THE_TABLE.items():
            assert list(inv.family_orders(family, n)) == list(orders(n)), (family, n)


def test_family_functions_take_exactly_their_orders():
    functions = {"s": inv.s_k, "t": inv.t_k, "h2k": inv.h_2k, "T": inv.T_2k, "N": inv.N_2k}
    for n in range(2, 7):
        forms = {1: random_bilinear(n, 3000 + n, "symmetric"), 2: constant_curvature(n, 1)}
        for family, fn in functions.items():
            orders = inv.family_orders(family, n)
            w = forms[inv.FAMILIES[family][1]]
            for k in (orders.start - 1, orders.stop):
                with pytest.raises(ValueError, match="out of range"):
                    fn(w, k)
            for k in orders:
                fn(w, k)


# -- h_rpq ---------------------------------------------------------------------------

def test_h_rpq_reductions_bilinear():
    n = 4
    h = random_bilinear(n, 103, "symmetric")
    for q in range(1, n):
        assert inv.h_rpq(h, 0, 1, q).scalar() == factorial(q) * inv.s_k(h, q)
        for r in range(n - q + 1):
            assert inv.h_rpq(h, r, 1, q) == factorial(q) * inv.s_rq(h, r, q)


def test_h_rpq_reductions_22():
    n = 5
    R = random_bianchi(n, 2, 2, seed=104)
    for q in range(1, n // 2 + 1):
        assert inv.h_rpq(R, 0, 2, q).scalar() == inv.h_2k(R, q)
    for q in range(1, (n - 1) // 2 + 1):
        assert inv.h_rpq(R, 1, 2, q) == inv.T_2k(R, q)
    for q in range(1, (n - 2) // 2 + 1):
        assert inv.h_rpq(R, 2, 2, q) == inv.N_2k(R, q)


def test_h_rpq_dual_paths_33():
    n = 6
    w = random_bianchi(n, 3, 2, seed=105)
    for r in range(0, n - 3 + 1):
        assert inv.h_rpq(w, r, 3, 1, "hodge") == inv.h_rpq(w, r, 3, 1, "contraction")


# -- the one contraction series against hand-written expansions ------------------------
#
# Each reference below writes one family's metric-power/contraction expansion
# out term by term, calling contract_iter afresh for every power of c, so it
# shares no summation code with h_rpq.


def _s_rq_series(h, r, q):
    n = h.n
    out = DoubleForm.zeros(n, r, r)
    hq = wedge_power(h, q)
    for i in range(max(0, q - r), q + 1):
        m = i + r - q
        if m > n:
            continue
        coeff = Fraction((-1) ** (i + q), factorial(i) * factorial(q) * factorial(m))
        out = out + wedge(metric_power(n, m), contract_iter(hq, i)) * coeff
    return out


def _T_series(R, k):
    Rk = wedge_power(R, k)
    return wedge(metric(R.n), contract_iter(Rk, 2 * k)) * Fraction(1, factorial(2 * k)) \
        - contract_iter(Rk, 2 * k - 1) * Fraction(1, factorial(2 * k - 1))


def _N_series(R, k):
    n = R.n
    Rk = wedge_power(R, k)
    return contract_iter(Rk, 2 * k - 2) * Fraction(1, factorial(2 * k - 2)) \
        - wedge(metric(n), contract_iter(Rk, 2 * k - 1)) * Fraction(1, factorial(2 * k - 1)) \
        + wedge(metric_power(n, 2), contract_iter(Rk, 2 * k)) * Fraction(1, 2 * factorial(2 * k))


def _g_power_star_series(w, m):
    n, p = w.n, w.p
    k = m + p
    out = DoubleForm.zeros(n, n - k, n - k)
    for r in range(max(0, p - n + k), p + 1):
        mm = n - k - p + r
        coeff = Fraction((-1) ** (r + p), factorial(r) * factorial(mm))
        out = out + wedge(metric_power(n, mm), contract_iter(w, r)) * coeff
    return out


@pytest.mark.parametrize("n", range(2, 7))
def test_s_rq_contraction_matches_hand_written_series(n):
    h = random_bilinear(n, 2200 + n, "symmetric")
    for q in range(n + 1):
        for r in range(n + 1):
            assert _s_rq_on(h, r, q, "contraction") == _s_rq_series(h, r, q)
    # the families, on the paths "auto" picks, against the same series
    for k in range(n + 1):
        assert inv.s_k(h, k) == _s_rq_series(h, 0, k).scalar()
    for k in range(n):
        assert inv.t_k(h, k) == _s_rq_series(h, 1, k)


@pytest.mark.parametrize("n", range(2, 7))
def test_T_N_contraction_match_hand_written_series(n):
    R = random_bianchi(n, 2, 2, seed=2300 + n)
    # up to the top degree 2k = n, where h_rpq extends T_2k and N_2k
    for k in range(1, n // 2 + 1):
        assert inv.h_rpq(R, 1, 2, k, "contraction") == _T_series(R, k)
        assert inv.h_rpq(R, 2, 2, k, "contraction") == _N_series(R, k)
    # the families, on the paths "auto" picks, against the same series
    for k in range(1, (n - 1) // 2 + 1):
        assert inv.T_2k(R, k) == _T_series(R, k)
    for k in range(1, (n - 2) // 2 + 1):
        assert inv.N_2k(R, k) == _N_series(R, k)


@pytest.mark.parametrize("n", range(2, 7))
def test_g_power_star_expansion_matches_hand_written_series(n):
    for p in range(1, min(n, 3) + 1):
        w = random_bianchi(n, p, 2, seed=2400 + 10 * n + p)
        for m in range(n - p + 1):
            assert inv.g_power_star_expansion(w, m) == _g_power_star_series(w, m)


# -- Jacobi ---------------------------------------------------------------------------

def test_jacobi_zero_direction():
    n = 3
    h0 = random_bilinear(n, 106)
    z = DoubleForm.zeros(n, 1, 1)
    lhs, rhs = inv.jacobi_derivative(h0, z, 2)
    assert lhs == 0 and rhs == 0


def test_jacobi_metric_direction():
    n = 4
    lhs, rhs = inv.jacobi_derivative(metric(n), metric(n), 1)
    assert lhs == rhs == n


@pytest.mark.parametrize("n", range(2, 6))
def test_jacobi_all_orders(n):
    h0 = random_bilinear(n, 1200 + n)
    v = random_bilinear(n, 1300 + n)
    for k in range(1, n + 1):
        lhs, rhs = inv.jacobi_derivative(h0, v, k)
        assert lhs == rhs


@pytest.mark.parametrize("n", (4, 5))
def test_jacobi_double_form(n):
    R0 = random_bianchi(n, 2, 2, seed=1400 + n)
    V = random_bianchi(n, 2, 2, seed=1500 + n)
    for k in (1, 2):
        lhs, rhs = inv.jacobi_double_form(R0, V, k)
        assert lhs == rhs


def test_jacobi_double_form_closed_form_fixture():
    # R0 = V = g^2/2: h_2k((1+t) R0) = (1+t)^k h_2k(R0)
    n = 5
    R0 = constant_curvature(n, 1)
    for k in (1, 2):
        lhs, rhs = inv.jacobi_double_form(R0, R0, k)
        assert lhs == rhs == k * inv.h_2k(R0, k)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_jacobi_with_metric(n):
    h0 = random_bilinear(n, 1600 + n)
    v = random_bilinear(n, 1700 + n)
    w = random_bilinear(n, 1800 + n, "symmetric")
    for k in range(1, n + 1):
        lhs, rhs = inv.jacobi_with_metric(h0, v, metric(n), w, k)
        assert lhs == rhs


def test_jacobi_with_metric_reduces_at_zero_variation():
    n = 3
    h0 = random_bilinear(n, 107)
    v = random_bilinear(n, 108)
    z = DoubleForm.zeros(n, 1, 1)
    for k in (1, 2, 3):
        lhs, rhs = inv.jacobi_with_metric(h0, v, metric(n), z, k)
        l2, r2 = inv.jacobi_derivative(h0, v, k)
        assert (lhs, rhs) == (l2, r2)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 1), (5, 2)])
def test_jacobi_double_form_with_metric(n, k):
    R0 = random_bianchi(n, 2, 2, seed=1900 + n)
    V = random_bianchi(n, 2, 1, seed=2000 + n)
    w = random_bilinear(n, 2100 + n, "symmetric")
    lhs, rhs = inv.jacobi_double_form_with_metric(R0, V, metric(n), w, k)
    assert lhs == rhs


def test_jacobi_with_metric_validates_frame():
    n = 3
    h0 = random_bilinear(n, 109)
    with pytest.raises(ValueError):
        inv.jacobi_with_metric(h0, h0, 2 * metric(n), h0, 1)


# -- exact slopes of sampled polynomials -----------------------------------------------

def ref_interpolate(points):
    """Every coefficient of the polynomial through (x, y) points, by the
    Lagrange loop: every basis polynomial in Fractions."""
    pts = list(points)
    deg = len(pts) - 1
    coeffs = None
    for i, (xi, yi) in enumerate(pts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            denom *= Fraction(xi - xj)
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] += c * (-xj)
                new[d + 1] += c
            basis = new
        scaled = [c / denom for c in basis]
        terms = [yi * c for c in scaled] + [yi * Fraction(0)] * (deg + 1 - len(scaled))
        if coeffs is None:
            coeffs = terms
        else:
            coeffs = [a + b for a, b in zip(coeffs, terms)]
    return coeffs


def _samples(xs, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "int":
        return [int(v) for v in rng.integers(-50, 51, len(xs))]
    if kind == "fraction":
        return [Fraction(int(a), int(b)) for a, b in
                zip(rng.integers(-50, 51, len(xs)), rng.integers(1, 12, len(xs)))]
    if kind == "float":
        return [float(v) for v in rng.uniform(-5.0, 5.0, len(xs))]
    return [random_bilinear(3, seed + i) * Fraction(i + 1, 3) for i in range(len(xs))]


@pytest.mark.parametrize("d", range(25))
@pytest.mark.parametrize("kind", ("int", "fraction", "float", "form"))
def test_interpolate_is_the_lagrange_slope_at_zero(d, kind):
    ys = _samples(range(d + 1), 3000 + d, kind)
    got = inv.interpolate(ys)
    want = (ref_interpolate(enumerate(ys)) + [0 * ys[0]])[1]  # p' = 0 at d = 0
    if kind == "float":
        assert isinstance(got, float)
        assert abs(got - want) <= 1e-12 * abs(want)
    else:
        assert got == want
        assert type(got) is (DoubleForm if kind == "form" else Fraction) or d == 0


def test_interpolate_recovers_a_known_slope():
    coeffs = [Fraction(3, 7), -2, 0, Fraction(5, 3), 1]
    for d in range(4, 9):
        ys = [inv.CharPoly("p", coeffs)(t) for t in range(d + 1)]
        assert inv.interpolate(ys) == -2


# -- Jacobi sampling with the determinant polynomial ----------------------------------

def ref_rational_derivative_at_zero(sample_fn, metric_fn, m, num_degree, n):
    """The loop the determinant polynomial replaced: a determinant at every sample."""
    need_n = num_degree + 1
    xs, ys, ds = [], [], []
    t = 0
    while len(xs) < max(need_n, n + 1):
        d = inv.s_k(metric_fn(t), n)
        if d != 0:
            xs.append(t)
            ds.append(d)
            ys.append(sample_fn(t) * d ** m)
        t += 1
    ncoef = ref_interpolate(list(zip(xs, ys))[:need_n])
    dcoef = ref_interpolate(list(zip(xs, ds))[:n + 1])
    n1 = ncoef[1] if len(ncoef) > 1 else 0
    d1 = dcoef[1] if len(dcoef) > 1 else 0
    return n1 - m * ncoef[0] * d1


def _counting_det(monkeypatch):
    calls = []
    det = inv._det_bilinear

    def counted(G):
        calls.append(G)
        return det(G)

    monkeypatch.setattr(inv, "_det_bilinear", counted)
    return calls


# lhs of the replaced sample-every-t loop for the fixtures below, (n, k) -> lhs
SINGULAR_PENCIL_LHS = {
    (4, 1): Fraction(339, 7), (5, 1): Fraction(39, 4), (5, 2): -1710,
    (6, 1): -76, (6, 2): Fraction(29156, 3),
}


@pytest.mark.parametrize("n,k", sorted(SINGULAR_PENCIL_LHS))
def test_jacobi_double_form_with_metric_samples_t_0_to_n_of_a_late_singular_pencil(
        monkeypatch, n, k):
    # G(t) = (1 - t/(n + 3)) g is singular at t = n + 3, past the n + 1
    # determinants sampled, so the sampling never reaches it
    R0 = random_bianchi(n, 2, 2, seed=1900 + n)
    V = random_bianchi(n, 2, 1, seed=2000 + n)
    g = metric(n)
    w = g * Fraction(-1, n + 3)
    num_degree = 2 * k * (n - 1) + k
    assert num_degree + 1 > n + 3
    calls = _counting_det(monkeypatch)
    lhs, rhs = inv.jacobi_double_form_with_metric(R0, V, g, w, k)
    assert len(calls) == n + 1
    assert lhs == rhs == SINGULAR_PENCIL_LHS[n, k]
    reference = ref_rational_derivative_at_zero(
        lambda t: inv.h_2k_metric(R0 + t * V, g + t * w, k), lambda t: g + t * w,
        2 * k, num_degree, n)
    assert lhs == reference


@pytest.mark.parametrize("n", (2, 3, 4))
def test_jacobi_with_metric_samples_t_0_to_n_of_an_early_singular_pencil(monkeypatch, n):
    # G(t) = (1 - t) g is singular at t = 1, among the determinants sampled
    h0 = random_bilinear(n, 1600 + n)
    v = random_bilinear(n, 1700 + n)
    g = metric(n)
    w = -g
    for k in range(1, n + 1):
        calls = _counting_det(monkeypatch)
        lhs, rhs = inv.jacobi_with_metric(h0, v, g, w, k)
        assert len(calls) == n + 1  # det G at t = 0, ..., n, the zero at t = 1 among them
        assert lhs == rhs
        reference = ref_rational_derivative_at_zero(
            lambda t: inv.s_k_metric(h0 + t * v, g + t * w, k), lambda t: g + t * w,
            1, n, n)
        assert lhs == reference


def _bench_jacobi_cases(seed):
    """The inputs of the benchmark's jacobi_metric workload, rebuilt here."""
    seeds = itertools.count(seed * 1000)
    cases = []
    for n in range(2, 7):
        g = metric(n)
        h0 = random_bilinear(n, next(seeds))
        v = random_bilinear(n, next(seeds))
        w = random_bilinear(n, next(seeds), "symmetric")
        cases += [("jacobi_derivative", n, k, (h0, v, k)) for k in range(1, n + 1)]
        cases += [("jacobi_with_metric", n, k, (h0, v, g, w, k)) for k in range(1, n + 1)]
        R0 = random_bianchi(n, 2, 2, next(seeds))
        V = random_bianchi(n, 2, 2, next(seeds))
        W = random_bilinear(n, next(seeds), "symmetric")
        cases += [("jacobi_double_form", n, k, (R0, V, k))
                  for k in range(1, n // 2 + 1)]
        cases += [("jacobi_double_form_with_metric", n, k, (R0, V, g, W, k))
                  for k in range(1, (n - 1) // 2 + 1)]
    return cases


# sha256 of the "fn n=.. k=.. lhs=.. rhs=.." listing over _bench_jacobi_cases(1),
# the same text as the jacobi_metric report at seed 1
JACOBI_SEED_1_SHA256 = "896f18586f5fa46e8a1d974bf2828b86645e173ed8c9fe439f5880e31aaff959"


def test_jacobi_values_are_pinned():
    lines = []
    for fn, n, k, args in _bench_jacobi_cases(1):
        lhs, rhs = getattr(inv, fn)(*args)
        assert lhs == rhs, (fn, n, k)
        lines.append(f"{fn} n={n} k={k} lhs={lhs} rhs={rhs}\n")
    assert len(lines) == 55
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == JACOBI_SEED_1_SHA256


def test_jacobi_metric_kernel_counts(monkeypatch):
    # counts are deterministic where times are not; each sample of the
    # form's direction is the trace of one wedge_power of w(t), and each
    # of the metric's direction one wedge_power of G(t) paired with the
    # star of w0^k, built once; no metric is inverted or contracted, and
    # det G runs no kernel
    cases = _bench_jacobi_cases(1)
    runs = {"wedge": 0, "star": 0, "contract": 0, "invert": 0}

    def counted(kind, fn, when=lambda *args: True):
        def wrapper(*args):
            runs[kind] += when(*args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dform, "_wedge", counted("wedge", dform._wedge))
    monkeypatch.setattr(dform, "_star", counted("star", dform._star))
    monkeypatch.setattr(dform, "_contract", counted("contract", dform._contract))
    invert = counted("invert", dform._invert_metric)
    monkeypatch.setattr(dform, "_invert_metric", invert)
    monkeypatch.setattr(inv, "_invert_metric", invert)
    det = inv._det_bilinear

    def det_without_kernels(G):
        before = dict(runs)
        d = det(G)
        assert runs == before
        return d

    monkeypatch.setattr(inv, "_det_bilinear", det_without_kernels)
    for fn, n, k, args in cases:
        getattr(inv, fn)(*args)
    assert runs["wedge"] == 566
    assert runs["star"] == 89
    assert runs["contract"] == 0
    assert runs["invert"] == 0


def test_metric_jacobi_matches_the_contraction_path_on_the_bench_cases():
    # the reference loop samples s_k_metric or h_2k_metric, the pairing
    # with a power of G^-1, times det(G)^(pk), a polynomial of degree
    # pk(n - 1) + k with no minor theorem needed
    metric_cases = [case for case in _bench_jacobi_cases(1) if "metric" in case[0]]
    assert len(metric_cases) == 26
    for fn, n, k, (w0, V, g, W, _) in metric_cases:
        p = w0.p
        scalar = inv.s_k_metric if p == 1 else inv.h_2k_metric
        lhs, rhs = getattr(inv, fn)(w0, V, g, W, k)
        reference = ref_rational_derivative_at_zero(
            lambda t: scalar(w0 + t * V, g + t * W, k), lambda t: g + t * W,
            p * k, p * k * (n - 1) + k, n)
        assert lhs == rhs == reference, (fn, n, k)


def _load_bench_workloads(monkeypatch):
    """bench/workloads.py, loaded from its file; it is read, never changed."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", (1, 1009))
def test_bench_jacobi_cases_are_the_benchmark_inputs(monkeypatch, seed):
    # the sha256 pin and the kernel counts above hold on what the
    # benchmark runs only while the two case lists agree
    ours = _bench_jacobi_cases(seed)
    theirs = _load_bench_workloads(monkeypatch)._jacobi_cases(seed)
    assert [case[:3] for case in ours] == [case[:3] for case in theirs]
    for (*_, mine), (*_, bench) in zip(ours, theirs):
        assert len(mine) == len(bench)
        for a, b in zip(mine, bench):
            assert type(a) is type(b) and a == b


def _jacobi_args(name):
    """The arguments of one call of the named Jacobi identity at n = 5."""
    n = 5
    g = metric(n)
    h0, v = random_bilinear(n, 1), random_bilinear(n, 2)
    w = random_bilinear(n, 3, "symmetric")
    R0, V = random_bianchi(n, 2, 2, 4), random_bianchi(n, 2, 2, 5)
    return {"jacobi_derivative": (h0, v, 3),
            "jacobi_double_form": (R0, V, 2),
            "jacobi_with_metric": (h0, v, g, w, n),
            "jacobi_double_form_with_metric": (R0, V, g, w, 2)}[name]


@pytest.mark.parametrize("name", ["jacobi_derivative", "jacobi_double_form",
                                  "jacobi_with_metric", "jacobi_double_form_with_metric"])
def test_jacobi_base_point_memo_is_closed_and_leaves_a_callers_memo(name):
    # the base point's memo is the function's own: none is left open after
    # it, a caller's memo is open again after it, and the pair is the same
    fn, args = getattr(inv, name), _jacobi_args(name)
    outside = fn(*args)
    assert outside[0] == outside[1]
    assert dform._POWER_MEMO.get() is None
    with dform.power_memo():
        callers = dform._POWER_MEMO.get()
        inside = fn(*args)
        assert dform._POWER_MEMO.get() is callers
    assert inside == outside
    assert dform._POWER_MEMO.get() is None


def test_jacobi_with_metric_keeps_no_sample_in_its_memo():
    # the memo covers the base point only: about 1.03 MiB with no memo,
    # 1.05 MiB with the base point's, 1.21 MiB with a memo around the whole
    # call, which keeps every sample's powers
    n = 7
    args = (random_bilinear(n, 1), random_bilinear(n, 2), metric(n),
            random_bilinear(n, 3, "symmetric"), 4)
    (lhs, rhs), peak = traced_peak(inv.jacobi_with_metric, *args)
    assert lhs == rhs
    assert peak <= 1.10 * 2 ** 20


def test_jacobi_shares_a_callers_memo_and_keeps_no_sample_in_it(monkeypatch):
    # the base point's block reuses a caller's memo, so h0's powers are
    # built once for every k; the samples at t >= 1 run with no memo
    n = 6
    h0, v, g = random_bilinear(n, 1), random_bilinear(n, 2), metric(n)
    w = random_bilinear(n, 3, "symmetric")
    wedges = []
    kernel = dform._wedge

    def counting(*args):
        wedges.append(1)
        return kernel(*args)

    monkeypatch.setattr(dform, "_wedge", counting)
    outside = [inv.jacobi_with_metric(h0, v, g, w, k) for k in range(1, n + 1)]
    alone = len(wedges)
    wedges.clear()
    with dform.power_memo():
        inside = [inv.jacobi_with_metric(h0, v, g, w, k) for k in range(1, n + 1)]
        kept = [form for form, _ in dform._POWER_MEMO.get().values()]
    assert inside == outside
    assert all(lhs == rhs for lhs, rhs in inside)
    assert len(wedges) < alone
    samples = [x + t * dx for x, dx in ((h0, v), (g, w)) for t in range(1, n + 1)]
    assert not [form for form in kept for s in samples
                if form.bidegree == (1, 1) and form == s]


@pytest.mark.parametrize("n", range(1, 8))
def test_the_trace_of_a_power_is_the_0_pk_cofactor(n):
    # h_(0,pk)(w) = *(g^(n-pk) w^k)/(n-pk)! = c^pk(w^k)/(pk)!, the trace
    forms = [random_bilinear(n, 70 + n, "symmetric"), random_bilinear(n, 80 + n)]
    if n >= 2:
        forms.append(random_bianchi(n, 2, 2, 90 + n))
    if n >= 3:
        forms.append(random_bianchi(n, 3, 2, 100 + n))
    for w in forms:
        p = w.p
        for k in range(0, n // p + 1):
            tr = dform.trace(wedge_power(w, k))
            assert tr == inv.h_rpq(w, 0, p, k, "hodge").scalar(), (p, k)
            assert tr == inv.h_rpq(w, 0, p, k, "contraction").scalar(), (p, k)
    approx = dform.trace(wedge_power(random_bilinear(n, 5, field=scalars.FLOAT64), 1))
    assert isinstance(approx, float)


def test_each_direction_of_the_metric_jacobi_is_its_half_of_the_right_side():
    # f'(0) = the V direction + the W direction, and each one-direction
    # derivative equals its own half of the right side
    metric_cases = [case for case in _bench_jacobi_cases(1) if "metric" in case[0]]
    assert len(metric_cases) == 26
    for fn, n, k, (w0, V, g, W, _) in metric_cases:
        p = w0.p
        c = Fraction(1, factorial(k) if p == 1 else 1)
        h0 = inv.h_rpq(w0, 0, p, k).scalar() * c
        top = inv.t_or_top(w0, k) if p == 1 else inv.h_rpq(w0, 1, p, k) * c
        d_v = k * inner(inv.h_rpq(w0, p, p, k - 1), V) * c
        d_w = inner(top - g * h0, W)
        assert inv._jacobi(w0, V, k) == (d_v, d_v), (fn, n, k)
        assert inv._jacobi_metric(w0, V, g, 0 * W, k) == (d_v, d_v), (fn, n, k)
        assert inv._jacobi_metric(w0, 0 * V, g, W, k) == (d_w, d_w), (fn, n, k)
        assert inv._jacobi_metric(w0, V, g, W, k) == (d_v + d_w, d_v + d_w), (fn, n, k)


def _jacobi_listing_sha256(seed):
    """sha256 of the "fn n=.. k=.. lhs=.. rhs=.." listing over _bench_jacobi_cases(seed)."""
    lines = []
    for fn, n, k, args in _bench_jacobi_cases(seed):
        lhs, rhs = getattr(inv, fn)(*args)
        assert lhs == rhs, (fn, n, k)
        lines.append(f"{fn} n={n} k={k} lhs={lhs} rhs={rhs}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


# the listing at seed 1009, the benchmark's second seed, taken before the
# four Jacobi functions became calls of _jacobi and _jacobi_metric
JACOBI_SEED_1009_SHA256 = "61d1e76db0b76c3c9d19265590ebd165c4abe418ee1c920d8f960ce2ef84809b"


def test_jacobi_values_are_pinned_at_a_second_seed():
    assert _jacobi_listing_sha256(1009) == JACOBI_SEED_1009_SHA256


# name -> (first order, last order) at n = 5: 1 <= k <= n, 1 <= 2k <= n,
# 1 <= k <= n and 1 <= 2k <= n - 1, where T_2k enters the right side
JACOBI_ORDERS_AT_5 = {"jacobi_derivative": (1, 5), "jacobi_double_form": (1, 2),
                      "jacobi_with_metric": (1, 5), "jacobi_double_form_with_metric": (1, 2)}


@pytest.mark.parametrize("name", sorted(JACOBI_ORDERS_AT_5))
def test_jacobi_functions_keep_their_orders(monkeypatch, name):
    fn, (*args, _) = getattr(inv, name), _jacobi_args(name)
    first, last = JACOBI_ORDERS_AT_5[name]
    for k in (first, last):
        lhs, rhs = fn(*args, k)
        assert lhs == rhs, k

    def started(*_):
        raise AssertionError("a refused order ran a wedge")

    monkeypatch.setattr(dform, "_wedge", started)
    for k in (0, last + 1):
        with pytest.raises(ValueError):
            fn(*args, k)


def test_jacobi_refuses_an_over_budget_power_before_the_first_wedge(monkeypatch):
    # at n = 15 the right side's chain h, ..., h^5 fits and h^6, C(15, 6)^2
    # entries, does not: the order is refused before the right side's wedges
    n = 15
    h0, v = random_bilinear(n, 1), random_bilinear(n, 2)
    w = random_bilinear(n, 3, "symmetric")

    def started(*_):
        raise AssertionError("an over-budget order ran a wedge")

    monkeypatch.setattr(dform, "_wedge", started)
    with pytest.raises(ValueError, match="dense entries, above the limit"):
        inv.jacobi_derivative(h0, v, 6)
    with pytest.raises(ValueError, match="dense entries, above the limit"):
        inv.jacobi_with_metric(h0, v, metric(n), w, 10)


# (n, k) -> lhs = rhs of _jacobi and _jacobi_metric on the (3, 3) forms below
JACOBI_P3 = {(6, 1): 422, (6, 2): -69692, (7, 1): 408, (7, 2): 105248}
JACOBI_METRIC_P3 = {(6, 1): 1023, (7, 1): 2626, (7, 2): 2402704}


@pytest.mark.parametrize("n", (6, 7))
def test_jacobi_statements_are_general_in_p(n):
    # no code is written for p = 3: the (3, 3) identities are the one statement
    R0 = random_bianchi(n, 3, 2, 11 + n)
    V = random_bianchi(n, 3, 2, 21 + n)
    W = random_bilinear(n, 31 + n, "symmetric")
    plain = {(n, k): inv._jacobi(R0, V, k) for k in range(1, n // 3 + 1)}
    varied = {(n, k): inv._jacobi_metric(R0, V, metric(n), W, k)
              for k in range(1, (n - 1) // 3 + 1)}
    assert plain == {key: (v, v) for key, v in JACOBI_P3.items() if key[0] == n}
    assert varied == {key: (v, v) for key, v in JACOBI_METRIC_P3.items() if key[0] == n}


def _finite_differences(values):
    """The forward differences of values at the first point, orders 0, 1, ..."""
    out = []
    while values:
        out.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return out


def _metric_samples(f, h0, v, g, w, k, count):
    """f(h0 + t v, g + t w, k) det(g + t w) at t = 0, ..., count - 1."""
    out = []
    for t in range(count):
        G = g + t * w
        d = inv._det_bilinear(G)
        assert d != 0
        out.append(f(h0 + t * v, G, k) * d)
    return out


@pytest.mark.parametrize("n", range(3, 8))
def test_metric_samples_times_det_have_the_sampled_degree(n):
    # N(t) = f det(G): degree n - (p - 1)k (complementary minors), so n - k
    # for h_2k, n for s_k and n - 2k for the (3, 3) scalar
    g = metric(n)
    w = random_bilinear(n, 2100 + n, "symmetric")
    R0 = random_bianchi(n, 2, 2, seed=1900 + n)
    V = random_bianchi(n, 2, 1, seed=2000 + n)
    h0 = random_bilinear(n, 1600 + n)
    v = random_bilinear(n, 1700 + n)
    R3 = random_bianchi(n, 3, 2, 11 + n)
    V3 = random_bianchi(n, 3, 1, 21 + n)
    cases = [(inv.h_2k_metric, R0, V, k, n - k) for k in range(1, n // 2 + 1)]
    cases += [(inv.s_k_metric, h0, v, k, n) for k in range(1, n + 1)]
    cases += [(inv._metric_scalar, R3, V3, k, n - 2 * k) for k in range(1, n // 3 + 1)]
    for f, x0, dx, k, degree in cases:
        diffs = _finite_differences(_metric_samples(f, x0, dx, g, w, k, degree + 3))
        assert diffs[degree] != 0, (f.__name__, k)  # the bound is tight
        assert diffs[degree + 1] == diffs[degree + 2] == 0, (f.__name__, k)


@pytest.mark.parametrize("n", range(3, 7))
def test_float_metric_jacobi_matches_exact(n):
    def args(field):
        h0 = random_bilinear(n, 1600 + n, field=field)
        v = random_bilinear(n, 1700 + n, field=field)
        w = random_bilinear(n, 1800 + n, "symmetric", field)
        R0 = random_bianchi(n, 2, 2, seed=1900 + n, field=field)
        V = random_bianchi(n, 2, 1, seed=2000 + n, field=field)
        W = random_bilinear(n, 2100 + n, "symmetric", field)
        g = metric(n, field)
        out = [(inv.jacobi_with_metric, (h0, v, g, w, k)) for k in range(1, n + 1)]
        out += [(inv.jacobi_double_form_with_metric, (R0, V, g, W, k))
                for k in range(1, (n - 1) // 2 + 1)]
        return out

    for (fn, exact), (_, approx) in zip(args(scalars.RATIONAL), args(scalars.FLOAT64)):
        want = fn(*exact)
        got = fn(*approx)
        assert want[0] == want[1]
        for a, b in zip(got, want):
            assert isinstance(a, float)
            assert a == pytest.approx(float(b), rel=1e-6), (fn.__name__, exact[-1])


def test_metric_invariants_match_endomorphism():
    # s_k(h, G) equals e_k of G^(-1) H
    n = 4
    h = random_bilinear(n, 110)
    G = random_bilinear(n, 111, "symmetric") + 15 * metric(n)
    from dfalg.dform import _invert_metric

    M = _invert_metric(G).mat.dot(h.mat)
    for k in range(n + 1):
        assert inv.s_k_metric(h, G, k) == oracle.minor_sum_oracle(M, k)


def _other_field(field):
    return scalars.FLOAT64 if field == scalars.RATIONAL else scalars.RATIONAL


@pytest.mark.parametrize("field", [scalars.RATIONAL, scalars.FLOAT64])
def test_metric_scalars_refuse_a_metric_of_another_field(field):
    # an exact h with a float G read -8 for s_1 = -14: the float inverse was
    # cast into h's int64 lane; a float h with an exact G raised a numpy error
    h = random_bilinear(3, 1, field=field)
    R = random_bianchi(4, 2, 2, seed=5, field=field)
    G3 = 3 * metric(3, field) + random_bilinear(3, 2, "symmetric", field)
    G4 = 4 * metric(4, field) + random_bilinear(4, 6, "symmetric", field)
    assert inv.s_k_metric(h, G3, 1) == pytest.approx(-14)
    for fn, w, G in ((inv.s_k_metric, h, G3), (inv.h_2k_metric, R, G4)):
        fn(w, G, 1)
        with pytest.raises(ValueError, match="incompatible double forms"):
            fn(w, G.astype(_other_field(field)), 1)


def test_metric_scalars_refuse_the_orders_their_families_refuse(monkeypatch):
    h = random_bilinear(3, 1)
    R = random_bianchi(4, 2, 2, seed=5)
    G3 = 3 * metric(3) + random_bilinear(3, 2, "symmetric")
    G4 = 4 * metric(4) + random_bilinear(4, 6, "symmetric")
    with pytest.raises(ValueError):
        inv.s_k(h, 4)
    with pytest.raises(ValueError):
        inv.h_2k(R, 3)

    def started(*_):
        raise AssertionError("a refused order ran a wedge")

    monkeypatch.setattr(dform, "_wedge", started)
    for fn, w, G, k in ((inv.s_k_metric, h, G3, 4), (inv.s_k_metric, h, G3, -1),
                        (inv.h_2k_metric, R, G4, 3), (inv.h_2k_metric, R, G4, -1)):
        with pytest.raises(ValueError):
            fn(w, G, k)


def _loop_metric_contraction(w, G, weight):
    """c_G^p(w) with one contract_with_metric, so one inversion, a step."""
    for _ in range(w.p):
        w = contract_with_metric(w, G)
    return (w * weight).scalar()


@pytest.mark.parametrize("field", [scalars.RATIONAL, scalars.FLOAT64])
@pytest.mark.parametrize("n", range(2, 7))
def test_metric_invariants_invert_the_metric_once(monkeypatch, n, field):
    from dfalg import dform

    inversions = []
    invert = dform._invert_metric

    def counting(G):
        inversions.append(G)
        return invert(G)

    for module in (dform, inv):
        monkeypatch.setattr(module, "_invert_metric", counting, raising=False)
    h = random_bilinear(n, 120 + n, field=field)
    R = random_bianchi(n, 2, 2, seed=130 + n, field=field)
    G = random_bilinear(n, 140 + n, "symmetric", field) + (4 * n) * metric(n, field)
    cases = [(inv.s_k_metric, h, k, Fraction(1, factorial(k) ** 2))
             for k in range(1, n + 1)]
    cases += [(inv.h_2k_metric, R, k, Fraction(1, factorial(2 * k)))
              for k in range(1, n // 2 + 1)]
    for fn, w, k, weight in cases:
        inversions.clear()
        got = fn(w, G, k)
        assert len(inversions) == 1, (fn.__name__, k)
        want = _loop_metric_contraction(wedge_power(w, k), G, weight)
        if field == scalars.RATIONAL:
            assert got == want
        else:  # a pairing sums in another order than pk contractions
            assert got == pytest.approx(want, rel=1e-12, abs=0), (fn.__name__, k)


def test_contraction_path_walks_one_chain_per_power(monkeypatch):
    from dfalg import dform

    runs = []
    contracted = dform._contracted

    def counting(w):
        runs.append(w.bidegree)
        return contracted(w)

    monkeypatch.setattr(dform, "_contracted", counting)
    R = random_bianchi(6, 2, 2, seed=150)
    with dform.power_memo():
        for r in range(7):
            inv.h_rpq(R, r, 2, 2, "contraction")
    # c(R^2), ..., c^4(R^2) once each; 28 when every r walked its own chain
    assert runs == [(4, 4), (3, 3), (2, 2), (1, 1)]


def test_h_rpq_memo_keeps_the_two_paths_apart(monkeypatch):
    from dfalg import dform

    runs = {"star": 0, "contract": 0}

    def counted(kind, fn):
        def wrapper(*args):
            runs[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dform, "_starred", counted("star", dform._starred))
    monkeypatch.setattr(dform, "contract", counted("contract", dform.contract))
    monkeypatch.setattr(inv, "contract", dform.contract)
    R = random_bianchi(6, 2, 2, seed=150)
    with dform.power_memo():
        star = inv.h_rpq(R, 1, 2, 2, "hodge")
        assert runs == {"star": 1, "contract": 0}
        series = inv.h_rpq(R, 1, 2, 2, "contraction")
        assert runs["star"] == 1 and runs["contract"] > 0
        assert series is not star and series == star
        seen = dict(runs)
        # repeats, and the "auto" call that resolves to the star path, reuse
        assert inv.h_rpq(R, 1, 2, 2, "hodge") is star
        assert inv.h_rpq(R, 1, 2, 2) is star
        assert inv.h_rpq(R, 1, 2, 2, "contraction") is series
        assert runs == seen
        # past the star path's range "auto" resolves to the contraction path
        top = inv.h_rpq(R, 3, 2, 2)
        assert inv.h_rpq(R, 3, 2, 2, "contraction") is top
    assert inv.h_rpq(R, 1, 2, 2, "hodge") is not star


def count_builds(monkeypatch):
    """Count the kernels a call starts, and the work checks it runs."""
    runs = dict.fromkeys(["wedge", "star", "contract", "check"], 0)

    def counted(kind, fn):
        def wrapper(*args):
            runs[kind] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(dform, "_wedge", counted("wedge", dform._wedge))
    monkeypatch.setattr(dform, "_starred", counted("star", dform._starred))
    monkeypatch.setattr(dform, "_contracted", counted("contract", dform._contracted))
    monkeypatch.setattr(inv, "_check_work", counted("check", inv._check_work))
    return runs


# each cofactor family at n = 6, on both paths
FAMILY_CALLS = {
    "s_k": lambda h, R: inv.s_k(h, 3),
    "t_k": lambda h, R: inv.t_k(h, 2),
    "s_rq_hodge": lambda h, R: inv.s_rq(h, 2, 3),
    "s_rq_contraction": lambda h, R: inv.s_rq(h, 5, 3),
    "h_2k": lambda h, R: inv.h_2k(R, 2),
    "T_2k": lambda h, R: inv.T_2k(R, 2),
    "N_2k": lambda h, R: inv.N_2k(R, 1),
    "h_rpq_hodge": lambda h, R: inv.h_rpq(R, 1, 2, 2, "hodge"),
    "h_rpq_contraction": lambda h, R: inv.h_rpq(R, 4, 2, 2),
}


@pytest.mark.parametrize("name", FAMILY_CALLS)
def test_memo_hit_starts_no_kernel_and_no_check(monkeypatch, name):
    h = random_bilinear(6, 160, "symmetric")
    R = random_bianchi(6, 2, 2, seed=161)
    call = functools.partial(FAMILY_CALLS[name], h, R)
    runs = count_builds(monkeypatch)
    with dform.power_memo():
        first = call()
        built = dict(runs)
        assert built["check"] >= 1 and built["wedge"] + built["star"] >= 1, name
        assert call() is first if isinstance(first, DoubleForm) else call() == first
        assert runs == built, name
    # outside a memo every call builds again
    for i in (2, 3):
        assert call() == first
        assert runs["check"] == i * built["check"], name
        assert runs["wedge"] >= i * built["wedge"], name


def test_fresh_over_budget_call_in_a_memo_raises_before_any_wedge(monkeypatch):
    runs = count_builds(monkeypatch)
    h = random_bilinear(20, 162)
    with dform.power_memo():
        assert inv.s_k(h, 1) == inv.s_k(h, 1)
        seen = dict(runs)
        # C(20, 10)^2 = 3.4e10 dense entries
        for _ in range(2):
            with pytest.raises(ValueError, match="dense entries"):
                inv.s_k(h, 10)
        assert runs["wedge"] == seen["wedge"] and runs["check"] == seen["check"] + 2


def test_non_symmetric_contraction_path_raises_in_and_out_of_a_memo():
    h = random_bilinear(5, 163, "general")
    R = random_dform(5, 2, 2, seed=164)
    assert not inv.is_symmetric(h) and not inv.is_symmetric(R)
    for scope in (dform.power_memo, contextlib.nullcontext):
        with scope():
            for _ in range(2):
                with pytest.raises(ValueError, match="symmetric"):
                    inv.s_rq(h, 4, 3)
                # a (2, 2) form past n - 2q = 1 is held to the same rule
                with pytest.raises(ValueError, match="symmetric"):
                    inv.h_rpq(R, 2, 2, 2)
            # the star path asks for no symmetry
            assert inv.s_rq(h, 2, 3) == inv.h_rpq(h, 2, 1, 3) * Fraction(1, 6)
            assert inv.h_rpq(R, 1, 2, 2).bidegree == (1, 1)
