import contextlib
import json
from fractions import Fraction
from math import factorial

import pytest

from conftest import random_dform
from dfalg import dform, identities as idn, invariants as inv, scalars
from dfalg.dform import (
    DoubleForm,
    contract,
    contract_iter,
    inner,
    metric,
    metric_power,
    transpose,
    wedge,
    wedge_power,
)
from dfalg.fixtures import (
    constant_curvature,
    jordan_block,
    random_bianchi,
    random_bilinear,
    rank_one_bilinear,
    suite_fixtures,
)


def residual_zero(rec):
    assert rec.exact_zero, (rec.name, rec.params, rec.residual)


# -- Cayley-Hamilton -----------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_cayley_hamilton_random(n):
    residual_zero(idn.check_cayley_hamilton(random_bilinear(n, 2200 + n)))


def test_cayley_hamilton_metric_and_degenerate():
    for n in (2, 3, 4):
        residual_zero(idn.check_cayley_hamilton(metric(n)))
        residual_zero(idn.check_cayley_hamilton(jordan_block(n)))
        residual_zero(idn.check_cayley_hamilton(rank_one_bilinear(n, 3)))


def test_cayley_hamilton_matches_matrix_oracle():
    # the vanishing combination is the char-poly evaluation at the matrix
    import numpy as np

    from dfalg import oracle

    n = 4
    h = random_bilinear(n, 55)
    rec = idn.check_cayley_hamilton(h)
    residual_zero(rec)
    # independent check: sum (-1)^r s_(n-r) (H^T)^r = 0 as plain matrices
    ss = [oracle.minor_sum_oracle(h.mat, k) for k in range(n + 1)]
    acc = np.zeros((n, n), dtype=object)
    P = np.eye(n, dtype=object)
    for r in range(n + 1):
        acc = acc + (-1) ** r * ss[n - r] * P
        P = P.dot(h.mat.T)
    assert all(v == 0 for v in acc.flat)


@pytest.mark.parametrize("n", range(2, 6))
def test_general_cayley_hamilton_full_range(n):
    h = random_bilinear(n, 2300 + n, "symmetric")
    for r, i in idn.general_CH_range(n):
        residual_zero(idn.check_general_CH(h, r, i))


def test_general_CH_i0_r1_reduces_to_cayley_hamilton():
    # s_(1,n) expands the same combination as t_n
    n = 4
    h = random_bilinear(n, 56, "symmetric")
    residual_zero(idn.check_general_CH(h, 1, 0))
    residual_zero(idn.check_cayley_hamilton(h))


def test_general_CH_range_bounds():
    h = random_bilinear(4, 57, "symmetric")
    with pytest.raises(ValueError):
        idn.check_general_CH(h, 1, 1)  # needs i+1 <= r


# -- Laplace family ---------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_laplace_family(n):
    for label, h in [("general", random_bilinear(n, 2400 + n)),
                     ("metric", metric(n)),
                     ("jordan", jordan_block(n))]:
        for k in range(n):
            residual_zero(idn.check_laplace(h, k))
        residual_zero(idn.check_laplace_refined(h))
        for r in range(n + 1):
            residual_zero(idn.check_block_laplace(h, r))
        for k in range(1, n + 1):
            for q in range(k + 1):
                for p in range(n - k + 1):
                    residual_zero(idn.check_lower_block(h, k, p, q))


def test_classical_cofactor_expansion_reading():
    # k = n-1 case: n s_n = sum over entries of t_(n-1) * h
    n = 4
    h = random_bilinear(n, 58)
    rec = idn.check_laplace(h, n - 1)
    residual_zero(rec)


def test_laplace_refined_metric_case():
    residual_zero(idn.check_laplace_refined(metric(5)))


# -- Newton family ------------------------------------------------------------------

@pytest.mark.parametrize("n", range(2, 6))
def test_girard_newton_and_recurrence(n):
    for h in (random_bilinear(n, 2500 + n), jordan_block(n), metric(n)):
        for k in range(n):
            residual_zero(idn.check_girard_newton(h, k))
        for r in range(1, n + 1):
            residual_zero(idn.check_newton_recurrence(h, r))


@pytest.mark.parametrize("n", range(2, 6))
def test_general_newton_srq(n):
    h = random_bilinear(n, 2600 + n)
    for q in range(n + 1):
        for r in range(1, n - q + 1):
            residual_zero(idn.check_newton_srq(h, r, q))
            residual_zero(idn.check_general_laplace_srq(h, r, q))


def test_general_newton_hrpq():
    for n, p in [(4, 2), (5, 2), (6, 3)]:
        w = random_bianchi(n, p, 2, seed=2700 + n)
        for q in range(1, n // p + 1):
            for r in range(1, n - p * q + 1):
                residual_zero(idn.check_newton_hrpq(w, r, q))


# -- s_2q contraction formula ---------------------------------------------------------

def test_s2q_classical_case():
    # 2 s_2(h) = |ch|^2 - |h|^2 for symmetric h
    n = 3
    h = random_bilinear(n, 59, "symmetric")
    rec = idn.check_s2q_formula(h, 1)
    residual_zero(rec)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_s2q_higher(n):
    h = random_bilinear(n, 2800 + n, "symmetric")
    for q in range(1, n // 2 + 1):
        residual_zero(idn.check_s2q_formula(h, q))


# -- (2,2) identities ------------------------------------------------------------------

@pytest.mark.parametrize("n", (4, 6))
def test_top_identities_even(n):
    for R in (constant_curvature(n, 1), random_bianchi(n, 2, 2, seed=2900 + n)):
        residual_zero(idn.check_Tn(R))
        residual_zero(idn.check_Nn(R))


@pytest.mark.parametrize("n", (3, 5, 7))
def test_top_identities_odd(n):
    for R in (constant_curvature(n, 1), random_bianchi(n, 2, 2, seed=3000 + n)):
        residual_zero(idn.check_Nn_minus_1(R))
        residual_zero(idn.check_scalar_identity(R))


def test_weyl_vanishing_dimension_three():
    # n = 3: R - (cR) g + (c^2 R / 4) g^2 = 0
    R = random_bianchi(3, 2, 2, seed=61)
    val = R - wedge(contract(R), metric(3)) \
        + Fraction(1, 4) * contract_iter(R, 2).scalar() * metric_power(3, 2)
    assert val.max_abs() == 0
    # and the scalar identity reads |R|^2 - |cR|^2 + (c^2 R)^2 / 4 = 0
    cR = contract(R)
    c2R = contract(cR).scalar()
    assert inner(R, R) - inner(cR, cR) + Fraction(1, 4) * c2R * c2R == 0


def test_parity_guards():
    with pytest.raises(ValueError):
        idn.check_Tn(random_bianchi(5, 2, 1, seed=62))
    with pytest.raises(ValueError):
        idn.check_Nn_minus_1(random_bianchi(4, 2, 1, seed=63))


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_even_odd_theorem_ranges(n):
    R = random_bianchi(n, 2, 2, seed=3100 + n)
    pairs = idn.even_odd_range(n)
    assert pairs
    for r, i in pairs:
        residual_zero(idn.check_even_odd_theorem(R, r, i))


def test_even_odd_reduces_to_top_identities():
    # even n, i = 0, r = 1 is the T_n combination; odd n, i = 0, r = 2 is N_(n-1)
    R4 = random_bianchi(4, 2, 2, seed=64)
    assert idn.check_even_odd_theorem(R4, 1, 0).exact_zero \
        == idn.check_Tn(R4).exact_zero is True
    R5 = random_bianchi(5, 2, 2, seed=65)
    assert idn.check_even_odd_theorem(R5, 2, 0).exact_zero \
        == idn.check_Nn_minus_1(R5).exact_zero is True


# -- Avez family -----------------------------------------------------------------------

@pytest.mark.parametrize("n", (4, 5, 6))
def test_avez_h4(n):
    residual_zero(idn.check_avez(random_bianchi(n, 2, 2, seed=3200 + n)))
    residual_zero(idn.check_avez(constant_curvature(n, 2)))


def test_avez_consistency_with_h4_value():
    n = 5
    R = constant_curvature(n, 1)
    rec = idn.check_avez(R)
    residual_zero(rec)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_gauss_bonnet_recursion(n):
    R = random_bianchi(n, 2, 2, seed=3300 + n)
    for k in range(1, (n - 2) // 2 + 1):
        residual_zero(idn.check_h2k2_corollary(R, k))


@pytest.mark.parametrize("n", (4, 5, 6))
def test_general_avez_q1(n):
    residual_zero(idn.check_general_avez(random_bianchi(n, 2, 2, seed=3400 + n), 1))


def test_five_term_h8_float_mode():
    # the five-term |c^r R^2|^2 expansion of h_8 at n = 8, float64 scale run
    R = random_bianchi(8, 2, 1, seed=68, field=scalars.FLOAT64)
    rec = idn.check_general_avez(R, 2)
    assert rec.rel_residual is not None
    assert rec.rel_residual <= scalars.FLOAT_RELATIVE_TOLERANCE


# -- higher (p,p) identities --------------------------------------------------------------

def test_higher_identities_p3_n6():
    w = random_bianchi(6, 3, 2, seed=66)
    pairs = idn.higher_identity_range(6, 3)
    assert pairs == [(2, r) for r in range(1, 7)]
    for m, r in pairs:
        residual_zero(idn.check_higher_identities(w, 3, m, 0, r))


def test_higher_identities_reduce_to_p2():
    # p = 2 instance coincides with the (2,2) range theorem bit for bit
    n = 5
    R = random_bianchi(n, 2, 2, seed=67)
    from dfalg.invariants import h_rpq

    for r, i in idn.even_odd_range(n):
        m = (n - 2 * i - 1) // 2
        a = h_rpq(R, r, 2, m, path="contraction")
        rec = idn.check_higher_identities(R, 2, m, 0, r)
        assert rec.exact_zero
        assert a.max_abs() == 0


def test_general_laplace_pp():
    for n, p in [(4, 2), (6, 3)]:
        w = random_bianchi(n, p, 2, seed=3500 + n)
        residual_zero(idn.check_general_laplace_pp(w, 1))


# -- the general Cayley-Hamilton theorem, one range for six rows ---------------------------

VANISHING_ROWS = ("general_cayley_hamilton", "lovelock_top_even", "second_cofactor_top_even",
                  "second_cofactor_top_odd", "cofactor_vanishing_22", "cofactor_vanishing_pp")


def ref_general_CH_range(n):
    return [(r, i) for i in range(0, (n - 1) // 2 + 1) for r in range(i + 1, n - i + 1)]


def ref_even_odd_range(n):
    out = []
    for i in range(0, n // 4 + 1):
        if n % 2 == 0:
            if n - 2 * i < 2:
                break
            out.extend((r, i) for r in range(2 * i + 1, n - 2 * i + 1))
        else:
            if n - 2 * i - 1 < 2:
                break
            out.extend((r, i) for r in range(2 * i + 2, n - 2 * i))
    return out


def ref_higher_identity_range(n, p):
    return [(m, r) for m in range(1, n // p + 1) for r in range(n - p * m + 1, p * m + 1)]


@pytest.mark.parametrize("n", range(13))
def test_vanishing_range_is_the_theorems_inequalities(n):
    # 1 <= q <= n/p and n - pq < r <= pq, in order of q, then r
    for p in range(-1, 5):
        box = [(r, q) for q in range(-2, n + 3) for r in range(-2 * n - 2, 2 * n + 3)]
        assert idn.vanishing_range(n, p) == [
            (r, q) for r, q in box if 1 <= q and p * q <= n and n - p * q < r <= p * q]


@pytest.mark.parametrize("n", range(13))
def test_suite_ranges_reindex_the_theorems_range_in_their_old_order(n):
    assert idn.general_CH_range(n) == ref_general_CH_range(n)
    assert idn.even_odd_range(n) == ref_even_odd_range(n)
    for p in (1, 2, 3, 4):
        assert idn.higher_identity_range(n, p) == ref_higher_identity_range(n, p)


def _vanishing_cases(n):
    """(check, args, (p, r, q)) over a box around each row's range: the
    cofactor h_(r,pq) each call names, q a Fraction where the row's order
    pq is odd."""
    half = Fraction(1, 2)
    cases = [(idn.check_Tn, (), (2, 1, n * half)),
             (idn.check_Nn, (), (2, 2, n * half)),
             (idn.check_Nn_minus_1, (), (2, 2, (n - 1) * half))]
    for r in range(-1, n + 3):
        for i in range(-2, n + 2):
            cases.append((idn.check_general_CH, (r, i), (1, r, n - i)))
            cases.append((idn.check_even_odd_theorem, (r, i),
                          (2, r, (n - 2 * i - n % 2) * half)))
        for p in (1, 2, 3):
            for k in range(-1, n // p + 3):
                for i in (0, 1):
                    cases.append((idn.check_higher_identities, (p, k, i, r), (p, r, k - i)))
    return cases


@pytest.mark.parametrize("n", range(2, 13))
def test_each_vanishing_check_accepts_exactly_its_range(n, monkeypatch):
    # the cofactors are stubbed: this checks which calls reach them, not their values
    seen = []
    monkeypatch.setattr(idn, "s_rq", lambda w, r, q: seen.append((1, r, q)) or 0)
    monkeypatch.setattr(idn, "h_rpq", lambda w, r, p, q, path: seen.append((p, r, q)) or 0)
    forms = {p: DoubleForm.zeros(n, p, p) for p in (1, 2, 3)}
    for check, args, (p, r, q) in _vanishing_cases(n):
        w = forms[args[0] if check is idn.check_higher_identities else p]
        before = len(seen)
        if (r, q) in idn.vanishing_range(n, p):
            rec = check(w, *args)
            assert rec.name in VANISHING_ROWS and rec.exact_zero
            assert seen[before:] == [(p, r, q)], (check.__name__, args)
        else:
            with pytest.raises(ValueError, match="outside the vanishing range"):
                check(w, *args)
            assert len(seen) == before, (check.__name__, args)


def test_each_vanishing_check_refuses_a_form_of_another_bidegree():
    h4, h5 = random_bilinear(4, 71, "symmetric"), random_bilinear(5, 72, "symmetric")
    R4, R6 = random_bianchi(4, 2, 2, seed=73), random_bianchi(6, 2, 2, seed=74)
    refused = [
        lambda: idn.check_Tn(h4),
        lambda: idn.check_Nn(h4),
        lambda: idn.check_Nn_minus_1(h5),
        lambda: idn.check_even_odd_theorem(h4, 1, 0),
        lambda: idn.check_general_CH(R4, 1, 0),
        lambda: idn.check_higher_identities(R6, 3, 2, 0, 1),
        lambda: idn.check_higher_identities(R6, 1, 6, 0, 1),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="bidegree"):
            call()
    # with p = 2 taken from the form and q = n - i, (r, i) = (1, 2) would name
    # h_(1,4)(R4), inside the p = 2 range; the check states p = 1
    with pytest.raises(ValueError, match="outside the vanishing range"):
        idn.check_general_CH(R4, 1, 2)


def test_each_vanishing_row_fails_one_order_below_its_range(monkeypatch):
    """Mutation: each vanishing row, with its range lowered by one to the
    order r = n - pq, fails on at least one fixture of its family at some
    n <= 7.  One rule for all six rows, since they share one range."""
    body = idn._cofactor_vanishing
    below = {}

    def spy(name, params, w, p, r, order, formula):
        below[name, id(w), order] = (name, w, p, order, formula)

    monkeypatch.setattr(idn, "_cofactor_vanishing", spy)
    for n in range(2, 8):
        fx = suite_fixtures(n, seed=1)
        for name, family, check, arg_tuples in idn._suite_table(n):
            if name in VANISHING_ROWS:
                for _, w in getattr(fx, family):
                    for args in arg_tuples:
                        check(w, *args)

    def lowered(n, p):
        return [(r, q) for q in range(1, n + 1) if p * q <= n
                for r in range(n - p * q, p * q + 1)]

    monkeypatch.setattr(idn, "vanishing_range", lowered)
    failed = set()
    for name, w, p, order, formula in below.values():
        with dform.power_memo():
            if not body(name, {}, w, p, w.n - order, order, formula).exact_zero:
                failed.add(name)
    assert {name for name, _, _, _, _ in below.values()} == set(VANISHING_ROWS)
    assert failed == set(VANISHING_ROWS)


# rows whose records hold one side, which must vanish
ONE_SIDED_ROWS = VANISHING_ROWS + ("cayley_hamilton", "odd_scalar_identity")


def _row_failures(rows):
    """{(name, family): whether a record failed} for each suite row named in
    rows, run on every fixture of its family at n = 2..7 with seed 1."""
    failed = {}
    for n in range(2, 8):
        fx = suite_fixtures(n, seed=1)
        for name, family, check, arg_tuples in idn._suite_table(n):
            if name not in rows:
                continue
            for _, w in getattr(fx, family):
                with dform.power_memo():
                    for args in arg_tuples:
                        bad = not check(w, *args).passed
                        failed[name, family] = failed.get((name, family), False) or bad
    return failed


def test_cayley_hamilton_fails_one_order_below(monkeypatch):
    """Mutation: cayley_hamilton under the vanishing rows' rule, one order
    below, t_(n-1)(h) in place of t_n(h), fails on a bilinear fixture at
    some n <= 7."""
    t_or_top = idn.t_or_top
    monkeypatch.setattr(idn, "t_or_top", lambda h, k: t_or_top(h, k - 1))
    assert _row_failures(["cayley_hamilton"]) == {("cayley_hamilton", "bilinear"): True}


# one-sided rows that no mutant covers, and why
UNMUTATED_ROWS = {
    "odd_scalar_identity": "its value is <h_(2,n-1)(R), R>, and second_cofactor_top_odd "
                           "asserts that very h_(2,n-1)(R) is zero",
}


def test_every_one_sided_row_has_a_mutant_or_a_reason():
    mutated = set(VANISHING_ROWS) | {"cayley_hamilton"}
    assert mutated.isdisjoint(UNMUTATED_ROWS)
    assert mutated | set(UNMUTATED_ROWS) == set(ONE_SIDED_ROWS)


def test_odd_scalar_identity_reads_the_form_second_cofactor_top_odd_vanishes(monkeypatch):
    # inside one fixture memo both rows read one cached h_(2,n-1)(R), so
    # the scalar row fails only where the tensor row fails
    read = []
    h_rpq = idn.h_rpq

    def spy(w, r, p, q, path="auto"):
        read.append(h_rpq(w, r, p, q, path))
        return read[-1]

    monkeypatch.setattr(idn, "h_rpq", spy)
    for n in (3, 5, 7):
        for _, R in suite_fixtures(n, seed=1).bianchi2:
            read.clear()
            with dform.power_memo():
                assert idn.check_Nn_minus_1(R).exact_zero
                value = idn.check_scalar_identity(R).residual
            assert len(read) == 2 and read[0] is read[1]
            assert read[0].bidegree == (2, 2) and value == abs(inner(read[0], R)) == 0


def test_each_two_sided_row_fails_with_its_right_side_doubled(monkeypatch):
    """Mutation: with its right side doubled, each two-sided row fails at
    least one record of every family it runs on, at some n <= 7.  _record
    builds every two-sided record but laplace_pp's, which compares three
    sides; its mutant doubles the side <h_(pq,pq)(w), w^q> on the Hodge path."""
    record, h_rpq = idn._record, idn.h_rpq
    seen = set()

    def doubled_rhs(name, params, lhs, rhs, formula, field):
        seen.add(name)
        return record(name, params, lhs, 2 * rhs, formula, field)

    def doubled_hodge(w, r, p, q, path="auto"):
        return h_rpq(w, r, p, q, path) * (2 if path == "hodge" else 1)

    two_sided = [name for name in idn.ALL_IDENTITY_NAMES
                 if name not in ONE_SIDED_ROWS + ("laplace_pp",)]
    monkeypatch.setattr(idn, "_record", doubled_rhs)
    failed = _row_failures(two_sided)
    assert seen == set(two_sided)
    monkeypatch.setattr(idn, "h_rpq", doubled_hodge)
    failed.update(_row_failures(["laplace_pp"]))
    assert seen == set(two_sided)
    assert {name for name, _ in failed} == set(two_sided) | {"laplace_pp"}
    assert [row for row, bad in failed.items() if not bad] == []


# -- suite driver ----------------------------------------------------------------------

def test_run_suite_exact_small():
    recs = idn.run_suite([suite_fixtures(3, seed=1)])
    assert recs and all(r.exact_zero for r in recs)
    names = {r.name for r in recs}
    assert "cayley_hamilton" in names and "odd_scalar_identity" in names


def test_run_suite_only_filter():
    recs = idn.run_suite([suite_fixtures(3, seed=1)], only="cayley_hamilton")
    assert recs and all(r.name == "cayley_hamilton" for r in recs)
    with pytest.raises(ValueError):
        idn.run_suite([suite_fixtures(3, seed=1)], only="no_such_identity")


@pytest.fixture(scope="module")
def suite_2_6():
    return [suite_fixtures(n, 1) for n in range(2, 7)]


def test_only_runs_exactly_its_rows(suite_2_6):
    # a row whose name differs from its check's record, or whose argument
    # range has gone empty, shows here
    full = [r.to_json() for r in idn.run_suite(suite_2_6)]
    assert {rec["name"] for rec in full} == set(idn.ALL_IDENTITY_NAMES)
    for name in idn.ALL_IDENTITY_NAMES:
        assert [r.to_json() for r in idn.run_suite(suite_2_6, only=name)] \
            == [rec for rec in full if rec["name"] == name], name


def test_run_suite_empty_fixtures():
    assert idn.run_suite([]) == []


def test_run_suite_deterministic_order():
    a = idn.run_suite([suite_fixtures(3, seed=5)])
    b = idn.run_suite([suite_fixtures(3, seed=5)])
    assert [(r.name, r.params, str(r.residual)) for r in a] \
        == [(r.name, r.params, str(r.residual)) for r in b]


def test_run_suite_float_mode():
    recs = idn.run_suite([suite_fixtures(3, seed=2, field=scalars.FLOAT64)])
    assert recs
    worst = max(r.rel_residual for r in recs)
    assert worst <= scalars.FLOAT_RELATIVE_TOLERANCE
    assert all(r.passed for r in recs)


def suite_reports(mode):
    field = scalars.FLOAT64 if mode == "float" else scalars.RATIONAL
    fixture_sets = [suite_fixtures(n, 1, field) for n in range(2, 7)]
    return [json.dumps(r.to_json()) for r in idn.run_suite(fixture_sets)]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_power_memo_leaves_suite_records_unchanged(monkeypatch, mode):
    memoized = suite_reports(mode)
    monkeypatch.setattr(idn, "power_memo", contextlib.nullcontext)
    assert suite_reports(mode) == memoized


def test_power_memo_is_scoped_to_each_fixture(monkeypatch):
    entered, calls = [], []

    @contextlib.contextmanager
    def counting_memo():
        with dform.power_memo():
            entered.append(dform._POWER_MEMO.get())
            yield

    table = idn._suite_table

    def recording_table(n):
        # each check call records the memo it ran in and its fixture
        def recording(check):
            def run(w, *args):
                calls.append((id(dform._POWER_MEMO.get()), id(w)))
                return check(w, *args)
            return run
        return tuple((name, family, recording(check), args)
                     for name, family, check, args in table(n))

    monkeypatch.setattr(idn, "power_memo", counting_memo)
    monkeypatch.setattr(idn, "_suite_table", recording_table)
    sets = [suite_fixtures(n, 1) for n in (2, 3, 4)]
    for fx in sets:
        # the symmetric family lists the bilinear objects themselves
        bilinear = dict(fx.bilinear)
        assert fx.bilinear_symmetric
        assert all(w is bilinear[label] for label, w in fx.bilinear_symmetric)
    idn.run_suite(sets)
    fixtures = {id(w): w for fx in sets for family in (fx.bilinear, fx.bilinear_symmetric,
                                                       fx.bianchi2, fx.bianchi3)
                for _, w in family}
    # one memo per distinct fixture object, and each was filled
    assert len(entered) == len(fixtures)
    assert len({id(memo) for memo in entered}) == len(entered) and all(entered)
    # every check of a fixture, from every family, ran in that fixture's
    # one memo, and no memo ran the checks of two fixtures
    owner = {}
    for memo, w in set(calls):
        owner.setdefault(memo, set()).add(w)
    assert sorted(owner) == sorted(id(memo) for memo in entered)
    assert all(len(ws) == 1 for ws in owner.values())
    assert sorted(w for ws in owner.values() for w in ws) == sorted(fixtures)
    # a memo holds results of its own fixture and of forms derived from it
    # (its powers, whose stars it keeps), never of another fixture
    for memo in entered:
        (own,) = owner[id(memo)]
        assert own in memo
        assert (fixtures.keys() - {own}).isdisjoint(memo)


def test_exact_suite_runs_few_star_kernels(monkeypatch):
    runs = []
    starred = dform._starred

    def counting(w):
        runs.append(w)
        return starred(w)

    monkeypatch.setattr(dform, "_starred", counting)
    idn.run_suite([suite_fixtures(n, 1) for n in range(2, 7)])
    # 4258 without the h_rpq and star entries of the memo
    assert len(runs) <= 1000


def test_exact_suite_runs_few_contraction_kernels(monkeypatch):
    runs = []
    contracted = dform._contracted

    def counting(w):
        runs.append(w)
        return contracted(w)

    monkeypatch.setattr(dform, "_contracted", counting)
    idn.run_suite([suite_fixtures(n, 1) for n in range(2, 7)])
    # 1658 while each caller walked its own chain c^i(w^q)
    assert len(runs) <= 1000


def test_exact_suite_gathers_no_single_entry_operand(monkeypatch):
    runs = {"wedge": 0, "star": 0}
    wedge_kernel, star_kernel = dform._wedge, dform._star

    def counting_wedge(*args):
        runs["wedge"] += 1
        return wedge_kernel(*args)

    def counting_star(*args):
        runs["star"] += 1
        return star_kernel(*args)

    monkeypatch.setattr(dform, "_wedge", counting_wedge)
    monkeypatch.setattr(dform, "_star", counting_star)
    idn.run_suite([suite_fixtures(n, 1) for n in range(2, 7)])
    # 1163 wedge and 773 star kernels while a wedge with a 0-form and the
    # star of a one-entry form ran the gathers, and each symmetric bilinear
    # fixture had a second memo
    assert runs["wedge"] <= 700
    assert runs["star"] <= 500


def test_exact_suite_checks_each_cofactor_once(monkeypatch):
    runs = {"check": 0, "built": 0, "contract": 0}
    check_work, memoized, contracted = inv._check_work, inv._memoized, dform._contracted

    def counting_check(*args):
        runs["check"] += 1
        return check_work(*args)

    def counting_memo(w, key, build):
        def counted():
            runs["built"] += key[0] == "h_rpq"
            return build()
        return memoized(w, key, counted)

    def counting_contract(w):
        runs["contract"] += 1
        return contracted(w)

    monkeypatch.setattr(inv, "_check_work", counting_check)
    monkeypatch.setattr(inv, "_memoized", counting_memo)
    monkeypatch.setattr(dform, "_contracted", counting_contract)
    idn.run_suite([suite_fixtures(n, 1) for n in range(2, 7)])
    # 3623 checks for 715 built cofactors, and 887 contractions, while
    # every memo hit re-ran the check and s_rq rescaled its kept cofactor
    assert 0 < runs["check"] <= runs["built"]
    assert runs["contract"] <= 800


def test_laplace_pp_rows_reach_every_q():
    # n = 12 is past the CLI's dimensions: read the table, run nothing
    rows = {family: args for name, family, _, args in idn._suite_table(12)
            if name == "laplace_pp"}
    assert rows == {"bianchi2": [(1,), (2,), (3,)], "bianchi3": [(1,), (2,)]}


def no_memo_active():
    h = random_bilinear(3, 1)
    return dform._POWER_MEMO.get() is None and wedge_power(h, 2) is not wedge_power(h, 2)


def test_no_power_memo_outlives_run_suite(monkeypatch):
    idn.run_suite([suite_fixtures(3, 1)], only="block_laplace")
    assert no_memo_active()
    with pytest.raises(ValueError):
        idn.run_suite([suite_fixtures(3, 1)], only="no_such_identity")
    assert no_memo_active()

    def broken(h):
        raise RuntimeError("check failed")

    monkeypatch.setattr(idn, "check_cayley_hamilton", broken)
    with pytest.raises(RuntimeError):
        idn.run_suite([suite_fixtures(3, 1)])
    assert no_memo_active()


@pytest.mark.parametrize("only", ["general_avez", "laplace_pp"])
def test_n8_spot_check(only):
    """q = 2 in these two identities needs n >= 8, past the default suite."""
    recs = idn.run_suite([suite_fixtures(8, 1)], only=only)
    assert any(r.params["q"] == 2 for r in recs)
    assert recs and all(r.passed and r.exact_zero for r in recs)


def test_residual_records_carry_formula_strings():
    recs = idn.run_suite([suite_fixtures(2, seed=3)], only="girard_newton")
    assert all(r.formula == "c t_k(h) = (n-k) s_k(h)" for r in recs)
    doc = recs[0].to_json()
    assert set(doc) >= {"name", "params", "residual", "exact_zero", "passed",
                        "asserted", "formula"}


# -- the contraction sides against hand-written sums ------------------------------------
#
# The references write out the sums the checks once spelled by hand, walking
# their own chain of contractions outside any power memo; the checks now read
# the same values off h_rpq's contraction path.


def _contraction_norms(wq, top):
    """sum_(r <= top) (-1)^(r+top)/(r!)^2 |c^r wq|^2."""
    total = 0
    c = wq
    for r in range(top + 1):
        total += Fraction((-1) ** (r + top), factorial(r) ** 2) * inner(c, c)
        if r < top:
            c = contract(c)
    return total


def _gauss_bonnet_tail(R, k):
    """<c^(2k-2)R^k/(2k-2)!, R> - <c^(2k-1)R^k/(2k-1)!, cR> + <c^(2k)R^k/(2k)!, c^2R/2>."""
    cR = contract(R)
    c = contract_iter(wedge_power(R, k), 2 * k - 2)
    total = inner(c * Fraction(1, factorial(2 * k - 2)), R)
    c = contract(c)
    total -= inner(c * Fraction(1, factorial(2 * k - 1)), cR)
    c = contract(c)
    return total + inner(c * Fraction(1, factorial(2 * k)), contract(cR) * Fraction(1, 2))


def _contraction_references(name, w, params):
    """{index of a side: its hand-written value} for one check's call."""
    if name == "s2q_contraction_formula":
        return {1: _contraction_norms(wedge_power(w, params["q"]), params["q"])}
    if name == "general_avez":
        return {1: _contraction_norms(wedge_power(w, params["q"]), 2 * params["q"])}
    if name == "gauss_bonnet_recursion":
        return {1: _gauss_bonnet_tail(w, params["k"])}
    if name == "odd_scalar_identity":
        return {0: _gauss_bonnet_tail(w, (w.n - 1) // 2)}
    p, q = w.p, params["q"]
    top = contract_iter(wedge_power(w, 2 * q), 2 * p * q).scalar() \
        * Fraction(1, factorial(2 * p * q))
    return {0: top, 2: _contraction_norms(wedge_power(w, q), p * q)}


REWRITTEN = ("s2q_contraction_formula", "general_avez", "gauss_bonnet_recursion",
             "odd_scalar_identity", "laplace_pp")


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n", range(2, 9))
def test_contraction_sides_match_hand_written_sums(monkeypatch, n, mode):
    field = scalars.FLOAT64 if mode == "float" else scalars.RATIONAL
    fx = suite_fixtures(n, 1, field)
    record = idn.residual_record
    seen = []

    def spy(name, params, residual, sides, *args):
        seen.append(sides)
        return record(name, params, residual, sides, *args)

    monkeypatch.setattr(idn, "residual_record", spy)
    compared = 0
    for name, family, check, arg_tuples in idn._suite_table(n):
        if name not in REWRITTEN:
            continue
        for _, w in getattr(fx, family):
            for args in arg_tuples:
                seen.clear()
                with dform.power_memo():
                    rec = check(w, *args)
                (sides,) = seen
                for i, want in _contraction_references(name, w, rec.params).items():
                    got = sides[i]
                    if mode == "exact":
                        assert got == want, (name, rec.params)
                    else:
                        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), \
                            (name, rec.params, got, want)
                    compared += 1
    assert compared
