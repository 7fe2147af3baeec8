"""Named algebraic identities as checkable predicates.

Each check recomputes both sides of one identity independently and returns
an IdentityResidual; in rational mode every residual must be literally
zero, so any nonzero value is an implementation bug, not a tolerance
problem.  A contraction side is always read off invariants.h_rpq's
contraction path, through <g^m A, B> = <A, c^m B>; no check sums a
contraction series of its own.  run_suite drives the full battery over a
fixture set, in one process or dealt to several.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import itemgetter

from . import scalars
from .dform import (
    DoubleForm,
    compose,
    contract,
    hodge,
    inner,
    metric,
    metric_power,
    metric_wedge_power,
    power_memo,
    transpose,
    wedge_power,
)
from .invariants import h_2k, h_rpq, power_sums, s_k, s_rq, t_k, t_or_top


@dataclass
class IdentityResidual:
    """Outcome of one identity check."""

    name: str
    params: dict
    residual: object
    exact_zero: bool
    formula: str
    rel_residual: float | None = None

    @property
    def passed(self) -> bool:
        if self.rel_residual is not None:
            return self.rel_residual <= scalars.FLOAT_RELATIVE_TOLERANCE
        return self.exact_zero

    def to_json(self):
        doc = {
            "name": self.name,
            "params": self.params,
            "residual": str(self.residual),
            "exact_zero": bool(self.exact_zero),
            "passed": bool(self.passed),
            "asserted": True,
            "formula": self.formula,
        }
        if self.rel_residual is not None:
            doc["rel_residual"] = float(self.rel_residual)
        return doc


def _scale_of(x):
    if isinstance(x, DoubleForm):
        return x.max_abs()
    return abs(x)


def residual_record(name, params, residual, sides, formula, field) -> IdentityResidual:
    """The record of residual, an identity's discrepancy between its sides.

    In float mode the residual is also taken relative to the largest side,
    and to 1 when every side is smaller.
    """
    rel = None
    if field == scalars.FLOAT64:
        rel = float(residual) / max(1.0, *(float(_scale_of(x)) for x in sides))
    return IdentityResidual(name, params, residual, residual == 0, formula, rel)


def _record(name, params, lhs, rhs, formula, field) -> IdentityResidual:
    return residual_record(name, params, _scale_of(lhs - rhs), (lhs, rhs), formula,
                           field)


def _vanishing(name, params, value, formula, field) -> IdentityResidual:
    return residual_record(name, params, _scale_of(value), (value,), formula, field)


# ---------------------------------------------------------------------------
# the general Cayley-Hamilton theorem


def vanishing_range(n: int, p: int):
    """The (r, q) of the general Cayley-Hamilton theorem at dimension n:
    h_(r,pq)(w) = 0 for every symmetric (p, p) Bianchi form w when
    1 <= q <= n/p and n - pq < r <= pq.  In order of q, then r."""
    return [(r, q) for q in range(1, n + 1) if p * q <= n
            for r in range(n - p * q + 1, p * q + 1)]


def _cofactor_vanishing(name, params, w, p, r, order, formula) -> IdentityResidual:
    """The record of h_(r,order)(w) = 0 for the (p, p) form w, the theorem
    at order = pq; a cofactor outside vanishing_range is refused.

    Each vanishing row is this body with its own map to (r, order).  The
    cofactor is read off the contraction path, as s_(r,q) = h_(r,q)/q! at
    p = 1; h_rpq refuses a form that is not (p, p).
    """
    n = w.n
    if (r, order) not in {(s, p * q) for s, q in vanishing_range(n, p)}:
        raise ValueError(f"h_({r}, {order}) of a ({p}, {p}) form is outside the "
                         f"vanishing range n - pq < r <= pq at n = {n}")
    q = order // p
    value = s_rq(w, r, q) if p == 1 else h_rpq(w, r, p, q, path="contraction")
    return _vanishing(name, params, value, formula, w.field)


# ---------------------------------------------------------------------------
# bilinear-form identities


def check_cayley_hamilton(h: DoubleForm) -> IdentityResidual:
    """t_n(h) = sum_r (-1)^r s_(n-r)(h) (h^t)^(o r) vanishes."""
    n = h.n
    return _vanishing("cayley_hamilton", {"n": n}, t_or_top(h, n), "t_n(h) = 0", h.field)


def check_general_CH(h: DoubleForm, r: int, i: int) -> IdentityResidual:
    """Extended cofactor vanishing s_(r, n-i)(h) = 0 for 1 <= i+1 <= r <= n-i."""
    return _cofactor_vanishing("general_cayley_hamilton", {"n": h.n, "r": r, "i": i},
                               h, 1, r, h.n - i, "s_(r, n-i)(h) = 0")


def general_CH_range(n: int):
    return sorted(((r, n - q) for r, q in vanishing_range(n, 1)), key=itemgetter(1, 0))


def check_laplace(h: DoubleForm, k: int) -> IdentityResidual:
    """(k+1) s_(k+1)(h) = <t_k(h), h>."""
    n = h.n
    lhs = (k + 1) * s_k(h, k + 1)
    rhs = inner(t_k(h, k), h)
    return _record("laplace_expansion", {"n": n, "k": k}, lhs, rhs,
                   "(k+1) s_(k+1)(h) = <t_k(h), h>", h.field)


def check_laplace_refined(h: DoubleForm) -> IdentityResidual:
    """h^t o t_(n-1)(h) = s_n(h) g: the composition inverse of h."""
    n = h.n
    lhs = compose(transpose(h), t_k(h, n - 1))
    rhs = s_k(h, n) * metric(n, h.field)
    return _record("laplace_inverse", {"n": n}, lhs, rhs,
                   "h^t o t_(n-1)(h) = s_n(h) g", h.field)


def check_block_laplace(h: DoubleForm, r: int) -> IdentityResidual:
    """det(h) g^r/r! = (*(h^(n-r)/(n-r)!))^t o h^r/r!."""
    n = h.n
    if not 0 <= r <= n:
        raise ValueError(f"block size {r} out of range [0, {n}]")
    det = s_k(h, n)
    lhs = det * (metric_power(n, r, h.field) * Fraction(1, factorial(r)))
    star = s_rq(h, r, n - r)
    rhs = compose(transpose(star), wedge_power(h, r) * Fraction(1, factorial(r)))
    return _record("block_laplace", {"n": n, "r": r}, lhs, rhs,
                   "det(h) g^r/r! = (*(h^(n-r)/(n-r)!))^t o h^r/r!", h.field)


def check_lower_block(h: DoubleForm, k: int, p: int, q: int) -> IdentityResidual:
    """k!(n-k)! s_k(h) = <g^p h^q, *(g^(n-k-p) h^(k-q))>."""
    n = h.n
    if not (0 <= q <= k and 0 <= p <= n - k):
        raise ValueError(f"(k, p, q) = ({k}, {p}, {q}) outside the expansion range")
    lhs = factorial(k) * factorial(n - k) * s_k(h, k)
    a = metric_wedge_power(h, p, q)
    b = metric_wedge_power(h, n - k - p, k - q)
    rhs = inner(a, hodge(b))
    return _record("lower_block_laplace", {"n": n, "k": k, "p": p, "q": q}, lhs, rhs,
                   "k!(n-k)! s_k(h) = <g^p h^q, *(g^(n-k-p) h^(k-q))>", h.field)


def check_girard_newton(h: DoubleForm, k: int) -> IdentityResidual:
    """c t_k(h) = (n - k) s_k(h)."""
    n = h.n
    lhs = contract(t_k(h, k)).scalar()
    rhs = (n - k) * s_k(h, k)
    return _record("girard_newton", {"n": n, "k": k}, lhs, rhs,
                   "c t_k(h) = (n-k) s_k(h)", h.field)


def check_newton_recurrence(h: DoubleForm, r: int) -> IdentityResidual:
    """r s_r(h) = sum_i (-1)^(i+1) s_(r-i)(h) p_i."""
    n = h.n
    ps = power_sums(h, r)
    lhs = r * s_k(h, r)
    rhs = sum((-1) ** (i + 1) * s_k(h, r - i) * ps[i - 1] for i in range(1, r + 1))
    return _record("newton_recurrence", {"n": n, "r": r}, lhs, rhs,
                   "r s_r(h) = sum_i (-1)^(i+1) s_(r-i)(h) p_i", h.field)


def check_newton_srq(h: DoubleForm, r: int, q: int) -> IdentityResidual:
    """c s_(r,q)(h) = (n - q - r + 1) s_(r-1,q)(h)."""
    n = h.n
    if not (0 <= q <= n and 1 <= r <= n - q):
        raise ValueError(f"(r, q) = ({r}, {q}) outside the Newton range")
    lhs = contract(s_rq(h, r, q))
    rhs = (n - q - r + 1) * s_rq(h, r - 1, q)
    return _record("newton_srq", {"n": n, "r": r, "q": q}, lhs, rhs,
                   "c s_(r,q)(h) = (n-q-r+1) s_(r-1,q)(h)", h.field)


def check_general_laplace_srq(h: DoubleForm, r: int, q: int) -> IdentityResidual:
    """(q+r)!/q! s_(q+r)(h) = <s_(r,q)(h), h^r>."""
    n = h.n
    if not (0 <= q <= n and 1 <= r <= n - q):
        raise ValueError(f"(r, q) = ({r}, {q}) outside the Laplace range")
    lhs = Fraction(factorial(q + r), factorial(q)) * s_k(h, q + r)
    rhs = inner(s_rq(h, r, q), wedge_power(h, r))
    return _record("general_laplace_srq", {"n": n, "r": r, "q": q}, lhs, rhs,
                   "(q+r)!/q! s_(q+r)(h) = <s_(r,q)(h), h^r>", h.field)


def check_s2q_formula(h: DoubleForm, q: int) -> IdentityResidual:
    """(2q)! s_2q(h) = sum_r (-1)^(r+q)/(r!)^2 |c^r h^q|^2 for symmetric h.

    The constant is pinned by the general expansion of c^(2pq)(w^(2q)) at
    p = 1, whose left side is (2q)! s_2q(h); at q = 1 this is the classical
    2 s_2(h) = |ch|^2 - |h|^2.  The sum is <h_(q,q)(h), h^q> on the
    contraction path, as <g^r A, B> = <A, c^r B>.
    """
    n = h.n
    if n < 2 * q:
        raise ValueError(f"s_2q needs n >= 2q, got n = {n}, q = {q}")
    lhs = factorial(2 * q) * s_k(h, 2 * q)
    rhs = inner(h_rpq(h, q, 1, q, path="contraction"), wedge_power(h, q))
    return _record("s2q_contraction_formula", {"n": n, "q": q}, lhs, rhs,
                   "(2q)! s_2q(h) = sum_r (-1)^(r+q)/(r!)^2 |c^r h^q|^2", h.field)


# ---------------------------------------------------------------------------
# (2, 2) double-form identities


def check_Tn(R: DoubleForm) -> IdentityResidual:
    """Top Einstein-Lovelock tensor vanishes in even dimension."""
    return _cofactor_vanishing("lovelock_top_even", {"n": R.n}, R, 2, 1, R.n,
                               "T_n(R) = 0")


def check_Nn(R: DoubleForm) -> IdentityResidual:
    """Top second cofactor vanishes in even dimension."""
    return _cofactor_vanishing("second_cofactor_top_even", {"n": R.n}, R, 2, 2, R.n,
                               "N_n(R) = 0")


def check_Nn_minus_1(R: DoubleForm) -> IdentityResidual:
    """N_(n-1)(R) = 0 in odd dimension n >= 3."""
    return _cofactor_vanishing("second_cofactor_top_odd", {"n": R.n}, R, 2, 2, R.n - 1,
                               "N_(n-1)(R) = 0")


def check_scalar_identity(R: DoubleForm) -> IdentityResidual:
    """Scalar vanishing in odd dimension built from the last three contractions.

    Its value is <h_(2,n-1)(R), R>, read off the same cached h_(2,n-1)(R)
    that second_cofactor_top_odd asserts is zero, so it fails only where
    that row fails and no mutant of its own can fail it alone.
    """
    n = R.n
    if n % 2 == 0 or n < 3:
        raise ValueError("the scalar identity needs odd dimension n >= 3")
    val = inner(h_rpq(R, 2, 2, (n - 1) // 2, path="contraction"), R)
    return _vanishing("odd_scalar_identity", {"n": n}, val,
                      "<c^(n-3)R^k/(n-3)!, R> - <c^(n-2)R^k/(n-2)!, cR> "
                      "+ <c^(n-1)R^k/(n-1)!, c^2R/2> = 0", R.field)


def check_even_odd_theorem(R: DoubleForm, r: int, i: int) -> IdentityResidual:
    """Range vanishing of the extended (r, *) cofactors of a (2, 2) form."""
    n = R.n
    return _cofactor_vanishing("cofactor_vanishing_22", {"n": n, "r": r, "i": i},
                               R, 2, r, n - n % 2 - 2 * i,
                               "h_(r, n-2i)(R) = 0 (even n) / "
                               "h_(r, n-2i-1)(R) = 0 (odd n)")


def even_odd_range(n: int):
    return sorted(((r, (n - 2 * q) // 2) for r, q in vanishing_range(n, 2)),
                  key=itemgetter(1, 0))


def check_avez(R: DoubleForm) -> IdentityResidual:
    """h_4(R) = |R|^2 - |cR|^2 + |c^2 R|^2 / 4."""
    n = R.n
    if n < 4:
        raise ValueError("the h_4 formula needs n >= 4")
    lhs = h_2k(R, 2)
    cR = contract(R)
    c2R = contract(cR).scalar()
    rhs = inner(R, R) - inner(cR, cR) + Fraction(1, 4) * c2R * c2R
    return _record("avez_h4", {"n": n}, lhs, rhs,
                   "h_4(R) = |R|^2 - |cR|^2 + |c^2R|^2/4", R.field)


def check_h2k2_corollary(R: DoubleForm, k: int) -> IdentityResidual:
    """h_(2k+2)(R) from the last three contractions of R^k."""
    n = R.n
    if not 4 <= 2 * k + 2 <= n:
        raise ValueError(f"order 2k+2 = {2 * k + 2} out of range [4, {n}]")
    lhs = h_2k(R, k + 1)
    rhs = inner(h_rpq(R, 2, 2, k, path="contraction"), R)
    return _record("gauss_bonnet_recursion", {"n": n, "k": k}, lhs, rhs,
                   "h_(2k+2) = <c^(2k-2)R^k/(2k-2)!, R> - <c^(2k-1)R^k/(2k-1)!, cR> "
                   "+ h_2k h_2", R.field)


def check_general_avez(R: DoubleForm, q: int) -> IdentityResidual:
    """h_4q(R) = sum_r (-1)^r/(r!)^2 |c^r R^q|^2."""
    n = R.n
    if n < 4 * q:
        raise ValueError(f"the h_4q formula needs n >= 4q = {4 * q}")
    lhs = h_2k(R, 2 * q)
    rhs = inner(h_rpq(R, 2 * q, 2, q, path="contraction"), wedge_power(R, q))
    return _record("general_avez", {"n": n, "q": q}, lhs, rhs,
                   "h_4q(R) = sum_r (-1)^r/(r!)^2 |c^r R^q|^2", R.field)


# ---------------------------------------------------------------------------
# (p, p) double-form identities


def check_higher_identities(w: DoubleForm, p: int, k: int, i: int,
                            r: int) -> IdentityResidual:
    """h_(r, pk - pi)(w) = 0 for n - pk + pi + 1 <= r <= pk - pi."""
    return _cofactor_vanishing("cofactor_vanishing_pp",
                               {"n": w.n, "p": p, "k": k, "i": i, "r": r},
                               w, p, r, p * (k - i), "h_(r, p(k-i))(w) = 0")


def higher_identity_range(n: int, p: int):
    """Valid (m, r) pairs with m = k - i the exponent of the form."""
    return [(q, r) for r, q in vanishing_range(n, p)]


def check_newton_hrpq(w: DoubleForm, r: int, q: int) -> IdentityResidual:
    """c h_(r,pq)(w) = (n - pq - r + 1) h_(r-1,pq)(w)."""
    n, p = w.n, w.p
    if not 1 <= r <= n - p * q:
        raise ValueError(f"r = {r} outside the Newton range [1, {n - p * q}]")
    lhs = contract(h_rpq(w, r, p, q, path="hodge"))
    rhs = (n - p * q - r + 1) * h_rpq(w, r - 1, p, q, path="hodge")
    return _record("newton_hrpq", {"n": n, "p": p, "r": r, "q": q}, lhs, rhs,
                   "c h_(r,pq)(w) = (n-pq-r+1) h_(r-1,pq)(w)", w.field)


def check_general_laplace_pp(w: DoubleForm, q: int) -> IdentityResidual:
    """Three expressions for c^(2pq)(w^(2q))/(2pq)! agree."""
    n, p = w.n, w.p
    if n < 2 * p * q:
        raise ValueError(f"needs n >= 2pq = {2 * p * q}")
    pq = p * q
    a = h_rpq(w, 0, p, 2 * q, path="contraction").scalar()
    wq = wedge_power(w, q)
    b = inner(h_rpq(w, pq, p, q, path="hodge"), wq)
    c = inner(h_rpq(w, pq, p, q, path="contraction"), wq)
    worst = max(_scale_of(a - b), _scale_of(a - c))
    return residual_record("laplace_pp", {"n": n, "p": p, "q": q}, worst, (a, b, c),
                           "c^(2pq)(w^2q)/(2pq)! = <h_(pq,pq)(w), w^q> "
                           "= sum_r (-1)^(r+pq)/(r!)^2 |c^r w^q|^2", w.field)


# ---------------------------------------------------------------------------
# suite driver


def _when(cond):
    """One call with no argument if cond holds, else none."""
    return [()] if cond else []


def _suite_table(n: int):
    """The single declaration of the suite: one row (name, family, check,
    argument tuples) per identity and fixture family at dimension n.

    family names a fixtures.SuiteFixtures field; each fixture w of it gets
    one call check(w, *args) per argument tuple.  Every row is present at
    every n, with no tuple where the identity does not apply.  Built per
    call, so a check replaced on the module is the one that runs.
    """
    srq = [(r, q) for q in range(n + 1) for r in range(1, n - q + 1)]

    def hrpq(p):
        return [(r, q) for q in range(1, n // p + 1) for r in range(1, n - p * q + 1)]

    def laplace_pp(p):
        return [(q,) for q in range(1, n // (2 * p) + 1)]

    return (
        ("cayley_hamilton", "bilinear", check_cayley_hamilton, [()]),
        ("general_cayley_hamilton", "bilinear_symmetric", check_general_CH,
         general_CH_range(n)),
        ("laplace_expansion", "bilinear", check_laplace, [(k,) for k in range(n)]),
        ("laplace_inverse", "bilinear", check_laplace_refined, [()]),
        ("block_laplace", "bilinear", check_block_laplace,
         [(r,) for r in range(n + 1)]),
        ("lower_block_laplace", "bilinear", check_lower_block,
         [(k, p, q) for k in range(1, n + 1) for q in range(k + 1)
          for p in range(n - k + 1)]),
        ("girard_newton", "bilinear", check_girard_newton, [(k,) for k in range(n)]),
        ("newton_recurrence", "bilinear", check_newton_recurrence,
         [(r,) for r in range(1, n + 1)]),
        ("newton_srq", "bilinear", check_newton_srq, srq),
        ("general_laplace_srq", "bilinear", check_general_laplace_srq, srq),
        ("s2q_contraction_formula", "bilinear_symmetric", check_s2q_formula,
         [(q,) for q in range(1, n // 2 + 1)]),
        ("lovelock_top_even", "bianchi2", check_Tn, _when(n % 2 == 0)),
        ("second_cofactor_top_even", "bianchi2", check_Nn, _when(n % 2 == 0)),
        ("second_cofactor_top_odd", "bianchi2", check_Nn_minus_1,
         _when(n % 2 == 1 and n >= 3)),
        ("odd_scalar_identity", "bianchi2", check_scalar_identity,
         _when(n % 2 == 1 and n >= 3)),
        ("cofactor_vanishing_22", "bianchi2", check_even_odd_theorem, even_odd_range(n)),
        ("avez_h4", "bianchi2", check_avez, _when(n >= 4)),
        ("gauss_bonnet_recursion", "bianchi2", check_h2k2_corollary,
         [(k,) for k in range(1, (n - 2) // 2 + 1)]),
        ("general_avez", "bianchi2", check_general_avez,
         [(q,) for q in range(1, n // 4 + 1)]),
        ("cofactor_vanishing_pp", "bianchi3", check_higher_identities,
         [(3, m, 0, r) for m, r in higher_identity_range(n, 3)]),
        ("newton_hrpq", "bianchi2", check_newton_hrpq, hrpq(2)),
        ("newton_hrpq", "bianchi3", check_newton_hrpq, hrpq(3)),
        ("laplace_pp", "bianchi2", check_general_laplace_pp, laplace_pp(2)),
        ("laplace_pp", "bianchi3", check_general_laplace_pp, laplace_pp(3)),
    )


# the rows are the same at every n, so any n lists the names
ALL_IDENTITY_NAMES = tuple(dict.fromkeys(row[0] for row in _suite_table(0)))


def _suite_tasks(fixture_sets, only):
    """One task (n, w, calls) per fixture object w: every (label, check,
    args) call of w, from every family that lists it.  Objects with no
    call are left out."""
    tasks = []
    for fx in fixture_sets:
        calls = {}
        for name, family, check, arg_tuples in _suite_table(fx.n):
            if only in (None, name):
                for label, w in getattr(fx, family):
                    calls.setdefault(id(w), (w, []))[1].extend(
                        (label, check, args) for args in arg_tuples)
        tasks.extend((fx.n, w, todo) for w, todo in calls.values() if todo)
    return tasks


def _run_task(n, w, todo):
    # one memo per fixture object: its powers, cofactors and stars are
    # freed as soon as its checks end
    records = []
    with power_memo():
        for label, check, args in todo:
            rec = check(w, *args)
            rec.params = {"n": n, "fixture": label, **rec.params}
            records.append(rec)
    return records


def _deal(tasks, k):
    """The task indices of k processes, the first the caller's.

    The tasks go largest first, by (n, number of calls), in snake order
    A B B A A B ... so that the shares' work is close.  Each share is in
    task order.  The deal depends on the tasks only, so every run gives
    each process the same work.
    """
    order = sorted(range(len(tasks)), key=lambda i: (tasks[i][0], len(tasks[i][2])),
                   reverse=True)
    shares = [[] for _ in range(k)]
    for pos, i in enumerate(order):
        lap, j = divmod(pos, k)
        shares[k - 1 - j if lap % 2 else j].append(i)
    return [sorted(share) for share in shares]


def _run_share(tasks, share):
    """([(index, records)], failure): the tasks of share up to the first
    that raises, and failure = (its index, its exception), or None."""
    done = []
    for i in share:
        try:
            done.append((i, _run_task(*tasks[i])))
        except Exception as exc:
            return done, (i, exc)
    return done, None


def _run_child(tasks, share, r, w):
    """In a forked child: send _run_share's result down the pipe (r, w),
    then leave by os._exit, running no exit handler and flushing no buffer
    it inherited.  A result that does not pickle sends nothing."""
    try:
        os.close(r)
        data = pickle.dumps(_run_share(tasks, share))
        with open(w, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _fork_share(tasks, share):
    """(pid, read end of its pipe) of a forked child that runs share."""
    r, w = os.pipe()
    try:
        pid = os.fork()
        if pid == 0:
            _run_child(tasks, share, r, w)  # does not return
    except OSError:
        os.close(r)
        raise
    finally:
        os.close(w)
    return pid, r


def _run_tasks(tasks, k):
    """The records of each task, in task order, from this process and up
    to k - 1 forked children.

    A share whose pipe or child cannot be made (OSError) runs in this
    process.  An exception raised by a check is raised here, with its type
    and message; where several tasks raise, the one first in task order,
    as a serial run would.  No child outlives the call.
    """
    shares = _deal(tasks, k)
    mine, children = shares[0], []
    try:
        for share in shares[1:]:
            try:
                children.append((*_fork_share(tasks, share), share))
            except OSError:
                mine = sorted(mine + share)
        done, first = _run_share(tasks, mine)
        for pid, r, share in children:
            if first is not None and first[0] < share[0]:
                continue  # its tasks all come after the first failure
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            if not data:
                raise RuntimeError(f"suite worker process {pid} ended without "
                                   "sending its records")
            their_done, failure = pickle.loads(data)
            done += their_done
            if failure is not None and (first is None or failure[0] < first[0]):
                first = failure
    finally:
        for pid, r, _ in children:
            os.close(r)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if first is not None:
        raise first[1]
    return [records for _, records in sorted(done, key=itemgetter(0))]


def run_suite(fixture_sets, only: str | None = None, processes: int = 1):
    """Run every identity check, or only the named one, over the given
    fixture sets.

    fixture_sets is an iterable of fixtures.SuiteFixtures.  Records are
    sorted by identity name and parameters.  A fixture's field decides its
    records: exact fixtures demand literal zeros, float fixtures a
    relative residual within tolerance.

    Each fixture object's checks are one task.  With processes = k > 1
    the tasks are dealt, in a fixed order, to this process and k - 1
    children made by os.fork; the records are the same as with one
    process.  A forked child shares nothing back but its records, so
    whatever observes the work in-process (a patched function, a counter)
    sees this process's share only.
    """
    if only is not None and only not in ALL_IDENTITY_NAMES:
        raise ValueError(f"unknown identity {only!r}; known: "
                         + ", ".join(ALL_IDENTITY_NAMES))
    tasks = _suite_tasks(fixture_sets, only)
    per_task = _run_tasks(tasks, max(1, min(processes, len(tasks))))
    records = [rec for recs in per_task for rec in recs]
    records.sort(key=lambda rec: (rec.name, sorted(rec.params.items())))
    return records
