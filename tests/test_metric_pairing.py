"""Differential tests of the metric contraction and the metric scalars,
which reach the metric only through the wedge, against the kernels they
replaced.

contract_with_metric(w, G) is (-1)^(n(p+q)) *(G^-1 *w), and the scalar
h_(0,pk)(w)/c in the metric G is the pairing <w^k, (G^-1)^(pk)>/((pk)! c).
The references below are the replaced code, kept as copies: the G^-1
branch of the contraction gather, which paired the gathered (I J, a b)
array with G^-1 in one .dot, and the old _metric_scalar, which contracted
w^k pk times through that gather.  Exact values must equal theirs, the
loop ref_contract_with_metric's and, for bilinear forms, the principal
minor sums of G^-1 H.  Float inputs with irrational values sum in another
order, so they are held to a relative 1e-12.
"""

from fractions import Fraction
from math import comb, factorial, sqrt

import numpy as np
import pytest
from test_kernels import ref_contract_with_metric

from dfalg import dform, invariants, oracle, scalars
from dfalg.dform import DoubleForm, contract, contract_with_metric, hodge, metric, wedge, wedge_power
from dfalg.fixtures import SplitMix64, random_bilinear
from dfalg.multiindex import insertion_table

R, F = scalars.RATIONAL, scalars.FLOAT64
FIELDS = [R, F]
FLOAT_RTOL = 1e-12
SQRT2 = sqrt(2.0)

# the most inner-loop steps of ref_contract_with_metric one case may take
LOOP_CAP = 3_000


# -- the replaced code, kept as the reference -------------------------------------

def gather_contract(n, p, q, m, Ginv):
    """The metric branch of dform._contract as it was: out[I, J] sums
    Ginv[a, b] eps m[{a}|I, {b}|J] over a and b, with one (I J, a b) by
    (a b, 1) product."""
    rp, negp = insertion_table(n, p)
    rq, negq = insertion_table(n, q)
    pad = np.zeros((m.shape[0] + 1, m.shape[1] + 1), dtype=m.dtype)
    pad[:-1, :-1] = m
    x = pad[rp[:, :, None, None], rq[None, None, :, :]]
    neg = negp[:, :, None, None] ^ negq[None, None, :, :]
    x[neg] = -x[neg]
    x = x.transpose(0, 2, 1, 3).reshape(len(rp) * len(rq), n * n)
    return x.dot(Ginv.reshape(n * n, 1)).reshape(len(rp), len(rq))


def gather_contracted(w, Ginv):
    """c_G(w) as dform._contracted built it from the inverse metric Ginv."""
    n, (p, q), field = w.n, w.bidegree, w.field
    if p == 0 or q == 0:
        return DoubleForm.zeros(n, max(p - 1, 0), max(q - 1, 0), field)
    num, den, mag = w._lane()
    A, den_g, mag_g = Ginv._lane()
    dtype = dform._lane_dtype(field, mag * mag_g * n * n, mag, mag_g)
    res = gather_contract(n, p, q, dform._as(num, dtype), dform._as(A, dtype))
    return dform._form(DoubleForm, n, (p - 1, q - 1), field, res, den * den_g)


def gather_contract_with_metric(w, G):
    return gather_contracted(w, dform._invert_metric(G))


def loop_metric_scalar(w, G, k):
    """_metric_scalar as it was: w^k contracted pk times through G^-1,
    over (pk)! c."""
    x = wedge_power(w, k)
    Ginv = dform._invert_metric(G) if x.p else None
    for _ in range(x.p):
        x = gather_contracted(x, Ginv)
    c = factorial(k) if w.p == 1 else 1
    return (x * Fraction(1, c * factorial(w.p * k))).scalar()


# -- inputs -----------------------------------------------------------------------

def dense(n, p, q, seed, field):
    """A dense (p, q) form: exact entries a/b with a in [-3, 3] and b in
    1..3, float entries a + b sqrt(2), irrational where b != 0."""
    rng = SplitMix64(seed)
    vals = scalars.zeros((comb(n, p), comb(n, q)), field)
    flat = vals.reshape(-1)
    for i in range(flat.size):
        a, b = rng.next_entry(), rng.next_entry()
        flat[i] = a + b * SQRT2 if field == F else Fraction(a, 1 + abs(b) % 3)
    return DoubleForm(n, p, q, vals, field)


def metrics(n, field):
    """g, lambda g, a random symmetric G + c g (diagonally dominant, so
    invertible) and, exact only, that G times 2^40 plus g over 3, built
    straight into the object lane as test_kernels.determinant_inputs
    does; float metrics past g have irrational entries."""
    g = metric(n, field) if n else DoubleForm.zeros(0, 1, 1, field)
    if n == 0:
        return [g]
    sym = random_bilinear(n, 40 + n, "symmetric", field)
    if field == F:
        return [g, g * sqrt(3.0), sym * SQRT2 + (5 * n + 1) * g]
    G = sym + (5 * n + 1) * g
    big = G.mat * 2 ** 40 + np.eye(n, dtype=object)
    obj = dform._form(DoubleForm, n, (1, 1), R, np.array(big, dtype=object), 3)
    assert obj._lane()[0].dtype == object
    return [g, g * Fraction(7, 3), G, obj]


def assert_close(new, ref, field):
    """Equal values exact; within FLOAT_RTOL of the largest |ref| float."""
    new, ref = np.asarray(new, dtype=object if field == R else float), np.asarray(ref)
    assert new.shape == ref.shape
    if field == R:
        assert bool(np.all(new == ref))
    elif ref.size:
        scale = float(np.max(np.abs(ref.astype(float))))
        assert float(np.max(np.abs(new - ref.astype(float)))) <= FLOAT_RTOL * scale


def chosen(Gs, n, i):
    """Every metric up to n = 6; past it g and one other, rotating with i,
    to bound the time of the object-lane cases."""
    return Gs if n <= 6 else [Gs[0], Gs[1 + i % (len(Gs) - 1)]]


def loop_steps(n, p, q):
    return comb(n, max(p - 1, 0)) * comb(n, max(q - 1, 0)) * (n - p + 1) * (n - q + 1)


# -- contract_with_metric ---------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", range(0, 9))
def test_metric_contraction_matches_the_gather(n, field):
    # every (p, q) to n + 1, the spillover degree a wedge past the top gives
    Gs = metrics(n, field)
    for p in range(n + 2):
        for q in range(n + 2):
            w = dense(n, p, q, 100 * n + 10 * p + q, field)
            for i, G in enumerate(chosen(Gs, n, p + q)):
                new = contract_with_metric(w, G)
                ref = gather_contract_with_metric(w, G)
                assert new.bidegree == ref.bidegree == (max(p - 1, 0), max(q - 1, 0))
                assert_close(new.mat, ref.mat, field)
                # the loop meets one metric per (p, q), under a cap
                if i == (p + q) % 2 and loop_steps(n, p, q) <= LOOP_CAP:
                    assert_close(new.mat, ref_contract_with_metric(w, G).mat, field)


def test_metric_contraction_meets_the_loop_on_every_metric():
    for n in range(1, 6):
        for field in FIELDS:
            for G in metrics(n, field):
                for p, q in ((1, 1), (2, 1), (n, n), (n, 1)):
                    w = dense(n, p, q, 7 * n + p, field)
                    assert_close(contract_with_metric(w, G).mat,
                                 ref_contract_with_metric(w, G).mat, field)


def test_metric_contraction_sign_at_odd_n_and_odd_p_plus_q():
    # c(w) = (-1)^(n(p+q)) *(g *w): at n = 3, (p, q) = (1, 2) the star side
    # is -c(w), and the metric contraction applies that sign
    n = 3
    w = DoubleForm.from_entries(n, 1, 2, {((0,), (0, 1)): 1})
    g = metric(n)
    assert hodge(wedge(g, hodge(w))) == -contract(w)
    assert contract(w) == DoubleForm.from_entries(n, 0, 1, {((), (1,)): 1})
    half = contract_with_metric(w, 2 * g)
    assert half.entry((), (1,)) == Fraction(1, 2)
    assert half == DoubleForm.from_entries(n, 0, 1, {((), (1,)): Fraction(1, 2)})
    # and the parity over every bidegree at n = 2..5, one of each sign seen
    signs = set()
    for n in range(2, 6):
        g = metric(n)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                w = dense(n, p, q, 31 * n + 5 * p + q, R)
                sign = (-1) ** (n * (p + q))
                assert hodge(wedge(g, hodge(w))) == sign * contract(w)
                assert contract_with_metric(w, g) == contract(w)
                signs.add(sign)
    assert signs == {1, -1}


# -- the metric scalars -----------------------------------------------------------

def scalar_cases(n, field):
    """(w, k) for p = 1, 2, 3 and every order k with pk <= n."""
    out = []
    for p in (1, 2, 3):
        if p <= n:
            w = dense(n, p, p, 500 + 10 * n + p, field)
            out += [(w, k) for k in range(n // p + 1)]
    return out


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", range(1, 9))
def test_metric_scalar_matches_the_contraction_loop(n, field):
    Gs = metrics(n, field)
    for i, (w, k) in enumerate(scalar_cases(n, field)):
        for G in chosen(Gs, n, i):
            got = invariants._metric_scalar(w, G, k)
            want = loop_metric_scalar(w, G, k)
            if field == R:
                assert got == want, (w.p, k)
            else:
                assert isinstance(got, float)
                assert got == pytest.approx(want, rel=FLOAT_RTOL, abs=0), (w.p, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_s_k_metric_is_the_minor_sum_of_the_inverse_times_h(n):
    # s_k(h) in the metric G is e_k(G^-1 H), the principal k x k minor sum
    for G in metrics(n, R):
        h = dense(n, 1, 1, 900 + n, R)
        M = dform._invert_metric(G).mat.dot(h.mat)
        for k in range(n + 1):
            assert invariants.s_k_metric(h, G, k) == oracle.minor_sum_oracle(M, k), k


def test_metric_paths_run_no_contraction_kernel(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a metric path ran the contraction kernel")

    monkeypatch.setattr(dform, "_contract", forbidden)
    n = 6
    G = metrics(n, R)[2]
    for p in range(1, n + 1):
        contract_with_metric(dense(n, p, p, 70 + p, R), G)
    for w, k in scalar_cases(n, R):
        invariants._metric_scalar(w, G, k)
