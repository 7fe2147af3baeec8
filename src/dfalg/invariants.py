"""Invariant families of bilinear forms and higher double forms.

Scalar invariants s_k (characteristic coefficients), cofactor / Newton
transformations t_k and s_(r,q) of bilinear forms, Gauss-Bonnet scalars
h_2k with their Einstein-Lovelock cofactors T_2k and N_2k for (2,2)
forms, and the general (r, pq) cofactors of (p,p) forms.

Every family is a normalised specialisation of the (r, pq) cofactor
h_(r,pq)(w) = *(g^(n-pq-r) w^q)/(n-pq-r)!, and h_rpq is the only code
that computes one: it has one Hodge-star path and one equivalent series
in powers of the metric and contractions.  The two paths are independent
and, on the overlap of their domains, must agree.  The contraction path
is the one that extends the transformations past the top degree, which
is where the generalized vanishing identities live (module identities).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb, factorial, lcm

from . import scalars
from .dform import (
    DoubleForm,
    _check_metric,
    _contracted,
    _eliminate,
    _invert_metric,
    _memoized,
    check_dense,
    compose,
    compose_power,
    contract,
    contract_iter,
    hodge,
    inner,
    metric,
    metric_power,
    metric_wedge_power,
    transpose,
    wedge,
    wedge_power,
)


def _check_bilinear(h):
    if h.bidegree != (1, 1):
        raise ValueError(f"expected a (1, 1) form, got bidegree {h.bidegree}")


def _check_square(w, p):
    if w.bidegree != (p, p):
        raise ValueError(f"expected a ({p}, {p}) form, got bidegree {w.bidegree}")


def is_symmetric(w):
    return w == transpose(w)


# ---------------------------------------------------------------------------
# the (r, pq) cofactor, which every family below specialises


def h_rpq(w: DoubleForm, r: int, p: int, q: int, path: str = "auto") -> DoubleForm:
    """(r, pq) cofactor transformation of a symmetric (p, p) Bianchi form.

    h_(r,pq)(w) = *(g^(n-pq-r) w^q)/(n-pq-r)! on the Hodge-star path.  The
    contraction path sums (-1)^(i+pq)/(i! m!) g^m c^i(w^q) with
    m = r - pq + i, which extends r past n - pq.  Specializations: p = 1
    gives q! s_(r,q); p = 2 gives h_2q, T_2q, N_2q at r = 0, 1, 2.  Inside
    power_memo() each result is kept under the path that computed it, so
    an "auto" call shares the entry of the path it resolves to, and one
    path never answers a call for the other.  The work budget is checked
    when a result is built, so a kept result comes back with no check.
    """
    _check_square(w, p)
    n = w.n
    pq = p * q
    if r < 0 or q < 0 or pq > n:
        raise ValueError(f"(r, pq) = ({r}, {pq}) out of range for dimension {n}")
    path = _resolve_path(n, pq, r, path)

    def build():
        _check_work(n, p, q, r, path)
        if path == "contraction":
            return _contraction_series(w, r, p, q)
        m = n - pq - r
        return hodge(metric_wedge_power(w, m, q)) * Fraction(1, factorial(m))
    return _memoized(w, ("h_rpq", r, q, path), build)


def _resolve_path(n, pq, r, path):
    """The path of an (r, pq) cofactor: "auto" is the Hodge-star path where
    that is defined, r <= n - pq, and the contraction path past it."""
    if path == "auto":
        return "hodge" if r <= n - pq else "contraction"
    if path == "hodge" and r > n - pq:
        raise ValueError(f"Hodge-star path needs r <= n - pq = {n - pq}, got {r}")
    if path not in ("hodge", "contraction"):
        raise ValueError(f"unknown path {path!r}")
    return path


def _contraction_series(w, r, p, q):
    """sum_i (-1)^(i+pq)/(i! m!) g^m c^i(w^q), m = r - pq + i in [0, n]."""
    n, field = w.n, w.field
    pq = p * q
    out = DoubleForm.zeros(n, r, r, field)
    first = max(0, pq - r)
    ci = contract_iter(wedge_power(w, q), first)
    for i in range(first, min(pq, n + pq - r) + 1):
        m = r - pq + i
        out = out + wedge(metric_power(n, m, field), ci) \
            * Fraction((-1) ** (i + pq), factorial(i) * factorial(m))
        if i < pq:
            ci = contract(ci)
    return out


def _check_work(n, p, q, r, path):
    """Refuse, before the first wedge, an h_(r,pq) with a dense array of
    more than dform.MAX_DENSE_ENTRIES entries.

    The chain w, w^2, ..., w^q has slot degrees p, 2p, ..., pq; the result
    has degree r and the power g^m w^q it is the star of has n - r; the
    contractions c^i(w^q) run through every degree up to min(pq, r).  A
    (d, d) array has C(n, d)^2 entries, and C(n, n - r) = C(n, r).
    """
    degs = [j * p for j in range(1, q + 1)] + [r]
    if path == "contraction":
        degs += range(min(p * q, r) + 1)
    check_dense(max(comb(n, d) for d in degs) ** 2)


# ---------------------------------------------------------------------------
# characteristic coefficients of bilinear forms


def s_k(h: DoubleForm, k: int, path: str = "hodge"):
    """k-th characteristic coefficient: trace for k = 1, determinant for k = n."""
    _check_bilinear(h)
    n = h.n
    if not 0 <= k <= n:
        raise ValueError(f"s_k order {k} out of range [0, {n}]")
    return s_rq(h, 0, k, path).scalar()


def s_all(h: DoubleForm, path: str = "hodge"):
    return [s_k(h, k, path) for k in range(h.n + 1)]


def sectional_value(h: DoubleForm, k: int, r: int, subset):
    """Diagonal value of g^k h^r at a multi-index of size k + r.

    Equals k! r! times the s_r invariant of h restricted to the subset.
    """
    _check_bilinear(h)
    n = h.n
    subset = tuple(subset)
    if len(subset) != k + r:
        raise ValueError(f"subset size {len(subset)} does not match k + r = {k + r}")
    if k + r > n:
        raise ValueError("subset degree exceeds the dimension")
    return metric_wedge_power(h, k, r).entry(subset, subset)


def t_k(h: DoubleForm, k: int, path: str = "hodge") -> DoubleForm:
    """k-th cofactor (Newton) transformation; t_0 = g, t_(n-1) = cofactor matrix."""
    _check_bilinear(h)
    n = h.n
    if not 0 <= k <= n - 1:
        raise ValueError(f"t_k order {k} out of range [0, {n - 1}]")
    return s_rq(h, 1, k, path)


def s_rq(h: DoubleForm, r: int, q: int, path: str = "auto") -> DoubleForm:
    """(r, q) cofactor transformation of a bilinear form, an (r, r) form.

    s_(r,q)(h) = h_(r,1q)(h)/q!.  The Hodge-star definition covers
    r <= n - q; the expansion in metric powers and contractions extends it
    to all r <= n, which is required by the generalized vanishing theorems.
    The extension assumes h symmetric.  Inside power_memo() the scaled
    result is kept like h_rpq's, under the path it resolves to.
    """
    _check_bilinear(h)
    n = h.n
    if not (0 <= q <= n and 0 <= r <= n):
        raise ValueError(f"(r, q) = ({r}, {q}) out of range for dimension {n}")
    path = _resolve_path(n, q, r, path)

    def build():
        if r > n - q and not is_symmetric(h):  # only the contraction path goes past n - q
            raise ValueError("the extended (r, q) cofactor assumes a symmetric form")
        return h_rpq(h, r, 1, q, path) * Fraction(1, factorial(q))
    return _memoized(h, ("s_rq", r, q, path), build)


def power_sums(h: DoubleForm, r: int):
    """Traces p_i of the first r composition powers of h."""
    _check_bilinear(h)
    out = []
    acc = h
    for i in range(1, r + 1):
        out.append(contract(acc).scalar())
        if i < r:
            acc = compose(h, acc)
    return out


def s_k_of_sum(A: DoubleForm, B: DoubleForm, k: int):
    """s_k(A + B) expanded through the (r, q) cofactors of A."""
    _check_bilinear(A)
    _check_bilinear(B)
    if A.n != B.n:
        raise ValueError("mismatched dimensions")
    total = 0
    for i in range(k + 1):
        term = inner(s_rq(A, k - i, i, path="hodge"), wedge_power(B, k - i))
        total += Fraction(1, factorial(k - i)) * term
    return scalars.coerce(total, A.field)


# ---------------------------------------------------------------------------
# Gauss-Bonnet invariants of (2, 2) double forms


def h_2k(R: DoubleForm, k: int, path: str = "hodge"):
    """2k-th Gauss-Bonnet scalar of a symmetric (2, 2) Bianchi form."""
    _check_square(R, 2)
    n = R.n
    if not 0 <= 2 * k <= n:
        raise ValueError(f"h_2k order 2k = {2 * k} out of range [0, {n}]")
    return h_rpq(R, 0, 2, k, path).scalar()


def T_2k(R: DoubleForm, k: int, path: str = "hodge") -> DoubleForm:
    """Einstein-Lovelock tensor of order 2k; T_2 is the Einstein tensor."""
    _check_square(R, 2)
    n = R.n
    if not 2 <= 2 * k <= n - 1:
        raise ValueError(f"T_2k order 2k = {2 * k} out of range [2, {n - 1}]")
    return h_rpq(R, 1, 2, k, path)


def N_2k(R: DoubleForm, k: int, path: str = "hodge") -> DoubleForm:
    """Second cofactor of order 2k, a symmetric (2, 2) Bianchi form."""
    _check_square(R, 2)
    n = R.n
    if not 2 <= 2 * k <= n - 2:
        raise ValueError(f"N_2k order 2k = {2 * k} out of range [2, {n - 2}]")
    return h_rpq(R, 2, 2, k, path)


def g_power_star_expansion(w: DoubleForm, m: int) -> DoubleForm:
    """*(g^m w)/m! of a (p, p) Bianchi form, via the contraction series."""
    p = w.p
    _check_square(w, p)
    n = w.n
    k = m + p
    if not p <= k <= n:
        raise ValueError(f"total degree {k} out of range [{p}, {n}]")
    return h_rpq(w, n - k, p, 1, "contraction")


# ---------------------------------------------------------------------------
# characteristic polynomials


@dataclass
class CharPoly:
    """Polynomial in one variable whose coefficients may be scalars or forms.

    coeffs[i] multiplies the i-th power of the variable.
    """

    family: str
    coeffs: list = dc_field(default_factory=list)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc


def char_poly_s(h: DoubleForm) -> CharPoly:
    """det(h - x g) with coefficients given by the s_k invariants."""
    n = h.n
    return CharPoly("s", [(-1) ** m * s_k(h, n - m) for m in range(n + 1)])


def char_poly_t(h: DoubleForm) -> CharPoly:
    """Cofactor characteristic polynomial t_(n-1)(h - x g); form coefficients."""
    n = h.n
    return CharPoly("t", [(-1) ** m * t_k(h, n - 1 - m) for m in range(n)])


def char_poly_srq(h: DoubleForm, r: int) -> CharPoly:
    """*((h - x g)^(n-r))/(n-r)! expanded through the (r, q) cofactors."""
    n = h.n
    if not 1 <= r <= n:
        raise ValueError(f"cofactor order {r} out of range [1, {n}]")
    return CharPoly("srq",
                    [(-1) ** m * s_rq(h, r, n - r - m, path="hodge")
                     for m in range(n - r + 1)])


def char_poly_hn(R: DoubleForm) -> CharPoly:
    """h_n(R - x g^2/2) for even n, with coefficients from the h_2i scalars."""
    n = R.n
    if n % 2:
        raise ValueError("the h_n characteristic polynomial needs even dimension")
    k = n // 2
    coeffs = []
    for m in range(k + 1):
        c = comb(k, k - m) * Fraction((-1) ** m, 2 ** m) * factorial(2 * m) \
            * h_2k(R, k - m)
        coeffs.append(c)
    return CharPoly("hn", coeffs)


# ---------------------------------------------------------------------------
# exact polynomial interpolation and Jacobi-type derivative identities


def interpolate(points):
    """Exact coefficients of the polynomial through (x, y) sample points.

    Lagrange form over the master polynomial P(x) = prod_j (x - x_j): the
    basis numerator of node i is P(x)/(x - x_i), one synthetic division,
    and its denominator is prod_(j != i)(x_i - x_j).  With integer nodes
    both are Python ints.  Exact scalar samples y_i/den_i are scaled to
    integer numerators over one common denominator, as in dform's integer
    lane, so each coefficient is one Fraction.  DoubleForm and float
    samples take the same weights through scalar multiply and add.
    """
    pts = list(points)
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    master = [1]  # coefficients of P, lowest degree first
    for xj in xs:
        master = [0] + master
        for d in range(len(master) - 1):
            master[d] -= xj * master[d + 1]
    basis, dens = [], []
    for i, xi in enumerate(xs):
        row = [0] * len(xs)
        carry = 0
        for d in range(len(xs), 0, -1):
            carry = master[d] + xi * carry
            row[d - 1] = carry
        basis.append(row)
        den = 1
        for j, xj in enumerate(xs):
            if j != i:
                den *= xi - xj
        dens.append(den)
    if all(isinstance(y, (int, Fraction)) for y in ys):
        weights = [Fraction(y, den) for y, den in zip(ys, dens)]
        L = lcm(*(wt.denominator for wt in weights))
        nums = [wt.numerator * (L // wt.denominator) for wt in weights]
        return [Fraction(sum(num * row[d] for num, row in zip(nums, basis)), L)
                for d in range(len(xs))]
    coeffs = []
    for d in range(len(xs)):
        acc = None
        for y, row, den in zip(ys, basis, dens):
            term = y * Fraction(row[d], den)
            acc = term if acc is None else acc + term
        coeffs.append(acc)
    return coeffs


def poly_coeff_of_t(fn, degree: int):
    """Coefficient of t in the polynomial t -> fn(t), sampled exactly."""
    pts = [(t, fn(t)) for t in range(degree + 1)]
    coeffs = interpolate(pts)
    return coeffs[1] if len(coeffs) > 1 else 0


def jacobi_derivative(h0: DoubleForm, v: DoubleForm, k: int):
    """d/dt s_k(h0 + t v) at t = 0 versus the cofactor pairing <t_(k-1), v>."""
    _check_bilinear(h0)
    _check_bilinear(v)
    if not 1 <= k <= h0.n:
        raise ValueError(f"order {k} out of range [1, {h0.n}]")
    lhs = poly_coeff_of_t(lambda t: s_k(h0 + t * v, k), k)
    rhs = inner(t_k(h0, k - 1), v)
    return lhs, rhs


def jacobi_double_form(R0: DoubleForm, V: DoubleForm, k: int):
    """d/dt h_2k(R0 + t V) at t = 0 versus <k N_(2k-2)(R0), V>."""
    _check_square(R0, 2)
    _check_square(V, 2)
    if not 1 <= 2 * k <= R0.n:
        raise ValueError(f"order 2k = {2 * k} out of range [2, {R0.n}]")
    lhs = poly_coeff_of_t(lambda t: h_2k(R0 + t * V, k), k)
    # N_(2k-2) = h_(2,2(k-1)), which N_2k's range leaves out at k = 1: N_0 = g^2/2
    rhs = inner(k * h_rpq(R0, 2, 2, k - 1), V)
    return lhs, rhs


# -- metric-variation variants ----------------------------------------------
#
# When the metric varies, invariants are computed with the metric
# contraction c_G in place of c; every sampled value is then a rational
# function N(t)/det(G(t)) whose numerator degree is at most n, so the
# derivative at t = 0 comes out of exact interpolation of N and det(G).


def _full_metric_contraction(w: DoubleForm, G: DoubleForm, weight: Fraction):
    """weight times c_G^p(w) of a (p, p) form, a scalar; G is inverted once."""
    if w.p:
        _check_metric(w, G)
        Ginv = _invert_metric(G)
        for _ in range(w.p):
            w = _contracted(w, Ginv)
    return (w * weight).scalar()


def s_k_metric(h: DoubleForm, G: DoubleForm, k: int):
    """s_k of h measured in the metric G: full G-contraction of h^k."""
    _check_bilinear(h)
    return _full_metric_contraction(wedge_power(h, k), G, Fraction(1, factorial(k) ** 2))


def h_2k_metric(R: DoubleForm, G: DoubleForm, k: int):
    """h_2k of R measured in the metric G: full G-contraction of R^k."""
    _check_square(R, 2)
    return _full_metric_contraction(wedge_power(R, k), G, Fraction(1, factorial(2 * k)))


def _det_bilinear(G: DoubleForm):
    """det G, from the elimination that inverts a metric."""
    return _eliminate(G, invert=False)[0]


def _rational_derivative_at_zero(sample_fn, metric_fn, num_degree: int, n: int):
    """d/dt at 0 of f(t) = N(t)/D(t), D(t) = det(G(t)) with D(0) = 1.

    N(t) = f(t) D(t) is a polynomial of degree num_degree <= n, and D one
    of degree at most n.  One power of D suffices for the full
    G-contractions f of s_k and h_2k: f pairs a power of h(t) or R(t), of
    degree k in t, with the k- or 2k-minors of G^-1, and each of these is
    the complementary (n - k)- or (n - 2k)-minor of G over det G
    (Jacobi), so N has degree n or n - k.  Samples run at integer points,
    skipping any where G degenerates, until D has n + 1 nonzero values;
    f is sampled at the first num_degree + 1 of them only.  N and D are
    interpolated exactly, and f'(0) = N'(0) - N(0) D'(0).
    """
    xs, ys, ds = [], [], []
    t = 0
    while len(xs) <= n:
        d = _det_bilinear(metric_fn(t))
        if d != 0:
            if len(xs) <= num_degree:
                ys.append(sample_fn(t) * d)
            xs.append(t)
            ds.append(d)
        t += 1
    ncoef = interpolate(zip(xs, ys))
    n1 = ncoef[1] if len(ncoef) > 1 else 0
    return n1 - ncoef[0] * interpolate(zip(xs, ds))[1]


def jacobi_with_metric(h0: DoubleForm, v: DoubleForm, g0: DoubleForm,
                       w: DoubleForm, k: int):
    """Metric-variation Jacobi identity for s_k at t = 0.

    h(t) = h0 + t v and G(t) = g0 + t w with g0 the identity metric in the
    canonical frame.  Returns (d/dt s_k, <t_(k-1), v> + <t_k - s_k g, w>).
    """
    _check_bilinear(h0)
    _check_bilinear(v)
    _check_bilinear(w)
    n = h0.n
    if g0 != metric(n, g0.field):
        raise ValueError("the varying-metric identity is stated at the "
                         "canonical frame, g0 must be the identity metric")
    if not is_symmetric(w):
        raise ValueError("the metric variation must be symmetric")
    if not 1 <= k <= n:
        raise ValueError(f"order {k} out of range [1, {n}]")

    def sample(t):
        return s_k_metric(h0 + t * v, g0 + t * w, k)

    # s_k(h, G) det(G) is a coefficient of det(H - x G): degree <= n in t
    lhs = _rational_derivative_at_zero(sample, lambda t: g0 + t * w, n, n)
    rhs = inner(t_k(h0, k - 1), v) + inner(t_or_top(h0, k) - s_k(h0, k) * metric(n, h0.field), w)
    return lhs, rhs


def t_or_top(h: DoubleForm, k: int) -> DoubleForm:
    """t_k extended to k = n through the composition-power expansion."""
    n = h.n
    if k <= n - 1:
        return t_k(h, k)
    if k == n:
        out = DoubleForm.zeros(n, 1, 1, h.field)
        ht = transpose(h)
        for r in range(n + 1):
            out = out + ((-1) ** r * s_k(h, n - r)) * compose_power(ht, r)
        return out
    raise ValueError(f"t_k order {k} exceeds the dimension {n}")


def jacobi_double_form_with_metric(R0: DoubleForm, V: DoubleForm, g0: DoubleForm,
                                   w: DoubleForm, k: int):
    """Metric-variation Jacobi identity for h_2k at t = 0.

    Returns (d/dt h_2k, <k N_(2k-2), V> + <T_2k - h_2k g, w>).  The
    derivative interpolates N(t) = h_2k(R(t), G(t)) det(G(t)): the full
    G-contraction pairs R(t)^k, of degree k in t, with the 2k-minors of
    G^-1, and by Jacobi's complementary-minor theorem each of these is
    an (n - 2k)-minor of G over det G, so N has degree at most n - k.
    """
    _check_square(R0, 2)
    _check_square(V, 2)
    n = R0.n
    if g0 != metric(n, g0.field):
        raise ValueError("the varying-metric identity is stated at the "
                         "canonical frame, g0 must be the identity metric")
    if not is_symmetric(w):
        raise ValueError("the metric variation must be symmetric")
    if not 1 <= 2 * k <= n - 1:
        raise ValueError(f"order 2k = {2 * k} out of range [2, {n - 1}] "
                         "(T_2k enters the right-hand side)")

    def sample(t):
        return h_2k_metric(R0 + t * V, g0 + t * w, k)

    lhs = _rational_derivative_at_zero(sample, lambda t: g0 + t * w, n - k, n)
    rhs = inner(k * h_rpq(R0, 2, 2, k - 1), V) \
        + inner(T_2k(R0, k) - h_2k(R0, k) * metric(n, R0.field), w)
    return lhs, rhs
