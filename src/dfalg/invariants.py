"""Invariant families of bilinear forms and higher double forms.

Scalar invariants s_k (characteristic coefficients), cofactor / Newton
transformations t_k and s_(r,q) of bilinear forms, Gauss-Bonnet scalars
h_2k with their Einstein-Lovelock cofactors T_2k and N_2k for (2,2)
forms, and the general (r, pq) cofactors of (p,p) forms.

Every family is a normalised specialisation of the (r, pq) cofactor
h_(r,pq)(w) = *(g^(n-pq-r) w^q)/(n-pq-r)!, and h_rpq is the only code
that computes one, picks its path or checks its request: it has one
Hodge-star path and one equivalent series in powers of the metric and
contractions.  The two paths are independent and, on the overlap of their
domains, must agree.  The contraction path is the one that extends the
transformations past the top degree, which is where the generalized
vanishing identities live (module identities).  The table FAMILIES gives
each ordered family its (r, p) and its orders.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb, factorial

from . import scalars
from .dform import (
    DoubleForm,
    _check_metric,
    _eliminate,
    _invert_metric,
    _memoized,
    _no_memo,
    _open_memo,
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
    trace,
    transpose,
    wedge,
    wedge_power,
)


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
    m = r - pq + i, which extends r past n - pq up to n; there only that
    path is defined, and w must be symmetric.  Specializations: p = 1
    gives q! s_(r,q); p = 2 gives h_2q, T_2q, N_2q at r = 0, 1, 2.  Inside
    power_memo() each result is kept under the path that computed it, so
    an "auto" call shares the entry of the path it resolves to, and one
    path never answers a call for the other.  The work budget and then the
    symmetry are checked when a result is built, so a kept result comes
    back with no check.
    """
    _check_square(w, p)
    n = w.n
    pq = p * q
    if not 0 <= r <= n or q < 0 or pq > n:
        raise ValueError(f"(r, pq) = ({r}, {pq}) out of range for dimension {n}")
    path = _resolve_path(n, pq, r, path)

    def build():
        _check_work(n, p, q, r, path)
        if r > n - pq and not is_symmetric(w):
            raise ValueError("the extended (r, pq) cofactor assumes a symmetric form")
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
# the ordered families, one row each over h_rpq


# family -> (r, p, first order): the order-k member of a family is the
# (r, pk) cofactor of a (p, p) form, scaled by 1/k! when p = 1, and its
# orders at dimension n run from the first to (n - r) // p, the largest k
# with r <= n - pk, where the Hodge-star path is defined
FAMILIES = {
    "s": (0, 1, 0),
    "t": (1, 1, 0),
    "h2k": (0, 2, 0),
    "T": (1, 2, 1),
    "N": (2, 2, 1),
}


def family_orders(family: str, n: int) -> range:
    """The orders k of an ordered family at dimension n."""
    r, p, first = FAMILIES[family]
    return range(first, (n - r) // p + 1)


def family_member(family, w, k):
    """s_(r,k)(w) of a bilinear family, h_(r,pk)(w) of a (p, p) one."""
    r, p, _ = FAMILIES[family]
    _check_square(w, p)
    orders = family_orders(family, w.n)
    if k not in orders:
        raise ValueError(f"{family} order k = {k} out of range "
                         f"[{orders.start}, {orders.stop - 1}] for dimension {w.n}")
    return s_rq(w, r, k) if p == 1 else h_rpq(w, r, p, k)


def s_k(h: DoubleForm, k: int):
    """k-th characteristic coefficient: trace for k = 1, determinant for k = n."""
    return family_member("s", h, k).scalar()


def t_k(h: DoubleForm, k: int) -> DoubleForm:
    """k-th cofactor (Newton) transformation; t_0 = g, t_(n-1) = cofactor matrix."""
    return family_member("t", h, k)


def h_2k(R: DoubleForm, k: int):
    """2k-th Gauss-Bonnet scalar of a symmetric (2, 2) Bianchi form."""
    return family_member("h2k", R, k).scalar()


def T_2k(R: DoubleForm, k: int) -> DoubleForm:
    """Einstein-Lovelock tensor of order 2k; T_2 is the Einstein tensor."""
    return family_member("T", R, k)


def N_2k(R: DoubleForm, k: int) -> DoubleForm:
    """Second cofactor of order 2k, a symmetric (2, 2) Bianchi form."""
    return family_member("N", R, k)


def s_rq(h: DoubleForm, r: int, q: int) -> DoubleForm:
    """(r, q) cofactor transformation of a bilinear form, an (r, r) form.

    s_(r,q)(h) = h_(r,1q)(h)/q!, defined for 0 <= r, q <= n; past r = n - q
    it assumes h symmetric.  Inside power_memo() the scaled result is kept
    under ("s_rq", r, q).
    """
    return _memoized(h, ("s_rq", r, q),
                     lambda: h_rpq(h, r, 1, q) * Fraction(1, factorial(q)))


def power_sums(h: DoubleForm, r: int):
    """Traces p_i of the first r composition powers of h."""
    _check_square(h, 1)
    out = []
    acc = h
    for i in range(1, r + 1):
        out.append(contract(acc).scalar())
        if i < r:
            acc = compose(h, acc)
    return out


def s_k_of_sum(A: DoubleForm, B: DoubleForm, k: int):
    """s_k(A + B) expanded through the (r, q) cofactors of A."""
    _check_square(A, 1)
    _check_square(B, 1)
    if A.n != B.n:
        raise ValueError("mismatched dimensions")
    total = 0
    for i in range(k + 1):
        term = inner(s_rq(A, k - i, i), wedge_power(B, k - i))
        total += Fraction(1, factorial(k - i)) * term
    return scalars.coerce(total, A.field)


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
                    [(-1) ** m * s_rq(h, r, n - r - m)
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
# exact slopes of sampled polynomials


def interpolate(ys):
    """Slope at t = 0 of the polynomial p of degree d through (t, ys[t]),
    t = 0, ..., d.

    Newton's forward-difference formula p'(0) = sum_j (-1)^(j-1) D^j y_0/j,
    collapsed by the hockey-stick identity: p'(0) is the sum over i >= 1 of
    (-1)^(i-1) C(d, i)/i (y_i - y_0).  Exact for int and Fraction samples;
    float and DoubleForm samples take the same weights.
    """
    d = len(ys) - 1
    return sum(((ys[i] - ys[0]) * Fraction((-1) ** (i - 1) * comb(d, i), i)
                for i in range(1, d + 1)), 0 * ys[0])


def _sampled(f, x0, dx, d):
    """(f(x0), the slope at t = 0 of f(x0 + t dx)), f of degree at most d
    in t.  f(x0) runs in whatever memo is open; the samples at t >= 1 keep
    and read no memo."""
    ys = [f(x0)]
    with _no_memo():
        ys += [f(x0 + t * dx) for t in range(1, d + 1)]
    return ys[0], interpolate(ys)


# -- Jacobi's formula for (p, p) forms ----------------------------------------
#
# d/dt h_(0,pk)(w0 + t V) at t = 0 is k <h_(p,p(k-1))(w0), V>; at p = 1 this
# is d/dt s_k(h0 + t v) = <t_(k-1)(h0), v>.  Each side is over c = k! at
# p = 1, the FAMILIES scaling, and over c = 1 otherwise.


def _per_c(p, k):
    return Fraction(1, factorial(k) if p == 1 else 1)


def _jacobi(w0: DoubleForm, V: DoubleForm, k: int):
    """(d/dt h_(0,pk)(w0 + t V)/c at t = 0, k <h_(p,p(k-1))(w0), V>/c).

    The left side is the slope of the degree-k polynomial sampled at
    t = 0, ..., k, each sample the trace of w(t)^k, which is h_(0,pk)(w(t))
    with no metric power and no star.  The chain w, ..., w^k is refused
    before the first wedge if it is over budget.  The right side and the
    t = 0 sample share the base point's memo: a caller's power_memo() if one
    is open, else one of its own.  The samples at t >= 1 keep and read no
    memo.
    """
    p = w0.p
    _check_square(V, p)
    _check_work(w0.n, p, k, 0, "hodge")  # the chain w0, ..., w0^k
    per_c = _per_c(p, k)
    with _open_memo():
        rhs = inner(h_rpq(w0, p, p, k - 1), V) * (k * per_c)
        _, slope = _sampled(lambda w: trace(wedge_power(w, k)) * per_c, w0, V, k)
    return slope, rhs


def _jacobi_metric(w0: DoubleForm, V: DoubleForm, g0: DoubleForm, W: DoubleForm, k: int):
    """_jacobi with the metric G(t) = g0 + t W varying too, g0 the identity
    metric: the right side gains <h_(1,pk)(w0) - h_(0,pk)(w0) g, W>/c.

    The derivative splits by the chain rule into the V direction, which is
    _jacobi's, and the W direction at the fixed form w0.  Jacobi's formula
    det G = *(G^n)/n! makes det G times the scalar of w0 in G the
    polynomial N(t) = *(G^m w0^k)/(m! c) = <G^m, *(w0^k)>/(m! c),
    m = n - pk, of degree m: no metric is inverted and no sample skipped.
    With det G(0) = 1, the W direction is N'(0) - N(0) (det G)'(0).  The
    base point's memo, as in _jacobi, covers the _jacobi call, so w0^k and
    its star are built once; the samples at t >= 1 keep and read no memo.
    """
    n, p = w0.n, w0.p
    _check_square(V, p)
    _check_square(W, 1)
    _check_metric_variation(g0, W, n)
    m = n - p * k
    _check_work(n, 1, m, 0, "hodge")  # the chain G, ..., G^m
    per_c = _per_c(p, k)
    with _open_memo():
        d_v, rhs = _jacobi(w0, V, k)
        # h_(1,n)/n! of a bilinear form is past the Hodge-star range
        top = t_or_top(w0, k) if p == 1 else h_rpq(w0, 1, p, k) * per_c
        rhs += inner(top - metric(n, w0.field) * (h_rpq(w0, 0, p, k).scalar() * per_c), W)
        star = hodge(wedge_power(w0, k))
        N0, dN = _sampled(lambda G: inner(wedge_power(G, m), star) * (per_c / factorial(m)),
                          g0, W, m)
    _, ddet = _sampled(_det_bilinear, g0, W, n)
    return d_v + dN - N0 * ddet, rhs


def _metric_scalar(w: DoubleForm, G: DoubleForm, k: int):
    """h_(0,pk)(w)/c in the metric G: the full G-contraction of w^k over
    (pk)! c.  That contraction of a (d, d) form X is the pairing
    <X, (G^-1)^d>, so this is <w^k, (G^-1)^(pk)>/((pk)! c), with G inverted
    once.  Refused before G is inverted or any wedge runs: k < 0, pk > n,
    and a chain w, ..., w^k or G^-1, ..., (G^-1)^(pk) past the budget."""
    _check_metric(w, G)
    n, p = w.n, w.p
    pk = p * k
    if k < 0 or pk > n:
        raise ValueError(f"order k = {k} out of range: need k >= 0 and pk <= {n}")
    # the chain G^-1, ..., (G^-1)^(pk) holds every degree of w, ..., w^k
    _check_work(n, 1, pk, 0, "hodge")
    Ginv = _invert_metric(G)
    return inner(wedge_power(w, k), wedge_power(Ginv, pk)) * (_per_c(p, k) / factorial(pk))


def _det_bilinear(G: DoubleForm):
    """det G, from the elimination that inverts a metric."""
    return _eliminate(G, invert=False)[0]


def _check_metric_variation(g0, w, n):
    """The metric G(t) = g0 + t w of the Jacobi identities: g0 the identity
    metric on n dimensions and w symmetric."""
    if g0 != metric(n, g0.field):
        raise ValueError("the varying-metric identity is stated at the "
                         "canonical frame, g0 must be the identity metric")
    if not is_symmetric(w):
        raise ValueError("the metric variation must be symmetric")


def _check_order(w0, p, k, top):
    """w0 a (p, p) form and 1 <= pk <= top, checked before any wedge."""
    _check_square(w0, p)
    if not 1 <= p * k <= top:
        raise ValueError(f"order pk = {p * k} out of range [{p}, {top}]")


def jacobi_derivative(h0: DoubleForm, v: DoubleForm, k: int):
    """d/dt s_k(h0 + t v) at t = 0 versus the cofactor pairing <t_(k-1), v>."""
    _check_order(h0, 1, k, h0.n)
    return _jacobi(h0, v, k)


def jacobi_double_form(R0: DoubleForm, V: DoubleForm, k: int):
    """d/dt h_2k(R0 + t V) at t = 0 versus <k N_(2k-2)(R0), V>."""
    _check_order(R0, 2, k, R0.n)
    return _jacobi(R0, V, k)


def jacobi_with_metric(h0: DoubleForm, v: DoubleForm, g0: DoubleForm,
                       w: DoubleForm, k: int):
    """Metric-variation Jacobi identity for s_k at t = 0.

    h(t) = h0 + t v and G(t) = g0 + t w with g0 the identity metric in the
    canonical frame.  Returns (d/dt s_k, <t_(k-1), v> + <t_k - s_k g, w>).
    """
    _check_order(h0, 1, k, h0.n)
    return _jacobi_metric(h0, v, g0, w, k)


def jacobi_double_form_with_metric(R0: DoubleForm, V: DoubleForm, g0: DoubleForm,
                                   w: DoubleForm, k: int):
    """Metric-variation Jacobi identity for h_2k at t = 0.

    Returns (d/dt h_2k, <k N_(2k-2), V> + <T_2k - h_2k g, w>); T_2k enters
    the right side, so 2k <= n - 1.
    """
    _check_order(R0, 2, k, R0.n - 1)
    return _jacobi_metric(R0, V, g0, w, k)


def s_k_metric(h: DoubleForm, G: DoubleForm, k: int):
    """s_k of h measured in the metric G: full G-contraction of h^k."""
    _check_square(h, 1)
    return _metric_scalar(h, G, k)


def h_2k_metric(R: DoubleForm, G: DoubleForm, k: int):
    """h_2k of R measured in the metric G: full G-contraction of R^k."""
    _check_square(R, 2)
    return _metric_scalar(R, G, k)


def t_or_top(h: DoubleForm, k: int) -> DoubleForm:
    """t_k extended to k = n through the composition-power expansion."""
    n = h.n
    if k <= n - 1:
        return t_k(h, k)
    if k == n:
        out = DoubleForm.zeros(n, 1, 1, h.field)
        ht = transpose(h)
        power = compose_power(ht, 0)
        for r in range(n + 1):
            if r:
                power = compose(ht, power)  # (h^t)^(o r), as compose_power builds it
            out = out + ((-1) ** r * s_k(h, n - r)) * power
        return out
    raise ValueError(f"t_k order {k} exceeds the dimension {n}")
