"""Dense double forms and their algebra.

A (p, q) double form on an n-dimensional Euclidean space is stored as the
C(n,p) x C(n,q) matrix of its values on lexicographically ordered basis
multi-vectors: entry[rank(I), rank(J)] = w(e_I, e_J).  The identification
with multilinear forms uses the shuffle convention (no 1/k! weights), so
the k-th exterior power of a bilinear form h evaluates to k! times the
corresponding minor determinant.
"""

from __future__ import annotations

import contextlib
import contextvars
from fractions import Fraction
from math import comb, factorial, lcm

import numpy as np

from . import scalars
from .multiindex import (
    MAX_DIM,
    complement_table,
    insertion_table,
    merge_sign_tuple,
    merge_table,
    rank_tuple,
    subsets,
)


class DoubleForm:
    """Immutable-by-convention dense (p, q) double form."""

    __slots__ = ("n", "p", "q", "mat", "field")

    def __init__(self, n, p, q, mat, field=scalars.RATIONAL):
        if not 0 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [0, {MAX_DIM}], got {n}")
        if p < 0 or q < 0:
            raise ValueError(f"bidegree ({p}, {q}) must be non-negative")
        scalars.check_field(field)
        mat = np.asarray(mat)
        shape = (comb(n, p), comb(n, q))
        if mat.shape != shape:
            raise ValueError(f"matrix shape {mat.shape} does not match bidegree "
                             f"({p}, {q}) in dimension {n}, expected {shape}")
        self.n = n
        self.p = p
        self.q = q
        self.mat = mat
        self.field = field

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n, p, q, field=scalars.RATIONAL):
        dtype = float if field == scalars.FLOAT64 else object
        mat = np.zeros((comb(n, p), comb(n, q)), dtype=dtype)
        return cls(n, p, q, mat, field)

    @classmethod
    def from_entries(cls, n, p, q, entries, field=scalars.RATIONAL):
        """Build from a {(I, J): value} mapping of ascending index tuples."""
        out = cls.zeros(n, p, q, field)
        for (I, J), v in entries.items():
            out.mat[rank_tuple(tuple(I), n), rank_tuple(tuple(J), n)] = scalars.coerce(v, field)
        return out

    # -- basic structure ---------------------------------------------------

    @property
    def bidegree(self):
        return (self.p, self.q)

    def entry(self, I, J):
        return self.mat[rank_tuple(tuple(I), self.n), rank_tuple(tuple(J), self.n)]

    def scalar(self):
        """The single value of a (0, 0) form."""
        if self.p != 0 or self.q != 0:
            raise ValueError(f"bidegree ({self.p}, {self.q}) form is not a scalar")
        return self.mat[0, 0]

    def max_abs(self):
        if self.mat.size == 0:
            return 0
        return max(abs(v) for v in self.mat.flat)

    def is_zero(self):
        return all(v == 0 for v in self.mat.flat)

    def astype(self, field):
        if field == self.field:
            return self
        if field == scalars.FLOAT64:
            return DoubleForm(self.n, self.p, self.q, self.mat.astype(float), field)
        mat = np.empty(self.mat.shape, dtype=object)
        for idx, v in np.ndenumerate(self.mat):
            mat[idx] = scalars.coerce(v, field)
        return DoubleForm(self.n, self.p, self.q, mat, field)

    def copy(self):
        return DoubleForm(self.n, self.p, self.q, self.mat.copy(), self.field)

    def __repr__(self):
        return f"DoubleForm(n={self.n}, p={self.p}, q={self.q}, field={self.field!r})"

    # -- linear structure ---------------------------------------------------

    def _check_compatible(self, other):
        if self.n != other.n or self.field != other.field:
            raise ValueError("incompatible double forms")

    def __add__(self, other):
        self._check_compatible(other)
        if self.bidegree != other.bidegree:
            raise ValueError(f"cannot add bidegrees {self.bidegree} and {other.bidegree}")
        return DoubleForm(self.n, self.p, self.q, self.mat + other.mat, self.field)

    def __sub__(self, other):
        self._check_compatible(other)
        if self.bidegree != other.bidegree:
            raise ValueError(f"cannot subtract bidegrees {self.bidegree} and {other.bidegree}")
        return DoubleForm(self.n, self.p, self.q, self.mat - other.mat, self.field)

    def __neg__(self):
        return DoubleForm(self.n, self.p, self.q, -self.mat, self.field)

    def __mul__(self, scalar):
        if isinstance(scalar, DoubleForm):
            return NotImplemented
        if self.field == scalars.FLOAT64:
            scalar = float(scalar)
        return DoubleForm(self.n, self.p, self.q, self.mat * scalar, self.field)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DoubleForm):
            return NotImplemented
        return (self.n == other.n and self.bidegree == other.bidegree
                and bool(np.all(self.mat == other.mat)))

    __hash__ = None  # unhashable: payload is a mutable array


def one(n, field=scalars.RATIONAL):
    """The unit (0, 0) double form."""
    out = DoubleForm.zeros(n, 0, 0, field)
    out.mat[0, 0] = scalars.coerce(1, field)
    return out


def metric(n, field=scalars.RATIONAL):
    """The inner product g as a (1, 1) double form: the identity matrix."""
    return metric_power(n, 1, field)


def metric_power(n, k, field=scalars.RATIONAL):
    """The k-th exterior power g^k: k! times the identity on Lambda^k."""
    if not 0 <= k <= n:
        raise ValueError(f"metric power {k} out of range [0, {n}]")
    out = DoubleForm.zeros(n, k, k, field)
    fact = scalars.coerce(factorial(k), field)
    for r in range(comb(n, k)):
        out.mat[r, r] = fact
    return out


# ---------------------------------------------------------------------------
# products, contractions, star


def wedge(w1: DoubleForm, w2: DoubleForm) -> DoubleForm:
    """Exterior product of double forms (slot-wise wedge, shuffle signs)."""
    w1._check_compatible(w2)
    n = w1.n
    out = DoubleForm.zeros(n, w1.p + w2.p, w1.q + w2.q, w1.field)
    if out.p <= n and out.q <= n:
        _wedge(n, w1.mat, w1.bidegree, w2.mat, w2.bidegree, out.mat)
    return out


def _wedge(n, a, da, b, db, out):
    """Slot-wise wedge of dense arrays a and b into the fresh zero array out.

    da and db hold the slot degrees: (p, q) for a double form, (k,) for an
    exterior form, (k,)*r for a multiform.  Every slot needs da + db <= n.
    Each nonzero a[I] meets b[J] for every J disjoint from I slot by slot;
    the product lands on out[I|J], negated when an odd number of slot
    merges are odd.  Targets repeat across the nonzeros of a, so they are
    summed with np.add.at.
    """
    nz = np.nonzero(a)
    r = len(da)
    src = tgt = 0
    neg = False
    for s, (x, y) in enumerate(zip(da, db)):
        cols, targets, negs = merge_table(n, x, y)
        shape = [len(nz[s])] + [1] * r
        shape[s + 1] = cols.shape[1]
        src = src * b.shape[s] + cols[nz[s]].reshape(shape)
        tgt = tgt * out.shape[s] + targets[nz[s]].reshape(shape)
        neg = neg ^ negs[nz[s]].reshape(shape)
    vals = b.reshape(-1)[src]
    keep = vals != 0
    prod = np.broadcast_to(a[nz].reshape((-1,) + (1,) * r), vals.shape)[keep] \
        * vals[keep]
    flip = neg[keep]
    prod[flip] = -prod[flip]
    np.add.at(out.reshape(-1), tgt[keep], prod)


def wedge_power(w: DoubleForm, k: int) -> DoubleForm:
    """k-fold exterior power; k = 0 gives the unit (0, 0) form."""
    return metric_wedge_power(w, 0, k)


# The power memo: None outside power_memo(), else a dict mapping id(w) to
# (w, {(m, k): g^m w^k}).  Holding w keeps its id from being reused while
# the memo lives.
_POWER_MEMO = contextvars.ContextVar("dfalg_power_memo", default=None)


@contextlib.contextmanager
def power_memo():
    """Share the powers built by metric_wedge_power inside the block.

    Each g^m w^k is built once per form w, found by the identity of w, and
    handed to every later caller; its array is read-only, so a caller that
    writes to a shared power fails instead of corrupting the next one.  The
    memo and its powers are dropped when the block exits.
    """
    token = _POWER_MEMO.set({})
    try:
        yield
    finally:
        _POWER_MEMO.reset(token)


def metric_wedge_power(w: DoubleForm, m: int, k: int) -> DoubleForm:
    """g^m w^k, the metric power g^m times the k-fold exterior power of w.

    w^k extends w^(k-1) by one wedge with w, and g^m w^k is one more wedge
    from g^m; k = 0 gives g^m.  Inside power_memo() every power built on
    the way is kept and reused; w itself is never stored or marked.
    """
    if k < 0:
        raise ValueError("negative exterior power")
    if k == 0:
        return metric_power(w.n, m, w.field)
    memo = _POWER_MEMO.get()
    powers = {} if memo is None else memo.setdefault(id(w), (w, {}))[1]

    def keep(key, form):
        if memo is not None:
            form.mat.flags.writeable = False
            powers[key] = form
        return form

    if (m, k) in powers:
        return powers[(m, k)]
    if m:
        return keep((m, k), wedge(metric_power(w.n, m, w.field),
                                  metric_wedge_power(w, 0, k)))
    j = max((j for j in range(2, k) if (0, j) in powers), default=1)
    out = powers.get((0, j), w)
    for j in range(j + 1, k + 1):
        out = keep((0, j), wedge(out, w))
    return out


def contract(w: DoubleForm) -> DoubleForm:
    """Trace-like contraction mapping (p, q) to (p-1, q-1).

    Vanishes by convention when p = 0 or q = 0.
    """
    return _contract(w, None)


def contract_iter(w: DoubleForm, r: int) -> DoubleForm:
    for _ in range(r):
        w = contract(w)
    return w


def contract_with_metric(w: DoubleForm, G: DoubleForm) -> DoubleForm:
    """Contraction with respect to an arbitrary metric G in place of g.

    G is a symmetric invertible (1, 1) form (positive definite in the
    geometric setting); the inserted indices are paired through the
    inverse metric from _invert_metric.  G = identity reduces to
    contract(w).
    """
    n = w.n
    if G.bidegree != (1, 1) or G.n != n:
        raise ValueError("metric must be a (1, 1) form on the same space")
    return _contract(w, _invert_metric(G))


def _contract(w: DoubleForm, Ginv) -> DoubleForm:
    """c(w), or c_G(w) when Ginv is the inverse metric, by one gather.

    out[I, J] = sum over a, b of Ginv[a, b] eps w[{a}|I, {b}|J], eps the
    product of the two insertion signs; Ginv None is the identity, so only
    a = b is summed.  An index a already in I has the sentinel rank, which
    reads the zero row (or column) padded onto w.  Exact values are scaled
    to Python ints over one common denominator per operand, summed as ints
    and divided once per nonzero output entry.  Only nonzero entries are
    written, so float zeros stay +0.0.
    """
    n, p, q = w.n, w.p, w.q
    out = DoubleForm.zeros(n, max(p - 1, 0), max(q - 1, 0), w.field)
    if p == 0 or q == 0:
        return out
    rp, negp = insertion_table(n, p)
    rq, negq = insertion_table(n, q)
    exact = w.mat.dtype == object and (Ginv is None or Ginv.dtype == object)
    m, den = _integer_scaled(w.mat) if exact else (w.mat, 1)
    pad = np.zeros((m.shape[0] + 1, m.shape[1] + 1), dtype=m.dtype)
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
        A, den_g = _integer_scaled(Ginv) if exact else (Ginv, 1)
        den *= den_g
        res = np.tensordot(x, A, axes=([1, 3], [0, 1]))
    nz = np.nonzero(res)
    vals = res[nz]
    if den != 1:
        vals = np.array([Fraction(v, den) for v in vals], dtype=object)
    out.mat[nz] = vals
    return out


def _integer_scaled(mat):
    """An exact array as (Python-int object array, common denominator)."""
    flat = mat.reshape(-1)
    den = lcm(*(v.denominator for v in flat))
    ints = np.array([v.numerator * (den // v.denominator) for v in flat], dtype=object)
    return ints.reshape(mat.shape), den


def _invert_metric(G: DoubleForm):
    """Exact inverse of a symmetric invertible (1, 1) form.

    Rational mode runs fraction-free (Bareiss) Gauss-Jordan elimination on
    [S | I] in Python ints, S = s G scaled to integers: every division is
    exact, and at the end each row reads d e_i | d S^-1 with d = +-det S,
    so G^-1 = s S^-1.  Float mode runs Gauss-Jordan elimination with
    partial pivoting.  Raises on a non-symmetric or singular matrix.
    """
    n = G.n
    M = G.mat
    if not np.all(M == M.T):
        raise ValueError("metric must be symmetric")
    if G.field == scalars.FLOAT64:
        return _invert_float(M.astype(float))
    S, s = _integer_scaled(M)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(S)]
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
    inv = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            inv[i, j] = Fraction(s * a[i][n + j], a[i][i])
    return inv


def _invert_float(a):
    """Gauss-Jordan inverse of a float64 matrix with partial pivoting."""
    n = a.shape[0]
    inv = np.eye(n)
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


def hodge(w: DoubleForm) -> DoubleForm:
    """Double Hodge star: applies the usual star to both argument slots."""
    n, p, q = w.n, w.p, w.q
    out = DoubleForm.zeros(n, max(n - p, 0), max(n - q, 0), w.field)
    if p <= n and q <= n:  # else an identically-zero spillover from a wedge
        _star(n, w.mat, w.bidegree, out.mat)
    return out


def _star(n, a, degs, out):
    """Slot-wise Hodge star of a dense array a into the zero array out.

    degs holds the slot degrees of a, each at most n: out[I^c, J^c, ...] =
    eps(I) eps(J) ... a[I, J, ...] with eps the complement sign.  For a
    double form this is the sign (-1)^((p+q)(n-p-q)) eps(I^c) eps(J^c) of
    the definition, as (p+q)(n-p-q) = p(n-p) + q(n-q) mod 2.  Only nonzero
    entries are written, so float zeros stay +0.0.
    """
    r = len(degs)
    ranks = []
    neg = False
    for s, d in enumerate(degs):
        # output rank K reads a at K^c, with sign eps(K^c) = (-1)^(d(n-d)) eps(K)
        rc, negs = complement_table(n, n - d)
        ranks.append(rc)
        shape = [1] * r
        shape[s] = -1
        neg = neg ^ (negs ^ bool(d * (n - d) % 2)).reshape(shape)
    vals = a[np.ix_(*ranks)]
    nz = vals != 0
    flip = nz & neg
    keep = nz & ~flip
    out[keep] = vals[keep]
    out[flip] = -vals[flip]


def transpose(w: DoubleForm) -> DoubleForm:
    return DoubleForm(w.n, w.q, w.p, w.mat.T.copy(), w.field)


def inner(w1: DoubleForm, w2: DoubleForm):
    """Euclidean inner product of two double forms of equal bidegree."""
    w1._check_compatible(w2)
    if w1.bidegree != w2.bidegree:
        raise ValueError(f"inner product needs equal bidegrees, "
                         f"got {w1.bidegree} and {w2.bidegree}")
    acc = 0
    for v1, v2 in zip(w1.mat.flat, w2.mat.flat):
        if v1 != 0 and v2 != 0:
            acc += v1 * v2
    return scalars.coerce(acc, w1.field)


def compose(w1: DoubleForm, w2: DoubleForm) -> DoubleForm:
    """Composition product: composition of the associated linear maps.

    For w1 in (p, q) and w2 in (r, s) the result lives in (r, q) and is zero
    unless p = s; on matrices it is M(w2) . M(w1).
    """
    w1._check_compatible(w2)
    if w1.p != w2.q:
        return DoubleForm.zeros(w1.n, w2.p, w1.q, w1.field)
    return DoubleForm(w1.n, w2.p, w1.q, w2.mat.dot(w1.mat), w1.field)


def compose_power(w: DoubleForm, r: int) -> DoubleForm:
    """r-th power in the composition algebra; r = 0 is the identity g^p/p!."""
    if w.p != w.q:
        raise ValueError(f"composition powers need square bidegree, got {w.bidegree}")
    if r < 0:
        raise ValueError("negative composition power")
    size = comb(w.n, w.p)
    if w.field == scalars.FLOAT64:
        acc = np.eye(size)
    else:
        acc = np.zeros((size, size), dtype=object)
        for i in range(size):
            acc[i, i] = 1
    for _ in range(r):
        acc = acc.dot(w.mat)
    return DoubleForm(w.n, w.p, w.q, acc, w.field)


def bianchi_residual(w: DoubleForm):
    """Largest absolute value of the first-Bianchi alternating sum.

    Zero exactly when w satisfies the first Bianchi identity.
    """
    n, p, q = w.n, w.p, w.q
    if p < 1 or q < 1:
        raise ValueError("Bianchi sum needs p >= 1 and q >= 1")
    worst = 0
    ranks_p = {s: r for r, s in enumerate(subsets(n, p))}
    for X in subsets(n, p + 1):
        for Y in subsets(n, q - 1):
            acc = 0
            for j, xj in enumerate(X):
                rest = X[:j] + X[j + 1:]
                merged = merge_sign_tuple((xj,), Y)
                if merged is None:
                    continue
                sign, col = merged
                v = w.mat[ranks_p[rest], rank_tuple(col, n)]
                term = sign * v
                acc += -term if j % 2 == 0 else term  # (-1)^j with 1-based j
            worst = max(worst, abs(acc))
    return worst
