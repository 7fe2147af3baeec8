"""Dense double forms, exterior forms and multiforms, and their algebra.

A (p, q) double form on an n-dimensional Euclidean space is stored as the
C(n,p) x C(n,q) matrix of its values on lexicographically ordered basis
multi-vectors: entry[rank(I), rank(J)] = w(e_I, e_J).  The identification
with multilinear forms uses the shuffle convention (no 1/k! weights), so
the k-th exterior power of a bilinear form h evaluates to k! times the
corresponding minor determinant.  Exterior forms (one slot of degree k)
and (k,...,k) multiforms (r slots) are the same storage with other slot
degrees, and share the wedge and star kernels.

Exact forms compute in the integer lane: the values are num / den with num
an integer array and den one positive Python int, kept in lowest terms
(the zero form has den = 1).  num is int64 when a bound checked before
each operation keeps every entry and partial sum below LANE_BOUND, and an
object array of Python ints otherwise.  Float forms hold float64 values.
"""

from __future__ import annotations

import contextlib
import contextvars
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm, prod
from operator import add

import numpy as np

from . import scalars
from .multiindex import (
    MAX_DIM,
    complement_table,
    insertion_table,
    merge_table,
    rank_tuple,
)

# int64 numerators stay below this magnitude; an operation whose bound
# (input magnitudes times the terms summed per entry) reaches it runs on
# Python ints instead.
LANE_BOUND = 1 << 62

# The most (nonzero, partner) pairs one step of the wedge kernel gathers:
# about 2^21 entries keep each of its index and value arrays near 16 MB.
WEDGE_CHUNK = 1 << 21

# The most dense entries one request may build, 128 MiB of float64 values
# or object pointers: every entry point whose input can ask for more works
# out its largest array or gather and calls check_dense before allocating.
MAX_DENSE_ENTRIES = 1 << 24


def check_dense(need, what="the computation"):
    if need > MAX_DENSE_ENTRIES:
        raise ValueError(f"{what} needs {need} dense entries, "
                         f"above the limit of {MAX_DENSE_ENTRIES}")


class _LaneForm:
    """Immutable dense form: n, the slot degrees, the field and the lane.

    The constructor reads its value array once.  An exact form keeps the
    integer lane (num, den) and builds its values, as int and Fraction,
    when they are first read; a float form keeps a float64 copy, which is
    its values.  Either way the values are read-only and a later change to
    the array the form was built from does not reach it.  The subclasses
    are typed views that name the slot degrees and the values, and set
    their error messages.
    """

    __slots__ = ("n", "_degs", "field", "_vals", "_num", "_den", "_mag")

    def __init__(self, n, degs, values, field):
        self._check(n, degs, field)
        values = np.asarray(values)
        shape = _shape(n, degs)
        if values.shape != shape:
            raise ValueError(self._SHAPE.format(got=values.shape, n=n, degs=degs,
                                                shape=shape, r=len(degs)))
        if field == scalars.FLOAT64:
            num, den, mag = np.array(values, dtype=np.float64), 1, None
        else:
            num, den, mag = _lane_of(values)
        self.n, self._degs, self.field = n, degs, field
        self._vals, self._num, self._den, self._mag = None, num, den, mag

    @classmethod
    def _check(cls, n, degs, field):
        if not 0 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [0, {MAX_DIM}], got {n}")
        if not degs:
            raise ValueError("multiforms need at least one slot")
        if min(degs) < 0:
            raise ValueError(cls._NEGATIVE.format(*degs))
        scalars.check_field(field)

    @classmethod
    def _zeros(cls, n, degs, field):
        cls._check(n, degs, field)
        num = np.zeros([comb(n, d) for d in degs], dtype=_lane_dtype(field, 0))
        return _form(cls, n, degs, field, num, 1, scalars.coerce(0, field) if num.size else 0)

    @classmethod
    def _from_entries(cls, n, degs, entries, field):
        """The form with {(I, J, ...): value} entries, one ascending index
        tuple per slot, and zeros elsewhere."""
        cls._check(n, degs, field)
        values = scalars.zeros(_shape(n, degs), field)
        for idx, v in entries.items():
            values[tuple(rank_tuple(tuple(I), n) for I in idx)] = scalars.coerce(v, field)
        return cls._built(n, degs, values, field)

    @classmethod
    def _built(cls, n, degs, values, field):
        out = cls.__new__(cls)
        _LaneForm.__init__(out, n, degs, values, field)
        return out

    # -- storage -----------------------------------------------------------

    @property
    def _values(self):
        """The read-only values: int and Fraction exact, float64 float."""
        if self._vals is None:
            vals = self._num if self.field == scalars.FLOAT64 else _values_of(self._num, self._den)
            vals.flags.writeable = False
            self._vals = vals
        return self._vals

    def _lane(self):
        """(num, den, mag), mag the largest |num| entry.

        A float form is its float64 values num over 1, and mag is a float
        (the int 0 when the form has no entries).
        """
        if self._mag is None:
            self._mag = _magnitude(self._num)
        return self._num, self._den, self._mag

    def _at(self, idx):
        """The value at the rank tuple idx."""
        if self.field == scalars.FLOAT64:
            return self._num[idx]
        return _value(int(self._num[idx]), self._den)

    def max_abs(self):
        _, den, mag = self._lane()
        return mag if self.field == scalars.FLOAT64 else _value(mag, den)

    def is_zero(self):
        return self._lane()[2] == 0

    def astype(self, field):
        if field == self.field:
            return self
        values = self._values
        if field != scalars.FLOAT64:
            values = np.empty(values.shape, dtype=object)
            for idx, v in np.ndenumerate(self._values):
                values[idx] = scalars.coerce(v, field)
        return self._built(self.n, self._degs, values, field)

    # -- linear structure ---------------------------------------------------

    def _check_compatible(self, other):
        if type(other) is not type(self) or self.n != other.n or self.field != other.field:
            raise ValueError(self._INCOMPATIBLE)

    def _combine(self, other, sign, verb):
        self._check_compatible(other)
        if self._degs != other._degs:
            raise ValueError(self._MISMATCH.format(verb=verb, a=self._degs, b=other._degs))
        a, da, ma = self._lane()
        b, db, mb = other._lane()
        den = lcm(da, db)
        sa, sb = den // da, den // db
        dtype = _lane_dtype(self.field, ma * sa + mb * sb, sa, sb)
        a, b = _as(a, dtype), _as(b, dtype)
        if sa != 1:
            a = a * sa
        if sb != 1:
            b = b * sb
        return _form(type(self), self.n, self._degs, self.field,
                     a + b if sign > 0 else a - b, den)

    def __add__(self, other):
        return self._combine(other, 1, "add")

    def __sub__(self, other):
        return self._combine(other, -1, "subtract")

    def __neg__(self):
        num, den, mag = self._lane()
        return _form(type(self), self.n, self._degs, self.field, -num, den, mag)

    def __mul__(self, scalar):
        if isinstance(scalar, _LaneForm):
            return NotImplemented
        cls, n, degs, field = type(self), self.n, self._degs, self.field
        if field == scalars.FLOAT64:
            return _form(cls, n, degs, field, self._num * float(scalar))
        s = scalar if isinstance(scalar, Fraction) else Fraction(scalar)
        x, y = int(s.numerator), int(s.denominator)
        num, den, mag = self._lane()
        if x == 0 or mag == 0:
            return cls._zeros(n, degs, field)
        mag *= abs(x)
        num = _as(num, _lane_dtype(field, mag))
        return _form(cls, n, degs, field, num * x if x != 1 else num, den * y, mag)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n or self._degs != other._degs:
            return False
        if self.field == other.field == scalars.RATIONAL:
            a, da, ma = self._lane()
            b, db, mb = other._lane()
            return da == db and ma == mb and bool(np.array_equal(a, b))
        return bool(np.all(self._values == other._values))

    __hash__ = None  # unhashable: == compares values


class DoubleForm(_LaneForm):
    """Immutable dense (p, q) double form; mat is its read-only matrix of
    values."""

    __slots__ = ()
    _NEGATIVE = "bidegree ({}, {}) must be non-negative"
    _SHAPE = ("matrix shape {got} does not match bidegree ({degs[0]}, {degs[1]}) "
              "in dimension {n}, expected {shape}")
    _INCOMPATIBLE = "incompatible double forms"
    _MISMATCH = "cannot {verb} bidegrees {a} and {b}"

    def __init__(self, n, p, q, mat, field=scalars.RATIONAL):
        super().__init__(n, (p, q), mat, field)

    @classmethod
    def zeros(cls, n, p, q, field=scalars.RATIONAL):
        return cls._zeros(n, (p, q), field)

    @classmethod
    def from_entries(cls, n, p, q, entries, field=scalars.RATIONAL):
        """Build from a {(I, J): value} mapping of ascending index tuples."""
        return cls._from_entries(n, (p, q), entries, field)

    mat = _LaneForm._values
    p = property(lambda self: self._degs[0])
    q = property(lambda self: self._degs[1])

    @property
    def bidegree(self):
        return self._degs

    def entry(self, I, J):
        return self._at((rank_tuple(tuple(I), self.n), rank_tuple(tuple(J), self.n)))

    def scalar(self):
        """The single value of a (0, 0) form."""
        if self._degs != (0, 0):
            raise ValueError(f"bidegree ({self.p}, {self.q}) form is not a scalar")
        return self._at((0, 0))

    def __repr__(self):
        return f"DoubleForm(n={self.n}, p={self.p}, q={self.q}, field={self.field!r})"


# -- the integer lane ----------------------------------------------------------


def _shape(n, degs):
    return tuple([comb(n, d) for d in degs])


def _form(cls, n, degs, field, num, den=1, mag=None):
    """The cls form num / den with slot degrees degs, an exact one brought
    to lowest terms.

    num has the shape of degs, so the constructor's checks are skipped.
    """
    if den != 1:
        c = _content(num)
        if c == 0:
            den, mag = 1, 0
        elif (g := gcd(den, c)) != 1:  # g <= c, so an int64 num divides in range
            num, den = num // g, den // g
            mag = None if mag is None else mag // g
    out = cls.__new__(cls)
    out.n, out._degs, out.field = n, degs, field
    out._vals, out._num, out._den, out._mag = None, num, den, mag
    return out


def _lane_dtype(field, bound, *factors):
    """float64 for a float form; for an exact one int64 when bound and every
    factor are below LANE_BOUND, else object.

    The factors are the operand magnitudes and scales: a zero operand
    makes the bound 0 but must still fit int64 to be converted.
    """
    if field == scalars.FLOAT64:
        return np.float64
    return np.int64 if max((bound, *factors)) < LANE_BOUND else object


def _as(a, dtype):
    return a if a.dtype == dtype else a.astype(dtype)


def _magnitude(num):
    """The largest |entry| of a lane: a float for float64 num, an int
    otherwise, and the int 0 when num has no entries."""
    if num.size == 0:
        return 0
    if num.dtype == object:
        return max(map(abs, num.flat))
    top = np.abs(num).max()
    return float(top) if num.dtype.kind == "f" else int(top)


def _content(num):
    """The gcd of every entry of an integer array (0 for the zero array)."""
    return int(np.gcd.reduce(num, axis=None)) if num.size else 0


def _value(v, den):
    q, r = divmod(v, den)
    return q if r == 0 else Fraction(v, den)


def _values_of(num, den):
    """The lane num / den as an object array of int and Fraction values."""
    if den == 1:
        return num.astype(object)
    out = np.empty(num.shape, dtype=object)
    out.reshape(-1)[:] = [_value(v, den) for v in num.reshape(-1).tolist()]
    return out


def _lane_of(mat):
    """An exact value array as its lane (num, den, mag), in lowest terms.

    den is the lcm of the reduced denominators, which leaves no common
    factor with the scaled numerators.
    """
    flat = mat.reshape(-1).astype(object).tolist()
    den = 1
    if not all(type(v) is int for v in flat):
        fracs = [Fraction(v) for v in flat]
        den = lcm(*(int(f.denominator) for f in fracs))
        flat = [int(f.numerator) * (den // int(f.denominator)) for f in fracs]
    mag = max(map(abs, flat), default=0)
    num = np.array(flat, dtype=_lane_dtype(scalars.RATIONAL, mag)).reshape(mat.shape)
    return num, den, mag


def one(n, field=scalars.RATIONAL):
    """The unit (0, 0) double form."""
    return metric_power(n, 0, field)


def metric(n, field=scalars.RATIONAL):
    """The inner product g as a (1, 1) double form: the identity matrix."""
    return metric_power(n, 1, field)


def metric_power(n, k, field=scalars.RATIONAL):
    """The k-th exterior power g^k: k! times the identity on Lambda^k."""
    if not 0 <= k <= n:
        raise ValueError(f"metric power {k} out of range [0, {n}]")
    return _identity(n, k, field, factorial(k))


def _identity(n, k, field, scale=1):
    """scale times the identity on Lambda^k, which is g^k / k!.

    Each call is a new form over one shared read-only array.
    """
    size = comb(n, k)
    num = _scaled_eye(size, _lane_dtype(field, scale), scale)
    return _form(DoubleForm, n, (k, k), field, num, 1,
                 scalars.coerce(scale, field) if size else 0)


@lru_cache(maxsize=64)
def _scaled_eye(size, dtype, scale):
    num = np.eye(size, dtype=dtype) * scale
    num.flags.writeable = False
    return num


# ---------------------------------------------------------------------------
# products, contractions, star


def wedge(w1: DoubleForm, w2: DoubleForm) -> DoubleForm:
    """Exterior product of double forms (slot-wise wedge, shuffle signs)."""
    return _wedged(w1, w2)


def _wedged(w1, w2):
    """The slot-wise wedge of two forms of one type, through _wedge.

    An exact pair wedges its numerators, with the denominators multiplied.
    A slot degree past n, or a zero factor, gives the zero form of _zeros
    with no gather, so an exact one's lane is int64.  A factor whose every slot
    degree is 0 holds one value, and the wedge is the other factor times
    it, with no gather.  _wedge adds only products of two nonzero entries
    onto +0.0, so there a float zero, or a product with a zero factor,
    comes out as +0.0.
    """
    w1._check_compatible(w2)
    for s, w in ((w1, w2), (w2, w1)):
        if not any(s._degs):
            v = s._at((0,) * len(s._degs))
            out = w * v
            if w.field == scalars.FLOAT64:
                num = out._num  # a new array from __mul__
                num[(num == 0) | (w._num == 0) | (v == 0)] = 0.0
            return out
    n, d1, d2 = w1.n, w1._degs, w2._degs
    degs = tuple(map(add, d1, d2))
    a, da, ma = w1._lane()
    b, db, mb = w2._lane()
    if max(degs) > n or not (ma and mb):
        return type(w1)._zeros(n, degs, w1.field)
    # each output entry sums C(x + y, x) products per slot
    dtype = _lane_dtype(w1.field, ma * mb * prod(map(comb, degs, d1)), ma, mb)
    out = np.zeros(_shape(n, degs), dtype=dtype)
    _wedge(n, _as(a, dtype), d1, _as(b, dtype), d2, out)
    return _form(type(w1), n, degs, w1.field, out, da * db)


def _wedge(n, a, da, b, db, out):
    """Slot-wise wedge of dense arrays a and b into the fresh zero array out.

    da and db hold the slot degrees: (p, q) for a double form, (k,) for an
    exterior form, (k,)*r for a multiform.  Every slot needs da + db <= n.
    Each nonzero a[I] meets b[J] for every J disjoint from I slot by slot;
    the product lands on out[I|J], negated when an odd number of slot
    merges are odd.  Targets repeat across the nonzeros of a, so they are
    summed with np.add.at.  The nonzeros of a are taken in chunks whose
    gather has at most WEDGE_CHUNK entries (at least one nonzero each), in
    order, so the sums run in the same order as one gather would.  Any
    dtype works: int64 or object numerators of the integer lane, or
    float64.
    """
    nz = np.nonzero(a)
    r = len(da)
    tables = [merge_table(n, x, y) for x, y in zip(da, db)]
    per = prod(cols.shape[1] for cols, _, _ in tables)
    step = max(1, WEDGE_CHUNK // per)
    for lo in range(0, len(nz[0]), step):
        part = tuple(ix[lo:lo + step] for ix in nz)
        src = tgt = 0
        neg = False
        for s, (cols, targets, negs) in enumerate(tables):
            shape = [len(part[s])] + [1] * r
            shape[s + 1] = cols.shape[1]
            src = src * b.shape[s] + cols[part[s]].reshape(shape)
            tgt = tgt * out.shape[s] + targets[part[s]].reshape(shape)
            neg = neg ^ negs[part[s]].reshape(shape)
        vals = b.reshape(-1)[src]
        keep = vals != 0
        terms = np.broadcast_to(a[part].reshape((-1,) + (1,) * r), vals.shape)[keep] \
            * vals[keep]
        flip = neg[keep]
        terms[flip] = -terms[flip]
        np.add.at(out.reshape(-1), tgt[keep], terms)


def wedge_power(w: DoubleForm, k: int) -> DoubleForm:
    """k-fold exterior power; k = 0 gives the unit (0, 0) form."""
    return metric_wedge_power(w, 0, k)


# The power memo: None outside power_memo(), else a dict mapping id(w) to
# (w, {key: form}), the results computed from w: g^m w^k under (m, k), *w
# under "star", c(w) under "contract", and the cofactors of
# invariants.h_rpq under their own keys.  A chain c^i(w^k) is kept link by
# link, each under the form it contracts.  Holding w keeps its id from
# being reused while the memo lives.
_POWER_MEMO = contextvars.ContextVar("dfalg_power_memo", default=None)


@contextlib.contextmanager
def power_memo():
    """Share the powers, stars, contractions and cofactors built inside the
    block.

    Each result is built once per form w, found by the identity of w, and
    the same form is handed to every later caller; forms are immutable, so
    sharing one is safe.  The memo and its results are dropped when the
    block exits.
    """
    token = _POWER_MEMO.set({})
    try:
        yield
    finally:
        _POWER_MEMO.reset(token)


def _memoized(w, key, build):
    """build(), computed once per form w and key inside power_memo()."""
    memo = _POWER_MEMO.get()
    if memo is None:
        return build()
    kept = memo.setdefault(id(w), (w, {}))[1]
    if key not in kept:
        kept[key] = build()
    return kept[key]


def metric_wedge_power(w: DoubleForm, m: int, k: int) -> DoubleForm:
    """g^m w^k, the metric power g^m times the k-fold exterior power of w.

    w^k extends w^(k-1) by one wedge with w, and g^m w^k is one more wedge
    from g^m; k = 0 gives g^m.  Inside power_memo() every power built on
    the way is kept and reused; w itself is never stored.
    """
    if k < 0:
        raise ValueError("negative exterior power")
    if k == 0:
        return metric_power(w.n, m, w.field)
    if m:
        return _memoized(w, (m, k), lambda: wedge(metric_power(w.n, m, w.field),
                                                  metric_wedge_power(w, 0, k)))
    if k == 1:
        return w
    return _memoized(w, (0, k), lambda: wedge(metric_wedge_power(w, 0, k - 1), w))


def contract(w: DoubleForm) -> DoubleForm:
    """Trace-like contraction mapping (p, q) to (p-1, q-1).

    Vanishes by convention when p = 0 or q = 0.
    """
    return _memoized(w, "contract", lambda: _contracted(w, None))


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
    _check_metric(w, G)
    return _contracted(w, _invert_metric(G))


def _check_metric(w, G):
    if G.bidegree != (1, 1) or G.n != w.n:
        raise ValueError("metric must be a (1, 1) form on the same space")


def _contracted(w: DoubleForm, Ginv) -> DoubleForm:
    """c(w), or c_G(w) when Ginv is the inverse metric, through _contract.

    An exact w contracts its numerators, against the lane of Ginv, with
    the denominators multiplied.  Float zeros come out as +0.0.
    """
    n, (p, q), field = w.n, w._degs, w.field
    if p == 0 or q == 0:
        return DoubleForm.zeros(n, max(p - 1, 0), max(q - 1, 0), field)
    num, den, mag = w._lane()
    if Ginv is None:
        # each output entry sums at most n terms
        dtype = _lane_dtype(field, mag * n)
        res = _contract(n, p, q, _as(num, dtype), None)
    else:
        A, den_g, mag_g = Ginv._lane()
        dtype = _lane_dtype(field, mag * mag_g * n * n, mag, mag_g)
        res = _contract(n, p, q, _as(num, dtype), _as(A, dtype))
        den *= den_g
    if field == scalars.FLOAT64:
        res[res == 0] = 0.0  # no -0.0 sums
    return _form(DoubleForm, n, (p - 1, q - 1), field, res, den)


def _contract(n, p, q, m, Ginv):
    """The contraction of the (p, q) array m, p, q >= 1, by one gather.

    out[I, J] = sum over a, b of Ginv[a, b] eps m[{a}|I, {b}|J], eps the
    product of the two insertion signs; Ginv None is the identity, so only
    a = b is summed.  An index a already in I has the sentinel rank, which
    reads the zero row (or column) padded onto m.  Any dtype works.
    """
    rp, negp = insertion_table(n, p)
    rq, negq = insertion_table(n, q)
    pad = np.zeros((m.shape[0] + 1, m.shape[1] + 1), dtype=m.dtype)
    pad[:-1, :-1] = m
    if Ginv is None:
        x = pad[rp[:, None, :], rq[None, :, :]]
        neg = negp[:, None, :] ^ negq[None, :, :]
        x[neg] = -x[neg]
        return x.sum(axis=2)
    x = pad[rp[:, :, None, None], rq[None, None, :, :]]
    neg = negp[:, :, None, None] ^ negq[None, None, :, :]
    x[neg] = -x[neg]
    return np.tensordot(x, Ginv, axes=([1, 3], [0, 1]))


def _invert_metric(G: DoubleForm) -> DoubleForm:
    """Inverse of a symmetric invertible (1, 1) form, as a (1, 1) form,
    from _eliminate.  Raises on a non-symmetric or singular matrix.
    """
    S = G._lane()[0]
    if not np.array_equal(S, S.T):
        raise ValueError("metric must be symmetric")
    inv = _eliminate(G, invert=True)[1]
    if inv is None:
        raise ValueError("metric is singular")
    return inv


def _eliminate(G: DoubleForm, invert: bool):
    """det G of a (1, 1) form, and G^-1 as a (1, 1) form when invert is set.

    The inverse is None when invert is unset or det G = 0.  Rational mode
    runs fraction-free (Bareiss) Gauss-Jordan elimination on S = s G, the
    numerators of G's lane, in Python ints, extended to [S | I] when
    inverting: every division is exact.  A column with no nonzero pivot
    left means det G = 0.  Otherwise, with P the row swaps, each row ends
    as d e_i | d S^-1 with d = det PS = sgn(P) det S, the last pivot; so
    det G = sgn(P) d / s^n and G^-1 = s S^-1 is the lane s sgn(d) (d S^-1)
    over |d|.  Float mode runs _eliminate_float on G or [G | I].
    """
    n, field = G.n, G.field
    if field == scalars.FLOAT64:
        a = np.hstack([G.mat, np.eye(n)]) if invert else G.mat.copy()
        det = _eliminate_float(a, n)
        if not invert or det == 0:
            return det, None
        return det, _form(DoubleForm, n, (1, 1), field, a[:, n:].copy())
    S, s, _ = G._lane()
    a = [row + [int(i == j) for j in range(n)] if invert else row
         for i, row in enumerate(S.tolist())]
    prev, sign = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k] != 0), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak, akk = a[k], a[k][k]
        for i in range(n):
            if i != k:
                ai, aik = a[i], a[i][k]
                a[i] = [(akk * x - aik * y) // prev for x, y in zip(ai, ak)]
        prev = akk
    det = _value(sign * prev, s ** n)
    if not invert:
        return det, None
    s = s if prev > 0 else -s
    flat = [s * x for row in a for x in row[n:]]
    mag = max(map(abs, flat), default=0)
    num = np.array(flat, dtype=_lane_dtype(field, mag)).reshape(n, n)
    return det, _form(DoubleForm, n, (1, 1), field, num, abs(prev), mag)


def _eliminate_float(a, n):
    """Gauss-Jordan elimination with partial pivoting, in place, of the
    first n columns of the float64 rows a; returns the determinant of
    their n x n block, the signed product of the pivots, 0.0 when a
    pivot is exactly zero.
    """
    det = 1.0
    for col in range(n):
        piv_row = max(range(col, n), key=lambda r: abs(a[r, col]))
        if a[piv_row, col] == 0:
            return 0.0
        if piv_row != col:
            a[[col, piv_row]] = a[[piv_row, col]]
            det = -det
        piv = a[col, col]
        det *= piv
        a[col] = a[col] / piv
        for r in range(n):
            if r != col and a[r, col] != 0:
                a[r] = a[r] - a[r, col] * a[col]
    return det


def hodge(w: DoubleForm) -> DoubleForm:
    """Double Hodge star: applies the usual star to both argument slots."""
    n, (p, q) = w.n, w._degs
    if p > n or q > n:  # an identically-zero spillover from a wedge
        return DoubleForm.zeros(n, max(n - p, 0), max(n - q, 0), w.field)
    return _memoized(w, "star", lambda: _starred(w))


def _starred(w):
    """The slot-wise star of a form, through _star.

    A slot degree past n has no star and raises.  A form whose every slot
    degree is 0 or n has one entry, which the star keeps with sign +1: its
    lane is returned as it is, a float -0.0 read as +0.0 as _star writes it.
    """
    n = w.n
    degs = tuple([n - d for d in w._degs])
    if min(degs) < 0:
        raise ValueError(w._NEGATIVE.format(*degs))
    num, den, mag = w._lane()
    if all(d in (0, n) for d in degs):
        if w.field == scalars.FLOAT64:
            num = num + 0.0  # -0.0 + 0.0 is +0.0; every other value is kept
        return _form(type(w), n, degs, w.field, num, den, mag)
    out = np.zeros(num.shape, dtype=num.dtype)  # C(n, n - d) = C(n, d)
    _star(n, num, w._degs, out)
    return _form(type(w), n, degs, w.field, out, den, mag)


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
    num, den, mag = w._lane()
    return _form(DoubleForm, w.n, (w.q, w.p), w.field, num.T.copy(), den, mag)


def inner(w1: DoubleForm, w2: DoubleForm):
    """Euclidean inner product of two double forms of equal bidegree."""
    w1._check_compatible(w2)
    if w1.bidegree != w2.bidegree:
        raise ValueError(f"inner product needs equal bidegrees, "
                         f"got {w1.bidegree} and {w2.bidegree}")
    a, da, ma = w1._lane()
    b, db, mb = w2._lane()
    if a.size == 0:
        return scalars.coerce(0, w1.field)
    dtype = _lane_dtype(w1.field, ma * mb * a.size, ma, mb)
    total = np.dot(_as(a, dtype).reshape(-1), _as(b, dtype).reshape(-1))
    if w1.field == scalars.FLOAT64:
        return float(total) + 0.0  # no -0.0 sum
    return _value(int(total), da * db)


def compose(w1: DoubleForm, w2: DoubleForm) -> DoubleForm:
    """Composition product: composition of the associated linear maps.

    For w1 in (p, q) and w2 in (r, s) the result lives in (r, q) and is zero
    unless p = s; on matrices it is M(w2) . M(w1).
    """
    w1._check_compatible(w2)
    n = w1.n
    (p, q), (r, s) = w1._degs, w2._degs
    if p != s:
        return DoubleForm.zeros(n, r, q, w1.field)
    a, da, ma = w1._lane()
    b, db, mb = w2._lane()
    # each output entry sums C(n, p) products
    dtype = _lane_dtype(w1.field, ma * mb * a.shape[0], ma, mb)
    return _form(DoubleForm, n, (r, q), w1.field, _as(b, dtype).dot(_as(a, dtype)), da * db)


def compose_power(w: DoubleForm, r: int) -> DoubleForm:
    """r-th power in the composition algebra; r = 0 is the identity g^p/p!."""
    if w.p != w.q:
        raise ValueError(f"composition powers need square bidegree, got {w.bidegree}")
    if r < 0:
        raise ValueError("negative composition power")
    acc = _identity(w.n, w.p, w.field)
    for _ in range(r):
        acc = compose(w, acc)
    return acc


def bianchi_residual(w: DoubleForm):
    """Largest absolute value of the first-Bianchi alternating sum.

    Zero exactly when w satisfies the first Bianchi identity.  One gather:
    b(w)[I|a, Y] sums (-1)^(p+1) eps(I||a) eps(a||Y) w[I, a|Y] over (I, a),
    an a in Y reading the zero column padded onto w.  An exact form gives
    an int or Fraction, a float form a float, and p + 1 > n gives 0.
    """
    n, p, q, field = w.n, w.p, w.q, w.field
    if p < 1 or q < 1:
        raise ValueError("Bianchi sum needs p >= 1 and q >= 1")
    if p + 1 > n:
        return 0
    num, den, mag = w._lane()
    dtype = _lane_dtype(field, mag * (p + 1))  # p + 1 terms per entry
    pad = np.hstack([_as(num, dtype), np.zeros((len(num), 1), dtype=dtype)])
    cols, targets, negp = merge_table(n, p, 1)
    rq, negq = insertion_table(n, q)
    x = pad[np.arange(len(pad))[:, None, None], rq.T[cols]]
    neg = negp[:, :, None] ^ negq.T[cols] ^ bool((p + 1) % 2)
    x[neg] = -x[neg]
    out = np.zeros((comb(n, p + 1), len(rq)), dtype=dtype)
    np.add.at(out, targets, x)
    worst = np.abs(out).max(initial=0)
    return float(worst) if field == scalars.FLOAT64 else _value(int(worst), den)
