"""Exterior forms and (k,...,k) multiforms with wedge product and Hodge star.

An element of Lambda^k is a dense coefficient vector over the C(n, k)
lexicographic basis; a multiform with r slots of degree k is a dense
r-dimensional array with every axis of length C(n, k).  The wedge and
star are the slot-generic kernels of dform, which double forms (two slots
of degrees p and q) share.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import scalars
from .dform import _star, _wedge
from .multiindex import MAX_DIM, rank_tuple


class ExteriorForm:
    """Dense element of Lambda^k over the lex-ordered basis."""

    __slots__ = ("n", "k", "coeffs", "field")

    def __init__(self, n, k, coeffs, field=scalars.RATIONAL):
        if not 0 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [0, {MAX_DIM}], got {n}")
        if k < 0:
            raise ValueError("negative form degree")
        scalars.check_field(field)
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (comb(n, k),):
            raise ValueError(f"coefficient vector of a degree-{k} form in dimension "
                             f"{n} must have length {comb(n, k)}")
        self.n = n
        self.k = k
        self.coeffs = coeffs
        self.field = field

    @classmethod
    def zeros(cls, n, k, field=scalars.RATIONAL):
        return cls(n, k, scalars.zeros(comb(n, k), field), field)

    @classmethod
    def unit(cls, n, indices, field=scalars.RATIONAL):
        """The basis form e^{i1} ^ ... ^ e^{ik} for an ascending tuple."""
        out = cls.zeros(n, len(indices), field)
        out.coeffs[rank_tuple(tuple(indices), n)] = scalars.coerce(1, field)
        return out

    @classmethod
    def from_coeffs(cls, n, k, mapping, field=scalars.RATIONAL):
        out = cls.zeros(n, k, field)
        for I, v in mapping.items():
            out.coeffs[rank_tuple(tuple(I), n)] = scalars.coerce(v, field)
        return out

    def coeff(self, indices):
        return self.coeffs[rank_tuple(tuple(indices), self.n)]

    def max_abs(self):
        if self.coeffs.size == 0:
            return 0
        return max(abs(v) for v in self.coeffs.flat)

    def __add__(self, other):
        if self.n != other.n or self.k != other.k or self.field != other.field:
            raise ValueError("incompatible forms")
        return ExteriorForm(self.n, self.k, self.coeffs + other.coeffs, self.field)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if isinstance(scalar, (ExteriorForm, MultiForm)):
            return NotImplemented
        if self.field == scalars.FLOAT64:
            scalar = float(scalar)
        return ExteriorForm(self.n, self.k, self.coeffs * scalar, self.field)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (self.n == other.n and self.k == other.k
                and bool(np.all(self.coeffs == other.coeffs)))

    __hash__ = None

    def __repr__(self):
        return f"ExteriorForm(n={self.n}, k={self.k}, field={self.field!r})"


def wedge_form(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Ordinary exterior product; zero once the degree exceeds n."""
    if a.n != b.n or a.field != b.field:
        raise ValueError("incompatible forms")
    out = ExteriorForm.zeros(a.n, a.k + b.k, a.field)
    if out.k <= a.n:
        _wedge(a.n, a.coeffs, (a.k,), b.coeffs, (b.k,), out.coeffs)
    return out


def wedge_form_power(a: ExteriorForm, k: int) -> ExteriorForm:
    if k < 0:
        raise ValueError("negative wedge power")
    if k == 0:
        out = ExteriorForm.zeros(a.n, 0, a.field)
        out.coeffs[0] = scalars.coerce(1, a.field)
        return out
    out = a
    for _ in range(k - 1):
        out = wedge_form(out, a)
    return out


def hodge_form(a: ExteriorForm) -> ExteriorForm:
    """Hodge star: (*a)_{I^c} = complement_sign(I) a_I."""
    out = ExteriorForm.zeros(a.n, a.n - a.k, a.field)
    _star(a.n, a.coeffs, (a.k,), out.coeffs)
    return out


class MultiForm:
    """Dense element of an r-fold tensor power of Lambda^k."""

    __slots__ = ("n", "k", "r", "coeffs", "field")

    def __init__(self, n, k, r, coeffs, field=scalars.RATIONAL):
        if not 0 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [0, {MAX_DIM}], got {n}")
        if r < 1:
            raise ValueError("multiforms need at least one slot")
        if k < 0:
            raise ValueError("negative slot degree")
        scalars.check_field(field)
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (comb(n, k),) * r:
            raise ValueError(f"multiform with {r} degree-{k} slots in dimension {n} "
                             f"must have shape {(comb(n, k),) * r}")
        self.n = n
        self.k = k
        self.r = r
        self.coeffs = coeffs
        self.field = field

    @classmethod
    def zeros(cls, n, k, r, field=scalars.RATIONAL):
        return cls(n, k, r, scalars.zeros((comb(n, k),) * r, field), field)

    @classmethod
    def from_slots(cls, forms):
        """Decomposable multiform phi_1 (x) ... (x) phi_r."""
        first = forms[0]
        out = cls.zeros(first.n, first.k, len(forms), first.field)
        it = np.nditer(out.coeffs, flags=["multi_index", "refs_ok"])
        for _ in it:
            idx = it.multi_index
            v = 1
            for f, i in zip(forms, idx):
                v = v * f.coeffs[i]
                if v == 0:
                    break
            if v != 0:
                out.coeffs[idx] = v
        return out

    def entry(self, slots):
        n = self.n
        return self.coeffs[tuple(rank_tuple(tuple(s), n) for s in slots)]

    def max_abs(self):
        if self.coeffs.size == 0:
            return 0
        return max(abs(v) for v in self.coeffs.flat)

    def __add__(self, other):
        if (self.n, self.k, self.r, self.field) != (other.n, other.k, other.r, other.field):
            raise ValueError("incompatible multiforms")
        return MultiForm(self.n, self.k, self.r, self.coeffs + other.coeffs, self.field)

    def __mul__(self, scalar):
        if isinstance(scalar, (ExteriorForm, MultiForm)):
            return NotImplemented
        if self.field == scalars.FLOAT64:
            scalar = float(scalar)
        return MultiForm(self.n, self.k, self.r, self.coeffs * scalar, self.field)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiForm):
            return NotImplemented
        return ((self.n, self.k, self.r) == (other.n, other.k, other.r)
                and bool(np.all(self.coeffs == other.coeffs)))

    __hash__ = None

    def __repr__(self):
        return f"MultiForm(n={self.n}, k={self.k}, r={self.r}, field={self.field!r})"


def wedge_multi(a: MultiForm, b: MultiForm) -> MultiForm:
    """Slot-wise wedge with the product of the per-slot signs."""
    if a.n != b.n or a.field != b.field:
        raise ValueError("incompatible multiforms")
    if a.r != b.r:
        raise ValueError(f"slot counts differ: {a.r} vs {b.r}")
    out = MultiForm.zeros(a.n, a.k + b.k, a.r, a.field)
    if out.k <= a.n:
        _wedge(a.n, a.coeffs, (a.k,) * a.r, b.coeffs, (b.k,) * b.r, out.coeffs)
    return out


def wedge_multi_power(a: MultiForm, p: int) -> MultiForm:
    if p < 1:
        raise ValueError("multiform wedge powers start at 1")
    out = a
    for _ in range(p - 1):
        out = wedge_multi(out, a)
    return out


def hodge_multi(a: MultiForm) -> MultiForm:
    """Slot-wise Hodge star."""
    out = MultiForm.zeros(a.n, a.n - a.k, a.r, a.field)
    _star(a.n, a.coeffs, (a.k,) * a.r, out.coeffs)
    return out
