"""Exterior forms and (k,...,k) multiforms with wedge product and Hodge star.

An element of Lambda^k is a dense coefficient vector over the C(n, k)
lexicographic basis; a multiform with r slots of degree k is a dense
r-dimensional array with every axis of length C(n, k).  Both are typed
views of the lane storage of dform, which double forms (two slots of
degrees p and q) share, and so are their wedge and star.
"""

from __future__ import annotations

import numpy as np

from . import scalars
from .dform import _LaneForm, _starred, _wedged


class ExteriorForm(_LaneForm):
    """Immutable dense element of Lambda^k over the lex-ordered basis;
    coeffs is its read-only coefficient vector."""

    __slots__ = ()
    _NEGATIVE = "negative form degree"
    _SHAPE = ("coefficient vector of a degree-{degs[0]} form in dimension {n} "
              "must have length {shape[0]}")
    _INCOMPATIBLE = _MISMATCH = "incompatible forms"

    def __init__(self, n, k, coeffs, field=scalars.RATIONAL):
        super().__init__(n, (k,), coeffs, field)

    @classmethod
    def zeros(cls, n, k, field=scalars.RATIONAL):
        return cls._zeros(n, (k,), field)

    @classmethod
    def unit(cls, n, indices, field=scalars.RATIONAL):
        """The basis form e^{i1} ^ ... ^ e^{ik} for an ascending tuple."""
        return cls.from_coeffs(n, len(indices), {tuple(indices): 1}, field)

    @classmethod
    def from_coeffs(cls, n, k, mapping, field=scalars.RATIONAL):
        return cls._from_entries(n, (k,), {(I,): v for I, v in mapping.items()}, field)

    coeffs = _LaneForm._values
    k = property(lambda self: self._degs[0])

    def coeff(self, indices):
        return self._at(self._ranks(self.n, self._degs, (indices,)))

    def __repr__(self):
        return f"ExteriorForm(n={self.n}, k={self.k}, field={self.field!r})"


def wedge_form(a: ExteriorForm, b: ExteriorForm) -> ExteriorForm:
    """Ordinary exterior product; zero once the degree exceeds n."""
    return _wedged(a, b)


def wedge_form_power(a: ExteriorForm, k: int) -> ExteriorForm:
    if k < 0:
        raise ValueError("negative wedge power")
    if k == 0:
        return ExteriorForm.unit(a.n, (), a.field)
    out = a
    for _ in range(k - 1):
        out = wedge_form(out, a)
    return out


def hodge_form(a: ExteriorForm) -> ExteriorForm:
    """Hodge star: (*a)_{I^c} = eps(I) a_I, where eps(I) is the sign of the
    permutation (I, I^c) of (0, ..., n - 1)."""
    return _starred(a)


class MultiForm(_LaneForm):
    """Immutable dense element of an r-fold tensor power of Lambda^k;
    coeffs is its read-only array of values."""

    __slots__ = ()
    _NEGATIVE = "negative slot degree"
    _SHAPE = ("multiform with {r} degree-{degs[0]} slots in dimension {n} "
              "must have shape {shape}")
    _INCOMPATIBLE = _MISMATCH = "incompatible multiforms"

    def __init__(self, n, k, r, coeffs, field=scalars.RATIONAL):
        super().__init__(n, (k,) * r, coeffs, field)

    @classmethod
    def zeros(cls, n, k, r, field=scalars.RATIONAL):
        return cls._zeros(n, (k,) * r, field)

    @classmethod
    def from_slots(cls, forms):
        """Decomposable multiform phi_1 (x) ... (x) phi_r of exterior forms
        of one degree, dimension and field."""
        first = forms[0] if forms else None
        if not isinstance(first, ExteriorForm):
            raise ValueError("a multiform needs a list of exterior forms, one per slot")
        values = first.coeffs
        for f in forms[1:]:
            first._check_compatible(f)
            if f._degs != first._degs:
                raise ValueError(first._MISMATCH)
            values = np.multiply.outer(values, f.coeffs)
        return cls(first.n, first.k, len(forms), values, first.field)

    coeffs = _LaneForm._values
    k = property(lambda self: self._degs[0])
    r = property(lambda self: len(self._degs))

    def entry(self, slots):
        return self._at(self._ranks(self.n, self._degs, slots))

    def __repr__(self):
        return f"MultiForm(n={self.n}, k={self.k}, r={self.r}, field={self.field!r})"


def wedge_multi(a: MultiForm, b: MultiForm) -> MultiForm:
    """Slot-wise wedge with the product of the per-slot signs."""
    return _wedged(a, b)


def wedge_multi_power(a: MultiForm, p: int) -> MultiForm:
    if p < 0:
        raise ValueError("negative wedge power")
    if p == 0:  # the unit: every slot of degree 0
        return MultiForm._from_entries(a.n, (0,) * a.r, {((),) * a.r: 1}, a.field)
    out = a
    for _ in range(p - 1):
        out = wedge_multi(out, a)
    return out


def hodge_multi(a: MultiForm) -> MultiForm:
    """Slot-wise Hodge star."""
    return _starred(a)
