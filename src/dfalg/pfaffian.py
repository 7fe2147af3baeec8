"""Pfaffians of even-degree forms, multiform embeddings, hyperdeterminants.

A 2k-form on a space of dimension n = 2kq has the Pfaffian *(w^q/q!),
computed with the ordinary exterior product; the same coefficients read as
a (k, k) double form (or a (k,...,k) multiform) produce determinant-like
invariants through the double-form machinery.  For skew bilinear forms
Pf^2 = det is a theorem and is asserted; the corresponding relations for
higher forms are recorded with their exact residuals and ratios but are
not assumed.

Every top power w^q here (the Pfaffian's, the hyperdeterminant's and the
(k, k) embedding's h_n) is taken as w^ceil(q/2) ^ w^floor(q/2): the chain
stops halfway, and the last wedge lands in top degree, where each row of
its merge table has one partner.  Only the wedge's associativity enters,
with no commutation sign, so the values are the full chain's for every
slot shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isfinite, prod

import numpy as np

from .dform import DoubleForm, _eliminate, _form, check_dense, hodge, transpose, \
    wedge, wedge_power
from .exterior import ExteriorForm, MultiForm, hodge_multi, wedge_form, \
    wedge_form_power, wedge_multi, wedge_multi_power
from .identities import IdentityResidual, residual_record
from .multiindex import merge_table


def _top_power(w, q, power, times):
    """w^q as y ^ x through the wedge times: x = w^floor(q/2) from one call
    of power, and y = x, or x ^ w for odd q.  q = 0 gives the unit and q = 1
    gives w; from q = 2 the last wedge lands in top degree."""
    x = power(w, q // 2)
    y = times(x, w) if q % 2 else x
    return times(y, x) if q > 1 else y


def _check_work(n, degs, q):
    """Refuse, before anything is built, the half chain of _top_power(w, q)
    for a form with slot degrees degs if one of its dense arrays or gathers
    has more than dform.MAX_DENSE_ENTRIES entries.

    The half chain builds w, ..., w^ceil(q/2).  w^j has C(n, j d) entries
    per slot; the wedge that makes it gathers at most C(n, (j - 1) d)
    C(n - (j - 1) d, d) per slot, and the last one, into top degree, one
    partner per entry of w^ceil(q/2).  At n = q d both counts are symmetric
    about the middle of the full chain w, ..., w^q, so the half chain has
    the full chain's edges.
    """
    for j in range(1, (q + 1) // 2 + 1):
        need = prod(comb(n, j * d) for d in degs)
        if j > 1:
            need = max(need, prod(comb(n, (j - 1) * d) * comb(n - (j - 1) * d, d)
                                  for d in degs))
        check_dense(need)


def _pf_steps(form):
    """pf's argument checks and budget; returns q = n / d for a d-form."""
    n, d = form.n, form.k
    if d == 0 or d % 2:
        raise ValueError(f"the Pfaffian needs a nonzero even degree, got {d}")
    if n % d:
        raise ValueError(f"dimension {n} is not a multiple of the degree {d}")
    q = n // d
    _check_work(n, (d,), q)
    return q


def pf(form: ExteriorForm):
    """Pfaffian *(w^q/q!) of a 2k-form on a space with n = 2kq."""
    q = _pf_steps(form)
    top = _top_power(form, q, wedge_form_power, wedge_form)
    return top.coeffs[0] * Fraction(1, factorial(q))


def skew_to_form(h: DoubleForm) -> ExteriorForm:
    """Read a skew (1, 1) form as the 2-form sum_{i<j} h_ij e^i ^ e^j."""
    if h.bidegree != (1, 1):
        raise ValueError(f"expected a (1, 1) form, got {h.bidegree}")
    if h != -transpose(h):
        raise ValueError("the bilinear form is not skew-symmetric")
    # the entries i < j in row-major order are the 2-subsets in rank order
    return ExteriorForm(h.n, 2, h.mat[np.triu_indices(h.n, 1)], h.field)


def _slot_degree(form, r):
    """embed's argument checks and budget; returns the slot degree d / r."""
    n, d = form.n, form.k
    if r < 2:
        raise ValueError("the embedding needs at least two slots")
    if d % r:
        raise ValueError(f"degree {d} is not a multiple of the slot count {r}")
    k = d // r
    _check_work(n, (k,) * r, 1)
    return k


def embed(form: ExteriorForm, r: int):
    """Read an rk-form as a multiform with r slots of degree k.

    Entries are plain evaluations on concatenated index blocks, with the
    merge sign and no normalization.  r = 2 returns the DoubleForm, which
    is transpose-symmetric; its first-Bianchi sum is -3 times the form for
    4-forms (full antisymmetry puts these in the complement of the Bianchi
    subspace, so no embedded nonzero form is Bianchi).
    """
    n, d = form.n, form.k
    k = _slot_degree(form, r)
    cls = DoubleForm if r == 2 else MultiForm
    if d > n:
        return cls._zeros(n, (k,) * r, form.field)
    # ranks[I_1, ..., I_s]: the rank of I_1|...|I_s, or the sentinel once
    # two blocks meet; neg: whether its merge sign is odd.  A rank is at
    # most C(n, d) <= C(n, k)^r, which the check above keeps under 2^31.
    size = comb(n, k)
    ranks, neg = np.arange(size, dtype=np.int32), np.zeros(size, dtype=bool)
    for s in range(1, r):
        cols, targets, negs = merge_table(n, s * k, k)
        at = (np.arange(len(cols))[:, None], cols)
        step = np.full((len(cols) + 1, size), comb(n, (s + 1) * k), dtype=np.int32)
        flip = np.zeros(step.shape, dtype=bool)
        step[at], flip[at] = targets, negs
        at = (ranks[..., None], np.arange(size))
        ranks, neg = step[at], neg[..., None] ^ flip[at]
    num, den, _ = form._lane()
    out = np.concatenate([num, np.zeros(1, dtype=num.dtype)])[ranks]
    out[neg] = -out[neg]
    return _form(cls, n, (k,) * r, form.field, out, den)


def _top_steps(n, k, r):
    """hyperdet's argument checks and budget for r slots of degree k:
    the half chain of w^p, p = n / k, which this returns."""
    if k == 0 or n % k:
        raise ValueError(f"dimension {n} is not a multiple of the slot degree {k}")
    p = n // k
    _check_work(n, (k,) * r, p)
    return p


def hyperdet(mf: MultiForm):
    """Hyperdeterminant *(w^p/p!) of a (k,...,k) multiform with n = pk."""
    p = _top_steps(mf.n, mf.k, mf.r)
    top = _top_power(mf, p, wedge_multi_power, wedge_multi)
    starred = hodge_multi(top)
    return starred.coeffs[(0,) * mf.r] * Fraction(1, factorial(p))


@dataclass
class ConjectureRecord:
    """Exact evaluation of a conjectured relation; reported, not asserted."""

    name: str
    params: dict
    lhs: object
    rhs: object
    asserted: bool
    pf: object  # the Pfaffian that lhs is a power of

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)

    @property
    def ratio(self):
        if self.lhs == 0:
            return None
        return Fraction(self.rhs) / Fraction(self.lhs) \
            if not isinstance(self.lhs, float) else self.rhs / self.lhs

    def to_json(self):
        """The report entry; a float value that is not finite (an overflow)
        is a ValueError, as the report writer refuses one elsewhere."""
        values = {"lhs": self.lhs, "rhs": self.rhs, "residual": self.residual,
                  "ratio": self.ratio}
        if any(isinstance(v, float) and not isfinite(v) for v in values.values()):
            raise ValueError(_not_finite(self.name))
        return {"name": self.name, "params": self.params,
                **{key: None if v is None else str(v) for key, v in values.items()},
                "asserted": self.asserted}


def _not_finite(name):
    return f"the conjecture {name} holds a float that is not finite (an overflow)"


def check_pf_squared(form: ExteriorForm, r: int = 2):
    """Compare Pf(w)^r against the determinant-like invariant of the embedding.

    For 2-forms (skew bilinear case) Pf^2 = det is a theorem and the result
    is asserted; for higher-degree forms the relation is recorded with its
    exact residual and ratio.  The record keeps the Pfaffian in `pf`.
    """
    n, d = form.n, form.k
    # every argument check and budget below runs before the first wedge
    _pf_steps(form)
    k = _slot_degree(form, r)
    if (r, d) != (2, 2):
        # the star of the embedding's top power w^(n/k): h_(0,n) at r = 2
        _top_steps(n, k, r)
    value = pf(form)
    if r == 2:
        w = embed(form, 2)
        if d == 2:
            # the determinant of the skew bilinear form, by elimination: n^3
            # steps, while pf's own chain check bounds the Pfaffian side
            return ConjectureRecord("pf_squared_det", {"n": n, "degree": d},
                                    value * value, _eliminate(w, invert=False)[0],
                                    True, value)
        rhs = hodge(_top_power(w, n // k, wedge_power, wedge)).scalar()
        return ConjectureRecord("pf_squared_hn", {"n": n, "degree": d},
                                value * value, rhs, False, value)
    rhs = hyperdet(embed(form, r))
    try:
        lhs = value ** r
    except OverflowError:  # a float Pf whose power passes binary64
        raise ValueError(_not_finite("pf_power_hyperdet")) from None
    return ConjectureRecord("pf_power_hyperdet", {"n": n, "degree": d, "r": r},
                            lhs, rhs, False, value)


def conjecture_to_residual(rec: ConjectureRecord, field: str) -> IdentityResidual:
    """An asserted conjecture record as an identity residual, else ValueError."""
    if not rec.asserted:
        raise ValueError(f"the conjecture {rec.name} is not asserted")
    return residual_record(rec.name, rec.params, rec.residual, (rec.lhs, rec.rhs),
                           "Pf(h)^2 = det(h)", field)
