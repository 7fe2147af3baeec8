"""Pfaffians of even-degree forms, multiform embeddings, hyperdeterminants.

A 2k-form on a space of dimension n = 2kq has the Pfaffian *(w^q/q!),
computed with the ordinary exterior product; the same coefficients read as
a (k, k) double form (or a (k,...,k) multiform) produce determinant-like
invariants through the double-form machinery.  For skew bilinear forms
Pf^2 = det is a theorem and is asserted; the corresponding relations for
higher forms are recorded with their exact residuals and ratios but are
not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from . import scalars
from .dform import DoubleForm, _form, check_dense, hodge, transpose, wedge_power
from .exterior import ExteriorForm, MultiForm, hodge_multi, wedge_form_power, \
    wedge_multi_power
from .identities import IdentityResidual, residual_record
from .invariants import s_k
from .multiindex import merge_table


def _check_work(n, degs, steps):
    """Refuse, before anything is built, the wedge chain w, w^2, ...,
    w^steps of a form with slot degrees degs if one of its dense arrays or
    gathers has more than dform.MAX_DENSE_ENTRIES entries.

    w^j has C(n, j d) entries per slot; the wedge that makes it gathers at
    most C(n, (j - 1) d) C(n - (j - 1) d, d) per slot.
    """
    for j in range(1, steps + 1):
        need = prod(comb(n, j * d) for d in degs)
        if j > 1:
            need = max(need, prod(comb(n, (j - 1) * d) * comb(n - (j - 1) * d, d)
                                  for d in degs))
        check_dense(need)


def pf(form: ExteriorForm):
    """Pfaffian *(w^q/q!) of a 2k-form on a space with n = 2kq."""
    n, d = form.n, form.k
    if d == 0 or d % 2:
        raise ValueError(f"the Pfaffian needs a nonzero even degree, got {d}")
    if n % d:
        raise ValueError(f"dimension {n} is not a multiple of the degree {d}")
    q = n // d
    _check_work(n, (d,), q)
    top = wedge_form_power(form, q)
    return top.coeffs[0] * Fraction(1, factorial(q))


def skew_to_form(h: DoubleForm) -> ExteriorForm:
    """Read a skew (1, 1) form as the 2-form sum_{i<j} h_ij e^i ^ e^j."""
    if h.bidegree != (1, 1):
        raise ValueError(f"expected a (1, 1) form, got {h.bidegree}")
    if h != -transpose(h):
        raise ValueError("the bilinear form is not skew-symmetric")
    # the entries i < j in row-major order are the 2-subsets in rank order
    return ExteriorForm(h.n, 2, h.mat[np.triu_indices(h.n, 1)], h.field)


def embed(form: ExteriorForm, r: int):
    """Read an rk-form as a multiform with r slots of degree k.

    Entries are plain evaluations on concatenated index blocks, with the
    merge sign and no normalization.  r = 2 returns the DoubleForm, which
    is transpose-symmetric; its first-Bianchi sum is -3 times the form for
    4-forms (full antisymmetry puts these in the complement of the Bianchi
    subspace, so no embedded nonzero form is Bianchi).
    """
    n, d = form.n, form.k
    if r < 2:
        raise ValueError("the embedding needs at least two slots")
    if d % r:
        raise ValueError(f"degree {d} is not a multiple of the slot count {r}")
    k = d // r
    _check_work(n, (k,) * r, 1)
    cls = DoubleForm if r == 2 else MultiForm
    if d > n:
        return cls._zeros(n, (k,) * r, form.field)
    # ranks[I_1, ..., I_s]: the rank of I_1|...|I_s, or the sentinel once
    # two blocks meet; neg: whether its merge sign is odd
    size = comb(n, k)
    ranks, neg = np.arange(size), np.zeros(size, dtype=bool)
    for s in range(1, r):
        cols, targets, negs = merge_table(n, s * k, k)
        at = (np.arange(len(cols))[:, None], cols)
        step = np.full((len(cols) + 1, size), comb(n, (s + 1) * k), dtype=np.intp)
        flip = np.zeros(step.shape, dtype=bool)
        step[at], flip[at] = targets, negs
        at = (ranks[..., None], np.arange(size))
        ranks, neg = step[at], neg[..., None] ^ flip[at]
    num, den, _ = form._lane()
    out = np.concatenate([num, np.zeros(1, dtype=num.dtype)])[ranks]
    out[neg] = -out[neg]
    if form.field == scalars.FLOAT64:
        out[out == 0] = 0.0  # a zero, negated or -0.0, reads +0.0
    return _form(cls, n, (k,) * r, form.field, out, den)


def double_form_as_multiform(w: DoubleForm) -> MultiForm:
    """Re-index a (k, k) double form as a two-slot multiform."""
    if w.p != w.q:
        raise ValueError("only square bidegrees correspond to two-slot multiforms")
    return MultiForm(w.n, w.p, 2, w.mat, w.field)


def multiform_as_double_form(mf: MultiForm) -> DoubleForm:
    """Re-index a two-slot multiform as a (k, k) double form."""
    if mf.r != 2:
        raise ValueError("only two-slot multiforms are double forms")
    return DoubleForm(mf.n, mf.k, mf.k, mf.coeffs, mf.field)


def hyperdet(mf: MultiForm):
    """Hyperdeterminant *(w^p/p!) of a (k,...,k) multiform with n = pk."""
    n, k = mf.n, mf.k
    if k == 0 or n % k:
        raise ValueError(f"dimension {n} is not a multiple of the slot degree {k}")
    p = n // k
    _check_work(n, (k,) * mf.r, p)
    top = wedge_multi_power(mf, p)
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
        return {
            "name": self.name,
            "params": self.params,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residual": str(self.residual),
            "ratio": None if self.ratio is None else str(self.ratio),
            "asserted": self.asserted,
        }


def check_pf_squared(form: ExteriorForm, r: int = 2):
    """Compare Pf(w)^r against the determinant-like invariant of the embedding.

    For 2-forms (skew bilinear case) Pf^2 = det is a theorem and the result
    is asserted; for higher-degree forms the relation is recorded with its
    exact residual and ratio.
    """
    n, d = form.n, form.k
    value = pf(form)
    if r == 2:
        w = embed(form, 2)
        if d == 2:
            # the determinant of the skew bilinear form; s_k's h_rpq budget
            # bounds its chain, and the chunked wedge its gathers
            rhs = s_k(w, n)
            return ConjectureRecord("pf_squared_det", {"n": n, "degree": d},
                                    value * value, rhs, asserted=True)
        # h_(0,n) of the embedded (k, k) form: star of its top wedge power,
        # which no other budget guards
        q_exp = n // (d // 2)
        _check_work(n, w.bidegree, q_exp)
        rhs = hodge(wedge_power(w, q_exp)).scalar()
        return ConjectureRecord("pf_squared_hn", {"n": n, "degree": d},
                                value * value, rhs, asserted=False)
    mf = embed(form, r)
    rhs = hyperdet(mf)
    return ConjectureRecord("pf_power_hyperdet", {"n": n, "degree": d, "r": r},
                            value ** r, rhs, asserted=False)


def conjecture_to_residual(rec: ConjectureRecord, field: str) -> IdentityResidual:
    """View an asserted conjecture record as an identity residual."""
    return residual_record(rec.name, rec.params, rec.residual, (rec.lhs, rec.rhs),
                           "Pf(h)^2 = det(h)", field, rec.asserted)
