"""Deterministic test-tensor generators.

All randomness flows through SplitMix64, a 64-bit mixing recurrence
implemented here so that a given seed produces bit-identical tensors on
every platform.  Entries are small integers in [-3, 3], which keeps exact
rational growth bounded through degree-n products.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb, factorial

from . import scalars
from .dform import DoubleForm, check_dense, metric_power, wedge
from .exterior import ExteriorForm

_MASK = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: state += 0x9E3779B97F4A7C15, then two xor-multiply mixes.

    Output sequence for a fixed seed is part of the fixture file contract.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9B1) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_entry(self) -> int:
        """Uniform-ish integer in [-3, 3], drawn as next_u64() mod 7 - 3."""
        return self.next_u64() % 7 - 3


def random_bilinear(n: int, seed: int, kind: str = "general",
                    field: str = scalars.RATIONAL) -> DoubleForm:
    """Random (1, 1) form with integer entries in [-3, 3].

    kind selects the symmetry class: "general", "symmetric" (mirrored upper
    triangle) or "skew" (negated mirror, zero diagonal).  The PRNG stream is
    consumed row-major over the generated positions.
    """
    rng = SplitMix64(seed)
    if kind == "symmetric":
        return _random_symmetric_from(rng, n, field)
    mat = scalars.zeros((n, n), field)
    if kind == "general":
        for i in range(n):
            for j in range(n):
                mat[i, j] = scalars.coerce(rng.next_entry(), field)
    elif kind == "skew":
        for i in range(n):
            for j in range(i + 1, n):
                v = scalars.coerce(rng.next_entry(), field)
                mat[i, j] = v
                mat[j, i] = -v
    else:
        raise ValueError(f"unknown bilinear kind {kind!r}")
    return DoubleForm(n, 1, 1, mat, field)


def _random_symmetric_from(rng: SplitMix64, n: int, field: str) -> DoubleForm:
    mat = scalars.zeros((n, n), field)
    for i in range(n):
        for j in range(i, n):
            v = scalars.coerce(rng.next_entry(), field)
            mat[i, j] = v
            mat[j, i] = v
    return DoubleForm(n, 1, 1, mat, field)


def random_bianchi(n: int, p: int, terms: int, seed: int,
                   include_metric: bool = False,
                   field: str = scalars.RATIONAL) -> DoubleForm:
    """Random symmetric (p, p) form satisfying the first Bianchi identity.

    Built as a sum of p-fold exterior products of random symmetric bilinear
    forms, a class that is Bianchi by construction.  Whether such sums span
    every Bianchi-symmetric (p, p) form is not known here; fixtures from
    this generator cover a rich subspace that includes the metric powers.
    """
    if p < 1 or terms < 1:
        raise ValueError("need p >= 1 and terms >= 1")
    # each term's p - 1 wedges and its sum pass through every degree up to
    # p, so each builds at most the largest array, C(n, min(p, n // 2))^2
    check_dense(comb(n, min(p, n // 2)) ** 2 * terms * p, "the chain of terms and wedges")
    rng = SplitMix64(seed)
    total = DoubleForm.zeros(n, p, p, field)
    for _ in range(terms):
        acc = _random_symmetric_from(rng, n, field)
        for _ in range(p - 1):
            acc = wedge(acc, _random_symmetric_from(rng, n, field))
        total = total + acc
    if include_metric:
        total = total + metric_power(n, p, field) * Fraction(1, factorial(p))
    return total


def constant_curvature(n: int, kappa, field: str = scalars.RATIONAL) -> DoubleForm:
    """The constant-curvature fixture kappa g^2/2."""
    kappa = Fraction(kappa) if field == scalars.RATIONAL else float(kappa)
    return metric_power(n, 2, field) * (kappa * Fraction(1, 2))


def rank_one_bilinear(n: int, seed: int, field: str = scalars.RATIONAL) -> DoubleForm:
    """Degenerate fixture v (x) v for a random integer vector v."""
    rng = SplitMix64(seed)
    v = [rng.next_entry() for _ in range(n)]
    mat = scalars.zeros((n, n), field)
    for i in range(n):
        for j in range(n):
            mat[i, j] = scalars.coerce(v[i] * v[j], field)
    return DoubleForm(n, 1, 1, mat, field)


def jordan_block(n: int, field: str = scalars.RATIONAL) -> DoubleForm:
    """Nilpotent single Jordan block: ones on the first superdiagonal."""
    mat = scalars.zeros((n, n), field)
    for i in range(n - 1):
        mat[i, i + 1] = scalars.coerce(1, field)
    return DoubleForm(n, 1, 1, mat, field)


def random_form(n: int, k: int, seed: int,
                field: str = scalars.RATIONAL) -> ExteriorForm:
    """Random degree-k exterior form with integer coefficients in [-3, 3]."""
    size = comb(n, max(k, 0))  # the constructor refuses k < 0
    check_dense(size, "the form")
    rng = SplitMix64(seed)
    values = scalars.zeros(size, field)
    for i in range(values.shape[0]):
        values[i] = scalars.coerce(rng.next_entry(), field)
    return ExteriorForm(n, k, values, field)


@dataclass
class SuiteFixtures:
    """Labeled fixture families for one dimension, fed to identities.run_suite."""

    n: int
    seed: int
    bilinear: list = dc_field(default_factory=list)
    bilinear_symmetric: list = dc_field(default_factory=list)
    bianchi2: list = dc_field(default_factory=list)
    bianchi3: list = dc_field(default_factory=list)


def suite_fixtures(n: int, seed: int, field: str = scalars.RATIONAL) -> SuiteFixtures:
    """The standard fixture policy: metric powers, seeded random tensors,
    and degenerate (rank-1, nilpotent, low-term) cases."""
    fx = SuiteFixtures(n=n, seed=seed)
    g = metric_power(n, 1, field)
    fx.bilinear = [
        ("metric", g),
        ("random_general", random_bilinear(n, seed, "general", field)),
        ("random_symmetric", random_bilinear(n, seed + 1, "symmetric", field)),
        ("rank_one", rank_one_bilinear(n, seed + 2, field)),
        ("jordan_block", jordan_block(n, field)),
    ]
    # the symmetric ones, as the same objects, so run_suite shares their memos
    fx.bilinear_symmetric = [(label, w) for label, w in fx.bilinear
                             if label in ("metric", "random_symmetric", "rank_one")]
    if n >= 2:
        fx.bianchi2 = [
            ("constant_curvature", constant_curvature(n, 1, field)),
            ("random_bianchi", random_bianchi(n, 2, 2, seed + 3, field=field)),
            ("degenerate_product", random_bianchi(n, 2, 1, seed + 4, field=field)),
        ]
    if n >= 6:
        fx.bianchi3 = [
            ("metric_cube", metric_power(n, 3, field) * Fraction(1, factorial(3))),
            ("random_bianchi3", random_bianchi(n, 3, 2, seed + 5, field=field)),
        ]
    return fx
