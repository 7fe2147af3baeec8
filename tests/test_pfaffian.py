import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from dfalg import oracle, pfaffian, scalars
from dfalg.dform import bianchi_residual, hodge, transpose, wedge_power
from dfalg.exterior import ExteriorForm, MultiForm, wedge_multi
from dfalg.fixtures import SplitMix64, random_bilinear, random_form
from dfalg.oracle import merge_sign_tuple
from dfalg.pfaffian import (
    check_pf_squared,
    embed,
    hyperdet,
    pf,
    skew_to_form,
)


def test_pf_two_by_two():
    h = random_bilinear(2, 8, "skew")
    f = skew_to_form(h)
    assert pf(f) == h.mat[0, 1]
    assert pf(f) ** 2 == oracle.det_oracle(h.mat)


def test_pf_standard_symplectic():
    f = ExteriorForm.from_coeffs(4, 2, {(0, 1): 1, (2, 3): 1})
    assert pf(f) == 1
    W = embed(f, 2)
    assert oracle.det_oracle(W.mat) == 1


def test_pf_top_form():
    f = ExteriorForm.unit(4, (0, 1, 2, 3))
    assert pf(f) == 1


@pytest.mark.parametrize("n", (2, 4, 6))
def test_pf_squared_is_det_skew(n):
    for seed in range(4):
        h = random_bilinear(n, 4000 + 10 * n + seed, "skew")
        f = skew_to_form(h)
        rec = check_pf_squared(f, 2)
        assert rec.asserted and rec.residual == 0
        assert pf(f) ** 2 == oracle.det_oracle(h.mat)


@pytest.mark.parametrize("field", scalars.FIELDS)
@pytest.mark.parametrize("n", range(13))
def test_pf_squared_det_matches_the_oracles(n, field):
    # both sides of the record against brute force: Pf as a sum over perfect
    # matchings, det (the elimination) as a sum over permutations
    h = random_bilinear(n, 4300 + n, "skew", field)
    det = oracle.det_oracle(h.mat)
    f = skew_to_form(h)
    if n % 2:
        assert det == 0
        with pytest.raises(ValueError, match="not a multiple"):
            check_pf_squared(f, 2)
        return
    rec = check_pf_squared(f, 2)
    want_pf = oracle.pf_matching_oracle(h.mat)
    assert rec.asserted and rec.name == "pf_squared_det"
    if field == scalars.RATIONAL:
        assert (rec.pf, rec.rhs, rec.lhs) == (want_pf, det, want_pf ** 2)
        assert rec.residual == 0
    else:
        assert rec.pf == pytest.approx(want_pf, rel=1e-12)
        assert rec.rhs == pytest.approx(det, rel=1e-9)
        assert pfaffian.conjecture_to_residual(rec, field).passed


@pytest.mark.parametrize("n", (2, 4, 6))
def test_pf_matches_perfect_matching_oracle(n):
    for seed in range(4):
        h = random_bilinear(n, 4100 + 10 * n + seed, "skew")
        assert pf(skew_to_form(h)) == oracle.pf_matching_oracle(h.mat)


def test_pf_odd_degree_and_divisibility_errors():
    with pytest.raises(ValueError):
        pf(random_form(4, 3, 1))
    with pytest.raises(ValueError):
        pf(random_form(5, 2, 1))  # 5 not divisible by 2


def test_pf_homogeneity():
    # Pf is homogeneous of degree q = n / deg in the coefficients
    f = random_form(4, 2, 9)
    assert pf(3 * f) == 3 ** 2 * pf(f)
    f6 = random_form(6, 2, 10)
    assert pf(5 * f6) == 5 ** 3 * pf(f6)


def test_skew_to_form_round_trip():
    h = random_bilinear(5, 11, "skew")
    f = skew_to_form(h)
    back = embed(ExteriorForm(5, 2, f.coeffs.copy()), 2)
    assert back == h


def test_skew_to_form_rejects_non_skew():
    with pytest.raises(ValueError):
        skew_to_form(random_bilinear(4, 12, "symmetric"))


def test_embed_top_form_signs():
    f = ExteriorForm.unit(4, (0, 1, 2, 3))
    W = embed(f, 2)
    assert W.entry((0, 1), (2, 3)) == 1
    assert W.entry((0, 2), (1, 3)) == -1  # parity of (0,2,1,3)
    assert W.entry((0, 3), (1, 2)) == 1
    assert W.entry((0, 1), (0, 1)) == 0


def test_embed_symmetry_and_bianchi_structure():
    # embeddings are transpose-symmetric; the first-Bianchi sum of an
    # embedded 4-form is -3 times the form, so the residual is 3 max|coeff|
    for seed in (21, 22, 23):
        f = random_form(4, 4, seed)
        W = embed(f, 2)
        assert W == transpose(W)
        assert bianchi_residual(W) == 3 * f.max_abs()


def test_embed_divisibility():
    with pytest.raises(ValueError):
        embed(random_form(4, 3, 24), 2)


def test_hyperdet_of_bilinear_is_det():
    for n in (2, 3, 4):
        h = random_bilinear(n, 4200 + n)
        mf = MultiForm(n, 1, 2, h.mat)
        assert hyperdet(mf) == oracle.det_oracle(h.mat)


def test_hyperdet_identity_pattern():
    from dfalg.dform import metric

    mf = MultiForm(4, 1, 2, metric(4).mat)
    assert hyperdet(mf) == 1


def test_hyperdet_r1_reduces_to_star_power():
    from dfalg.exterior import MultiForm, wedge_form_power

    f = random_form(4, 2, 25)
    mf = MultiForm(4, 2, 1, f.coeffs.copy())
    assert hyperdet(mf) == wedge_form_power(f, 2).coeffs[0] * Fraction(1, 2)


def test_conjecture_record_four_form():
    # Pf^2 vs h_n of the embedded (2,2) form at n = 4: computed exactly,
    # reported with ratio, never asserted
    f = ExteriorForm.unit(4, (0, 1, 2, 3))
    rec = check_pf_squared(f, 2)
    assert not rec.asserted
    assert rec.lhs == 1 and rec.rhs == 6 and rec.ratio == 6
    f2 = random_form(4, 4, 27)
    rec2 = check_pf_squared(f2, 2)
    W = embed(f2, 2)
    assert rec2.rhs == hodge(wedge_power(W, 2)).scalar()
    assert rec2.lhs == pf(f2) ** 2


def test_only_an_asserted_conjecture_is_an_identity():
    # an identity record is asserted whatever it came from; a conjecture
    # that is not asserted has no identity view
    rec = check_pf_squared(ExteriorForm.unit(4, (0, 1, 2, 3)), 2)
    with pytest.raises(ValueError, match="^the conjecture pf_squared_hn is not asserted$"):
        pfaffian.conjecture_to_residual(rec, scalars.RATIONAL)
    rec = check_pf_squared(skew_to_form(random_bilinear(4, 30, "skew")), 2)
    residual = pfaffian.conjecture_to_residual(rec, scalars.RATIONAL)
    assert not hasattr(residual, "asserted")
    assert residual.to_json()["asserted"] is True


def test_conjecture_record_r3():
    f = random_form(6, 6, 28)
    rec = check_pf_squared(f, 3)
    assert not rec.asserted
    assert rec.lhs == pf(f) ** 3
    assert rec.rhs == hyperdet(embed(f, 3))
    again = check_pf_squared(f, 3)
    assert (str(rec.lhs), str(rec.rhs), str(rec.residual)) \
        == (str(again.lhs), str(again.rhs), str(again.residual))


def test_conjecture_json_shape():
    rec = check_pf_squared(random_form(4, 4, 29), 2)
    doc = rec.to_json()
    assert set(doc) == {"name", "params", "lhs", "rhs", "residual", "ratio",
                        "asserted"}


def test_embed_r3_against_direct_evaluation():
    # entries of the r = 3 embedding are signed coefficients on partitions
    f = ExteriorForm.unit(6, (0, 1, 2, 3, 4, 5))
    mf = embed(f, 3)
    assert mf.entry([(0, 1), (2, 3), (4, 5)]) == 1
    assert mf.entry([(0, 2), (1, 3), (4, 5)]) == -1
    assert mf.entry([(0, 1), (0, 2), (3, 4)]) == 0


@pytest.mark.parametrize("n, d, r", [(6, 4, 2), (6, 6, 3), (8, 6, 2), (8, 6, 3),
                                     (12, 4, 2), (12, 6, 3)])
def test_embed_against_merge_signs(n, d, r):
    # an entry is the merge sign of its blocks times the coefficient of
    # their union, or 0 where two blocks meet; at most 4000 seeded entries
    f = random_form(n, d, n + d + r)
    out = embed(f, r)
    values = out.mat if r == 2 else out.coeffs
    blocks = list(combinations(range(n), d // r))
    rank = {I: i for i, I in enumerate(combinations(range(n), d))}
    total = len(blocks) ** r
    picks = random.Random(n * d * r).sample(range(total), min(total, 4000))
    nonzero = 0
    for at in zip(*np.unravel_index(picks, values.shape)):
        merged, sign = (), 1
        for b in at:
            step = merge_sign_tuple(merged, blocks[b])
            if step is None:
                sign = 0
                break
            s, merged = step
            sign *= s
        want = sign * f.coeffs[rank[merged]] if sign else 0
        assert values[at] == want
        nonzero += want != 0
    assert nonzero


# -- the work budget ---------------------------------------------------------------

@pytest.fixture
def no_chains(monkeypatch):
    """Fail on any wedge chain or embedding loop: a refused input must
    raise before one starts."""
    def started(*args):
        raise AssertionError("a refused computation was started")

    for name in ("wedge_form_power", "wedge_multi_power", "wedge_power", "merge_table"):
        monkeypatch.setattr(pfaffian, name, started)


def test_pf_refuses_a_chain_past_the_dense_limit(no_chains):
    # 780 entries, but w^20 has C(40, 20) ~ 1.4e11
    f = random_form(40, 2, 1)
    with pytest.raises(ValueError, match="dense entries"):
        pf(f)
    with pytest.raises(ValueError, match="dense entries"):
        check_pf_squared(f, 2)


def test_hyperdet_refuses_a_chain_past_the_dense_limit(no_chains):
    # 5^8 entries, but w^2 has C(5, 2)^8 = 10^8
    with pytest.raises(ValueError, match="dense entries"):
        hyperdet(MultiForm.zeros(5, 1, 8))


def test_embed_refuses_an_array_past_the_dense_limit(no_chains):
    # C(24, 2)^4 = 276^4 ~ 5.8e9 entries
    with pytest.raises(ValueError, match="dense entries"):
        embed(ExteriorForm.zeros(24, 8), 4)


# the inputs of the benchmark's pfaffian_exterior workload, rebuilt here
NONZERO_ENTRIES = (1, 2, 3, -1, -2, -3)


@pytest.mark.parametrize("seed", (1, 2, 3, 4, 5, 1009))
def test_budget_accepts_the_benchmark_inputs(seed):
    c = NONZERO_ENTRIES[SplitMix64(seed).next_u64() % len(NONZERO_ENTRIES)]
    for n, k, s in ((12, 2, seed), (14, 2, seed + 1), (12, 4, seed + 2)):
        pf(random_form(n, k, s))
    assert hyperdet(embed(ExteriorForm.from_coeffs(6, 6, {tuple(range(6)): c}), 3)) != 0
    for i, n in enumerate((4, 6, 8)):
        rec = check_pf_squared(skew_to_form(random_bilinear(n, seed + 3 + i, "skew")), 2)
        assert rec.residual == 0
