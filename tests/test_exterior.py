from fractions import Fraction

import numpy as np
import pytest

from conftest import random_dform
from dfalg.exterior import (
    ExteriorForm,
    MultiForm,
    hodge_form,
    hodge_multi,
    wedge_form,
    wedge_form_power,
    wedge_multi,
    wedge_multi_power,
)
from dfalg.fixtures import random_form
from dfalg.multiindex import subsets
from dfalg.oracle import permutation_parity
from dfalg.dform import wedge


def test_wedge_unit_forms():
    e0 = ExteriorForm.unit(3, (0,))
    e1 = ExteriorForm.unit(3, (1,))
    assert wedge_form(e0, e1) == ExteriorForm.unit(3, (0, 1))
    assert wedge_form(e1, e0) == -1 * ExteriorForm.unit(3, (0, 1))
    assert wedge_form(e0, e0).max_abs() == 0


def test_wedge_symplectic_square():
    w = ExteriorForm.from_coeffs(4, 2, {(0, 1): 1, (2, 3): 1})
    sq = wedge_form(w, w)
    assert sq == 2 * ExteriorForm.unit(4, (0, 1, 2, 3))


def test_wedge_degree_overflow_is_zero():
    a = random_form(3, 2, 1)
    b = random_form(3, 2, 2)
    assert wedge_form(a, b).max_abs() == 0


@pytest.mark.parametrize("n", range(2, 6))
def test_graded_commutativity(n):
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            a = random_form(n, k1, 10 * k1 + k2)
            b = random_form(n, k2, 99 + k2)
            lhs = wedge_form(a, b)
            rhs = (-1) ** (k1 * k2) * wedge_form(b, a)
            assert lhs == rhs


def test_wedge_matches_antisymmetrization_oracle():
    # coefficient of e_K in a^b is the signed shuffle sum over splits of K
    n = 5
    a, b = random_form(n, 2, 7), random_form(n, 1, 8)
    out = wedge_form(a, b)
    for K in subsets(n, 3):
        total = 0
        import itertools
        for pos in itertools.combinations(range(3), 2):
            I = tuple(K[i] for i in pos)
            J = tuple(K[i] for i in range(3) if i not in pos)
            total += permutation_parity(I + J) * a.coeff(I) * b.coeff(J)
        assert out.coeff(K) == total


def test_hodge_form_basics():
    one = ExteriorForm.from_coeffs(3, 0, {(): 1})
    assert hodge_form(one) == ExteriorForm.unit(3, (0, 1, 2))
    e0 = ExteriorForm.unit(2, (0,))
    e1 = ExteriorForm.unit(2, (1,))
    assert hodge_form(e0) == e1
    assert hodge_form(e1) == -1 * e0


@pytest.mark.parametrize("n", range(1, 6))
def test_double_hodge_sign(n):
    for k in range(n + 1):
        for I in subsets(n, k):
            a = ExteriorForm.unit(n, I)
            assert hodge_form(hodge_form(a)) == (-1) ** (k * (n - k)) * a


def test_multiform_r1_reduces_to_form_ops():
    n = 4
    a, b = random_form(n, 1, 3), random_form(n, 2, 4)
    ma = MultiForm(n, 1, 1, a.coeffs.copy())
    mb = MultiForm(n, 2, 1, b.coeffs.copy())
    assert np.all(wedge_multi(ma, mb).coeffs == wedge_form(a, b).coeffs)
    assert np.all(hodge_multi(ma).coeffs == hodge_form(a).coeffs)


def test_multiform_slotwise_examples():
    e0 = ExteriorForm.unit(2, (0,))
    e1 = ExteriorForm.unit(2, (1,))
    a = MultiForm.from_slots([e0, e0])
    b = MultiForm.from_slots([e1, e1])
    prod = wedge_multi(a, b)
    assert prod.entry([(0, 1), (0, 1)]) == 1
    # per-slot star: *(e0 (x) e1) = e1 (x) (-e0)
    m = MultiForm.from_slots([e0, e1])
    star = hodge_multi(m)
    assert star.entry([(1,), (0,)]) == -1
    assert star.max_abs() == 1
    # a -0.0 slot value times a positive one is -0.0; from_slots reads +0.0
    raw = np.array([-0.0, 1.0])
    f, g = ExteriorForm(2, 1, raw, "float64"), ExteriorForm(2, 1, [1.0, 2.0], "float64")
    assert np.signbit(np.multiply.outer(raw, [1.0, 2.0])).any()
    assert not np.signbit(MultiForm.from_slots([f, g]).coeffs).any()


# slot lists that from_slots refuses, at n = 4: b is a 3-form, whose
# coefficient of e_013 once read as the e_1 entry of a (1, 1) multiform
FROM_SLOTS_REFUSED = {
    "empty": lambda a, b, f: [],
    "other_degree": lambda a, b, f: [a, b],
    "other_field": lambda a, b, f: [a, f],
    "other_dimension": lambda a, b, f: [a, random_form(5, 1, 1)],
    "not_a_form": lambda a, b, f: [random_dform(4, 1, 1, seed=1), a],
    "later_not_a_form": lambda a, b, f: [a, a.coeffs],
}


@pytest.mark.parametrize("case", sorted(FROM_SLOTS_REFUSED))
def test_from_slots_refuses_slots_that_do_not_match(case):
    a = random_form(4, 1, 1)
    b = ExteriorForm.from_coeffs(4, 3, {(0, 1, 3): 6})
    f = ExteriorForm(4, 1, [0.0, 1.5, 0.0, 0.0], "float64")
    with pytest.raises(ValueError):
        MultiForm.from_slots(FROM_SLOTS_REFUSED[case](a, b, f))


def test_two_slot_multiform_matches_double_form_product():
    n = 4
    a = random_dform(n, 1, 1, seed=21)
    b = random_dform(n, 1, 1, seed=22)
    ma, mb = (MultiForm(n, 1, 2, w.mat) for w in (a, b))
    assert np.all(wedge_multi(ma, mb).coeffs == wedge(a, b).mat)


def test_wedge_power_unit():
    a = random_form(4, 2, 5)
    assert wedge_form_power(a, 0).coeffs[0] == 1
    assert wedge_form_power(a, 1) == a
    assert wedge_form_power(a, 2) == wedge_form(a, a)
    m = MultiForm.from_slots([random_form(4, 1, s) for s in (6, 7, 8)])
    unit = wedge_multi_power(m, 0)
    assert (unit.n, unit.k, unit.r, unit.entry(((), (), ()))) == (4, 0, 3, 1)
    assert wedge_multi_power(m, 1) == m
    assert wedge_multi_power(m, 2) == wedge_multi(m, m)
    for power in (wedge_form_power, wedge_multi_power):
        with pytest.raises(ValueError, match="^negative wedge power$"):
            power(a if power is wedge_form_power else m, -1)


def test_shape_validation():
    with pytest.raises(ValueError):
        ExteriorForm(3, 1, np.zeros(2, dtype=object))
    with pytest.raises(ValueError):
        MultiForm(3, 1, 2, np.zeros((3, 2), dtype=object))
    a = random_form(3, 1, 1)
    b = random_form(4, 1, 1)
    with pytest.raises(ValueError):
        wedge_form(a, b)
    ma = MultiForm(3, 1, 1, a.coeffs.copy())
    mb = MultiForm(3, 1, 2, np.zeros((3, 3), dtype=object))
    with pytest.raises(ValueError):
        wedge_multi(ma, mb)


@pytest.mark.parametrize("product", [wedge_multi, wedge])
def test_wedge_refuses_multiforms_with_different_slot_counts(product):
    two = MultiForm.from_slots([random_form(4, 1, 1)] * 2)
    three = MultiForm.from_slots([random_form(4, 1, 2)] * 3)
    for a, b in ((two, three), (three, two)):
        with pytest.raises(ValueError, match="slot counts differ"):
            product(a, b)
