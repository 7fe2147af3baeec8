from math import comb

import numpy as np
import pytest

from conftest import random_dform
from dfalg import oracle
from dfalg.dform import metric, metric_power, wedge_power
from dfalg.fixtures import random_bilinear


def test_det_identity():
    assert oracle.det_oracle(np.eye(4, dtype=object)) == 1


def test_det_matches_integer_matrix():
    M = np.array([[2, 1, 0], [1, -1, 3], [0, 2, 2]], dtype=object)
    # cofactor expansion by hand: 2(-2-6) - 1(2-0) + 0 = -18
    assert oracle.det_oracle(M) == -18


@pytest.mark.parametrize("n", range(7))
def test_det_is_the_permutation_sum(n):
    # det_oracle groups the permutation sum by column set; here it is
    # summed term by term, over integer, rational and float entries
    import itertools
    from fractions import Fraction

    for M in (random_bilinear(n, 30 + n).mat, random_bilinear(n, 40 + n).mat * Fraction(1, 3),
              random_bilinear(n, 50 + n, "general", "float64").mat):
        want = 0
        for perm in itertools.permutations(range(n)):
            term = oracle.permutation_parity(perm)
            for i, j in enumerate(perm):
                term = term * M[i, j]
            want += term
        exact = M.dtype == object
        assert oracle.det_oracle(M) == (want if exact else pytest.approx(want, rel=1e-12))


def test_minor_sums():
    I4 = np.eye(4, dtype=object)
    for k in range(5):
        assert oracle.minor_sum_oracle(I4, k) == comb(4, k)
    M = random_bilinear(4, 9).mat
    assert oracle.minor_sum_oracle(M, 1) == sum(M[i, i] for i in range(4))
    assert oracle.minor_sum_oracle(M, 4) == oracle.det_oracle(M)


def test_cofactor_oracle_inverse_property():
    M = random_bilinear(4, 10).mat
    C = oracle.cofactor_oracle(M)
    det = oracle.det_oracle(M)
    prod = M.dot(C.T)
    assert np.all(prod == det * np.eye(4, dtype=object))


def test_eval_on_metric():
    g = metric(3)
    for i in range(3):
        for j in range(3):
            v = oracle.eval_dform(g, [oracle.basis_vector(3, i)],
                                  [oracle.basis_vector(3, j)])
            assert v == (1 if i == j else 0)


def test_eval_metric_square_block():
    g2 = metric_power(4, 2)
    xs = [oracle.basis_vector(4, 0), oracle.basis_vector(4, 1)]
    assert oracle.eval_dform(g2, xs, xs) == 2


def test_eval_linearity():
    w = random_dform(3, 1, 1, seed=5)
    x = [1, 2, -1]
    y = [0, 3, 1]
    v1 = oracle.eval_dform(w, [x], [y])
    v2 = oracle.eval_dform(w, [[2 * c for c in x]], [y])
    assert v2 == 2 * v1


def test_eval_antisymmetry_in_block():
    w = wedge_power(random_dform(4, 1, 1, seed=6), 2)
    xs = [[1, 0, 2, 0], [0, 1, -1, 3]]
    ys = [[2, 1, 0, 0], [0, 0, 1, 1]]
    assert oracle.eval_dform(w, xs, ys) == -oracle.eval_dform(w, xs[::-1], ys)


def test_wedge_oracle_on_metrics():
    g = metric(2)
    xs = [oracle.basis_vector(2, 0), oracle.basis_vector(2, 1)]
    assert oracle.wedge_oracle(g, g, xs, xs) == 2


def test_wedge_oracle_zero_form():
    from dfalg.dform import DoubleForm

    z = DoubleForm.zeros(3, 1, 1)
    w = random_dform(3, 1, 1, seed=7)
    xs = [oracle.basis_vector(3, 0), oracle.basis_vector(3, 1)]
    assert oracle.wedge_oracle(z, w, xs, xs) == 0


def test_permutation_parity():
    assert oracle.permutation_parity([0, 1, 2]) == 1
    assert oracle.permutation_parity([1, 0, 2]) == -1
    assert oracle.permutation_parity([2, 0, 1]) == 1


def test_pf_matching_small():
    M = np.array([[0, 5], [-5, 0]], dtype=object)
    assert oracle.pf_matching_oracle(M) == 5
    M = np.zeros((4, 4), dtype=object)
    M[0, 1], M[1, 0] = 1, -1
    M[2, 3], M[3, 2] = 1, -1
    assert oracle.pf_matching_oracle(M) == 1
    assert oracle.pf_matching_oracle(np.zeros((3, 3), dtype=object)) == 0
