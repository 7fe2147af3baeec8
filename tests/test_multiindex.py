import itertools
from math import comb

import pytest
from hypothesis import given, strategies as st

from dfalg.multiindex import rank_tuple, subsets, unrank_tuple
from dfalg.oracle import complement_sign_tuple, complement_tuple, merge_sign_tuple


def test_unrank_first_lex_subset():
    assert unrank_tuple(0, 2, 4) == (0, 1)


def test_rank_last_lex_subset():
    assert rank_tuple((2, 3), 4) == comb(4, 2) - 1 == 5


def test_rank_lex_enumeration():
    assert rank_tuple((0, 2), 4) == 1


@pytest.mark.parametrize("n,k", [(n, k) for n in range(7) for k in range(n + 1)])
def test_rank_unrank_bijection(n, k):
    for r in range(comb(n, k)):
        assert rank_tuple(unrank_tuple(r, k, n), n) == r


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank_tuple(comb(4, 2), 2, 4)
    with pytest.raises(ValueError):
        unrank_tuple(0, 5, 4)


def test_multiindex_validation():
    with pytest.raises(ValueError):
        rank_tuple((1, 1), 4)
    with pytest.raises(ValueError):
        rank_tuple((0, 4), 4)
    with pytest.raises(ValueError):
        rank_tuple((2, 1), 4)


def test_merge_sign_basics():
    assert merge_sign_tuple((0,), (1,)) == (1, (0, 1))
    assert merge_sign_tuple((1,), (0,)) == (-1, (0, 1))
    assert merge_sign_tuple((0,), (0,)) is None


def test_merge_sign_matches_inversion_count():
    for a in subsets(5, 2):
        for b in subsets(5, 2):
            res = merge_sign_tuple(a, b)
            if set(a) & set(b):
                assert res is None
                continue
            inv = sum(1 for x in a for y in b if x > y)
            assert res == ((-1) ** inv, tuple(sorted(a + b)))


@pytest.mark.parametrize("n", range(2, 7))
def test_merge_sign_associativity(n):
    # sign(I,J) sign(I|J, K) = sign(J,K) sign(I, J|K) on disjoint triples
    for I in subsets(n, 1):
        for J in subsets(n, 1):
            for K in subsets(n, 2):
                if set(I) & set(J) or set(I) & set(K) or set(J) & set(K):
                    continue
                s1, IJ = merge_sign_tuple(I, J)
                s2, _ = merge_sign_tuple(IJ, K)
                s3, JK = merge_sign_tuple(J, K)
                s4, _ = merge_sign_tuple(I, JK)
                assert s1 * s2 == s3 * s4


def test_complement_sign_examples():
    assert complement_sign_tuple((0,), 2) == 1
    assert complement_sign_tuple((1,), 2) == -1
    # sign of the permutation (1, 3, 0, 2)
    perm = (1, 3, 0, 2)
    inv = sum(1 for i in range(4) for j in range(i + 1, 4) if perm[i] > perm[j])
    assert complement_sign_tuple((1, 3), 4) == (-1) ** inv


@pytest.mark.parametrize("n", range(1, 7))
def test_complement_sign_product(n):
    for k in range(n + 1):
        for I in subsets(n, k):
            lhs = complement_sign_tuple(I, n) \
                * complement_sign_tuple(complement_tuple(I, n), n)
            assert lhs == (-1) ** (k * (n - k))


@given(st.integers(1, 8), st.data())
def test_merge_parity_is_sort_parity(n, data):
    k1 = data.draw(st.integers(0, n))
    a = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1),
                                       min_size=k1, max_size=k1))))
    rest = sorted(set(range(n)) - set(a))
    k2 = data.draw(st.integers(0, len(rest)))
    b = tuple(sorted(data.draw(st.sets(st.sampled_from(rest or [0]),
                                       min_size=min(k2, len(rest)),
                                       max_size=min(k2, len(rest)))))) if rest else ()
    sign, merged = merge_sign_tuple(a, b)
    # parity of the insertion sort that orders the concatenation
    seq = list(a + b)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    assert sign == (-1) ** inv
    assert merged == tuple(sorted(seq))
