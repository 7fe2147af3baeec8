"""Lexicographic multi-index combinatorics.

Basis p-vectors e_{i1} ^ ... ^ e_{ip} are addressed by strictly ascending
tuples of integers in [0, n).  All dense matrices in this package index
their rows and columns by the lexicographic rank of such tuples, so the
rank/unrank maps and the sign tables below are the combinatorial kernel
everything else is built on.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

MAX_DIM = 64


@lru_cache(maxsize=None)
def subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {0,...,n-1} in lexicographic order."""
    if k < 0 or k > n:
        return ()
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def _rank_of(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The k x n weights C(n - 1 - a, k - i) of index a at position i."""
    return tuple(tuple(comb(n - 1 - a, k - i) for a in range(n)) for i in range(k))


def rank_tuple(indices: tuple[int, ...], n: int) -> int:
    """The lexicographic rank C(n, k) - 1 - sum_i C(n - 1 - I_i, k - i) of
    the ascending k-subset I of [0, n), as in _lex_ranks."""
    k = len(indices)
    if not (k <= n and all(a < b for a, b in zip(indices, indices[1:]))
            and (k == 0 or 0 <= indices[0] and indices[-1] < n)):
        raise ValueError(f"{indices} is not an ascending subset of [0, {n})")
    return comb(n, k) - 1 - sum(w[a] for w, a in zip(_rank_of(n, k), indices))


def unrank_tuple(r: int, k: int, n: int) -> tuple[int, ...]:
    if k < 0 or k > n:
        raise ValueError(f"degree {k} out of range for dimension {n}")
    if not 0 <= r < comb(n, k):
        raise ValueError(f"rank {r} out of range [0, C({n},{k}))")
    return subsets(n, k)[r]


# ---------------------------------------------------------------------------
# cached sign tables used by the dense exterior/double-form kernels


@lru_cache(maxsize=None)
def merge_table(n: int, p: int, q: int):
    """Gather arrays for the wedge of p-subsets with disjoint q-subsets.

    Returns (cols, targets, neg), each of shape (C(n, p), C(n - p, q)).  Row
    rank(I) runs over the q-subsets J disjoint from I in lexicographic order:
    cols holds rank(J), targets the rank of I|J, and neg whether sorting I|J
    is odd.  J_j is entry S_j of I's ascending complement, so b = J_j has
    b - S_j members of I below it and p - b + S_j above: the pairs (a in I,
    b in J) with b < a number pq - sum(J) + sum(S).  Needs p + q <= n.

    At p + q = n each row has the one partner J = I^c, built in closed
    form: complementing reverses lex order, so cols is the reversed range;
    I|J is [0, n), of rank 0; and with S = (0, ..., q - 1) and sum(J) =
    n(n - 1)/2 - sum(I), neg is the parity of n(n - 1)/2 + q(q - 1)/2 +
    pq - sum(I).
    """
    if p + q == n:
        rows = comb(n, p)
        odd = (_subset_sums(n, p) + n * (n - 1) // 2 + q * (q - 1) // 2 + p * q) % 2
        return (np.arange(rows - 1, -1, -1, dtype=np.intp).reshape(rows, 1),
                np.zeros((rows, 1), dtype=np.intp), (odd == 1).reshape(rows, 1))
    # int8 indices (n <= 64) keep the sorted (rows, cols, p + q) IJ small
    I = np.array(subsets(n, p), dtype=np.int8).reshape(comb(n, p), p)
    free = np.ones((len(I), n), dtype=bool)
    free[np.arange(len(I))[:, None], I] = False
    rest = np.nonzero(free)[1].astype(np.int8).reshape(len(I), n - p)
    S = np.array(subsets(n - p, q), dtype=np.intp).reshape(comb(n - p, q), q)
    J = rest[:, S]
    IJ = np.concatenate([np.broadcast_to(I[:, None, :], J.shape[:2] + (p,)), J], axis=2)
    IJ.sort(axis=2)
    neg = (J.sum(axis=2, dtype=np.intp) + S.sum(axis=1) + p * q) % 2 == 1
    return _lex_ranks(J, n), _lex_ranks(IJ, n), neg


def _subset_sums(n, p):
    """sum(I) over the p-subsets I of [0, n) in lex order, as int16 (at
    most 2016 for n <= 64).

    The k-subsets of [0, m) in lex order are 0 joined to the (k - 1)-subsets
    of [1, m), then the k-subsets of [1, m); shifting [0, m - 1) to [1, m)
    adds one to each member.  So sums[k] over [0, m) is sums[k - 1] over
    [0, m - 1) plus k - 1, then sums[k] over [0, m - 1) plus k, built up
    from m = 0 with only the k that reach p by m = n.
    """
    empty = np.zeros(0, dtype=np.int16)
    sums = {0: np.zeros(1, dtype=np.int16)}
    for m in range(1, n + 1):
        sums = {k: np.concatenate([sums.get(k - 1, empty) + (k - 1), sums.get(k, empty) + k])
                for k in range(max(0, p - n + m), min(m, p) + 1)}
    return sums[p]


def _lex_ranks(K, n):
    """Lexicographic ranks of the ascending k-subsets K[..., :] of [0, n).

    rank(K) = C(n, k) - 1 - sum_i C(n - 1 - K_i, k - i), i = 0..k-1.
    """
    k = K.shape[-1]
    out = np.full(K.shape[:-1], comb(n, k) - 1, dtype=np.intp)
    for i in range(k):
        out -= np.array([comb(a, k - i) for a in range(n)], dtype=np.intp)[n - 1 - K[..., i]]
    return out


@lru_cache(maxsize=None)
def split_table(n: int, k: int, p: int):
    """For each k-subset K: all (rank_I, rank_J, sign) with I|J = K, |I| = p,
    in rank_I order, read from merge_table(n, p, k - p).

    No kernel uses it; bench/spans.py traces it by name.
    """
    table = [[] for _ in subsets(n, k)]
    if 0 <= p <= k <= n:
        cols, targets, neg = merge_table(n, p, k - p)
        for I, row in enumerate(zip(cols.tolist(), targets.tolist(), neg.tolist())):
            for J, K, odd in zip(*row):
                table[K].append((I, J, -1 if odd else 1))
    return tuple(map(tuple, table))


@lru_cache(maxsize=None)
def insertion_table(n: int, p: int):
    """Gather arrays for inserting an index a into the (p-1)-subsets I.

    Returns (ranks, neg), each of shape (C(n, p-1), n).  ranks[rank(I), a]
    is the rank of {a}|I, or the sentinel C(n, p) when a is in I; neg holds
    whether sorting a||I is an odd permutation (False at the sentinel).
    Scattered from merge_table(n, p - 1, 1), as a||I is p - 1 transpositions
    from I||a; a degree p past n is all sentinel.
    """
    rows = len(subsets(n, p - 1))
    ranks = np.full((rows, n), comb(n, p), dtype=np.intp)
    neg = np.zeros((rows, n), dtype=bool)
    if 1 <= p <= n:
        cols, targets, negs = merge_table(n, p - 1, 1)
        at = (np.arange(rows)[:, None], cols)
        ranks[at], neg[at] = targets, negs ^ bool((p - 1) % 2)
    return ranks, neg


@lru_cache(maxsize=None)
def complement_table(n: int, k: int):
    """Arrays over the k-subsets I: rank of I^c, and whether eps(I) = -1,
    read from merge_table(n, k, n - k), where I^c is I's one partner."""
    cols, _, neg = merge_table(n, k, n - k)
    return cols[:, 0], neg[:, 0]
