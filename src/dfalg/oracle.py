"""Brute-force reference semantics, used only by the test suite.

Everything here evaluates definitions directly: determinants by
permutation expansion (summed over column sets), double forms as
multilinear maps on explicit coordinate vectors, wedge products as shuffle
sums, Pfaffians as perfect-matching sums, merge and complement signs one
index tuple at a time.  These routines are exponential on purpose; they
define correctness for the fast dense kernels and are capped at small
dimensions in CI.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from . import scalars
from .dform import DoubleForm
from .multiindex import subsets


def permutation_parity(seq) -> int:
    """Sign of the permutation given as a sequence, by inversion counting."""
    seq = list(seq)
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def merge_sign_tuple(a: tuple[int, ...], b: tuple[int, ...]):
    """Sign of sorting the concatenation a||b, with the merged tuple.

    Returns None when a and b share an index (the wedge vanishes).
    """
    i, j, inv = 0, 0, 0
    out = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the len(a)-i remaining elements of a
            inv += len(a) - i
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return (-1 if inv % 2 else 1), tuple(out)


def complement_tuple(indices: tuple[int, ...], n: int) -> tuple[int, ...]:
    inside = set(indices)
    return tuple(i for i in range(n) if i not in inside)


def complement_sign_tuple(indices: tuple[int, ...], n: int) -> int:
    # parity of the permutation (I, I^c) of (0,...,n-1); the number of
    # complement elements below indices[pos] is indices[pos] - pos
    inv = sum(a - pos for pos, a in enumerate(indices))
    return -1 if inv % 2 else 1


def det_oracle(M):
    """Determinant by permutation expansion, sum over sigma of sgn(sigma)
    prod_i M[i, sigma(i)], summed row by row over the set of columns the
    rows so far take: 2^m m products rather than m! m.  Column j placed
    after the columns S adds one inversion per member of S above j.
    """
    M = np.asarray(M)
    m = M.shape[0]
    if M.shape != (m, m):
        raise ValueError("determinant needs a square matrix")
    partial = {0: 1}  # the columns taken, as a bit set -> their signed sum
    for i in range(m):
        step = {}
        for taken, total in partial.items():
            for j in range(m):
                if not taken >> j & 1 and M[i, j] != 0:
                    sign = -1 if bin(taken >> j).count("1") % 2 else 1
                    key = taken | 1 << j
                    step[key] = step.get(key, 0) + sign * total * M[i, j]
        partial = step
    return partial.get((1 << m) - 1, 0)


def minor_sum_oracle(M, k):
    """Sum of all principal k x k minors."""
    M = np.asarray(M)
    m = M.shape[0]
    if not 0 <= k <= m:
        raise ValueError(f"minor order {k} out of range [0, {m}]")
    total = 0 if k else 1
    for S in itertools.combinations(range(m), k):
        if k:
            total += det_oracle(M[np.ix_(S, S)])
    return total


def cofactor_oracle(M):
    """Classical cofactor matrix: (i, j) entry is (-1)^(i+j) det(minor_ij)."""
    M = np.asarray(M)
    m = M.shape[0]
    out = np.empty((m, m), dtype=M.dtype)
    for i in range(m):
        rows = [r for r in range(m) if r != i]
        for j in range(m):
            cols = [c for c in range(m) if c != j]
            minor = det_oracle(M[np.ix_(rows, cols)])
            out[i, j] = minor if (i + j) % 2 == 0 else -minor
    return out


def basis_vector(n, i):
    return [1 if j == i else 0 for j in range(n)]


def eval_dform(w: DoubleForm, xs, ys):
    """Evaluate w on coordinate vectors, one block per argument slot.

    Expands each argument block over basis multi-vectors with
    determinant-of-coordinates weights, which realizes the identification
    of w with a multilinear form skew in each block.
    """
    if len(xs) != w.p or len(ys) != w.q:
        raise ValueError(f"need {w.p} + {w.q} arguments, got {len(xs)} + {len(ys)}")
    n = w.n
    X = np.array([list(v) for v in xs], dtype=object) if xs else None
    Y = np.array([list(v) for v in ys], dtype=object) if ys else None
    total = 0
    for ri, I in enumerate(subsets(n, w.p)):
        dx = det_oracle(X[:, I]) if w.p else 1
        if dx == 0:
            continue
        for rj, J in enumerate(subsets(n, w.q)):
            v = w.mat[ri, rj]
            if v == 0:
                continue
            dy = det_oracle(Y[:, J]) if w.q else 1
            if dy != 0:
                total += dx * dy * v
    return total


def wedge_oracle(w1: DoubleForm, w2: DoubleForm, xs, ys):
    """Shuffle-sum evaluation of the exterior product at given arguments."""
    p1, q1 = w1.p, w1.q
    if len(xs) != p1 + w2.p or len(ys) != q1 + w2.q:
        raise ValueError("argument count does not match the product bidegree")
    total = 0
    for xpos in itertools.combinations(range(len(xs)), p1):
        xrest = [i for i in range(len(xs)) if i not in xpos]
        sx = permutation_parity(list(xpos) + xrest)
        for ypos in itertools.combinations(range(len(ys)), q1):
            yrest = [i for i in range(len(ys)) if i not in ypos]
            sy = permutation_parity(list(ypos) + yrest)
            a = eval_dform(w1, [xs[i] for i in xpos], [ys[i] for i in ypos])
            if a == 0:
                continue
            b = eval_dform(w2, [xs[i] for i in xrest], [ys[i] for i in yrest])
            total += sx * sy * a * b
    return total


def contract_oracle(w: DoubleForm) -> DoubleForm:
    """Contraction evaluated from the definition with explicit basis vectors."""
    n = w.n
    if w.p == 0 or w.q == 0:
        return DoubleForm.zeros(n, max(w.p - 1, 0), max(w.q - 1, 0), w.field)
    mat = scalars.zeros((comb(n, w.p - 1), comb(n, w.q - 1)), w.field)
    for ri, I in enumerate(subsets(n, w.p - 1)):
        xs = [basis_vector(n, i) for i in I]
        for rj, J in enumerate(subsets(n, w.q - 1)):
            ys = [basis_vector(n, j) for j in J]
            acc = 0
            for a in range(n):
                ea = basis_vector(n, a)
                acc += eval_dform(w, [ea] + xs, [ea] + ys)
            mat[ri, rj] = scalars.coerce(acc, w.field)
    return DoubleForm(n, w.p - 1, w.q - 1, mat, w.field)


def hodge_oracle(w: DoubleForm) -> DoubleForm:
    """Double Hodge star from its definition, with independently computed
    complement parities."""
    n, p, q = w.n, w.p, w.q
    mat = scalars.zeros((comb(n, n - p), comb(n, n - q)), w.field)
    sigma = -1 if ((p + q) * (n - p - q)) % 2 else 1
    for ri, A in enumerate(subsets(n, n - p)):
        Ac = complement_tuple(A, n)
        ea = permutation_parity(A + Ac)
        for rj, B in enumerate(subsets(n, n - q)):
            Bc = complement_tuple(B, n)
            eb = permutation_parity(B + Bc)
            xs = [basis_vector(n, i) for i in Ac]
            ys = [basis_vector(n, j) for j in Bc]
            mat[ri, rj] = scalars.coerce(
                sigma * ea * eb * eval_dform(w, xs, ys), w.field)
    return DoubleForm(n, n - p, n - q, mat, w.field)


def pf_matching_oracle(M):
    """Pfaffian of a skew matrix as a signed sum over perfect matchings."""
    M = np.asarray(M)
    m = M.shape[0]
    if m % 2:
        return 0
    total = 0
    for pairing in _pairings(list(range(m))):
        flat = [i for pair in pairing for i in pair]
        term = permutation_parity(flat)
        for i, j in pairing:
            term = term * M[i, j]
            if term == 0:
                break
        total += term
    return total


def _pairings(items):
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for tail in _pairings(remaining):
            yield [(first, partner)] + tail
