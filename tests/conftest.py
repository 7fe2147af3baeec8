from math import comb

from dfalg import scalars
from dfalg.dform import DoubleForm, transpose
from dfalg.fixtures import SplitMix64


def random_dform(n, p, q, seed, symmetric=False, field=scalars.RATIONAL):
    """Dense random (p, q) form with entries in [-3, 3], seeded."""
    rng = SplitMix64(seed)
    mat = scalars.zeros((comb(n, p), comb(n, q)), field)
    rows, cols = mat.shape
    for i in range(rows):
        for j in range(cols):
            mat[i, j] = scalars.coerce(rng.next_entry(), field)
    out = DoubleForm(n, p, q, mat, field)
    if symmetric:
        out = out + transpose(out)
    return out
