import tracemalloc
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


def traced_peak(fn, *args):
    """fn(*args) and the most memory that tracemalloc saw it hold at once,
    in bytes above what was held when it started (numpy buffers included)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
