"""Span tracing of dfalg's public functions, installed from outside.

dfalg's modules bind kernels and tables by name (``from .dform import
wedge``), so a wrapper installed in ``dfalg.dform`` alone would miss the
calls made through those other names.  ``Tracer.install`` therefore replaces
every module attribute in the ``dfalg`` package that is the original
function.

A span's self time is its duration minus the time its traced children
took, including the children's own bookkeeping, so the cost of tracing is
not charged to the parent's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> (module, function names).  Names in one group share a span.
SPANS = {
    "multiindex.tables": ("dfalg.multiindex",
                          ("subsets", "_rank_of", "merge_table", "split_table",
                           "insertion_table", "complement_table")),
    "dform.wedge": ("dfalg.dform", ("wedge",)),
    "dform.compose": ("dfalg.dform", ("compose",)),
    "dform.contract": ("dfalg.dform", ("contract",)),
    "dform.contract_with_metric": ("dfalg.dform", ("contract_with_metric",)),
    "dform._invert_metric": ("dfalg.dform", ("_invert_metric",)),
    "dform.hodge": ("dfalg.dform", ("hodge",)),
    "dform.inner": ("dfalg.dform", ("inner",)),
    "exterior.wedge_form": ("dfalg.exterior", ("wedge_form",)),
    "exterior.wedge_multi": ("dfalg.exterior", ("wedge_multi",)),
    "exterior.hodge_multi": ("dfalg.exterior", ("hodge_multi",)),
    "invariants.series": ("dfalg.invariants",
                          ("s_rq", "h_rpq", "T_2k", "N_2k", "g_power_star_expansion")),
    "invariants.interpolate": ("dfalg.invariants", ("interpolate",)),
    "pfaffian.embed": ("dfalg.pfaffian", ("embed",)),
    "pfaffian.pf": ("dfalg.pfaffian", ("pf",)),
    "pfaffian.hyperdet": ("dfalg.pfaffian", ("hyperdet",)),
    "tensorio.load": ("dfalg.tensorio", ("load_tensor",)),
    "cli.report": ("dfalg.cli", ("_print_report",)),
}

# spans whose DoubleForm outputs feed the lane and entry-size counters
KERNELS = ("dform.wedge", "dform.compose", "dform.contract",
           "dform.contract_with_metric", "dform.hodge")

# spans whose distinct inputs are counted
KEYED = ("dform.wedge", "dform._invert_metric")


def _form_key(w):
    return (w.n, w.p, w.q, w.mat.dtype.kind, tuple(w.mat.flat))


def _entry_bits(mat):
    bits = 0
    for v in mat.flat:
        if isinstance(v, Fraction):
            bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        elif isinstance(v, int):
            bits = max(bits, v.bit_length())
    return bits


class Tracer:
    """Collects per-span calls and self time, and kernel counters."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.keys = defaultdict(set)
        self.entries_out = 0
        self.outputs = 0
        self.object_outputs = 0
        self.max_entry_bits = 0
        self.check_s = defaultdict(float)
        self.check_ms = []
        self._children = []  # one accumulator of child time per open span
        self._originals = []  # (module, attribute, original)
        self._lru = []  # lru_cache-wrapped table functions

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever a dfalg module binds it."""
        targets = {}
        for span, (modname, names) in SPANS.items():
            module = sys.modules[modname]
            for name in names:
                fn = getattr(module, name)
                targets[id(fn)] = (fn, self._wrap(span, fn))
                if hasattr(fn, "cache_info"):
                    self._lru.append(fn)
        identities = sys.modules["dfalg.identities"]
        for name in dir(identities):
            if name.startswith("check_"):
                fn = getattr(identities, name)
                targets[id(fn)] = (fn, self._wrap("identities.check", fn, check=True))
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dfalg" or name.startswith("dfalg.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def table_misses(self):
        return sum(fn.cache_info().misses for fn in self._lru)

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, span, fn, check=False):
        children = self._children
        clock = time.perf_counter
        keyed = span in KEYED
        kernel = span in KERNELS

        def traced(*args, **kwargs):
            t_enter = clock()
            if keyed:
                self.keys[span].add(tuple(_form_key(a) for a in args
                                          if hasattr(a, "mat")))
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = children.pop()
                self.calls[span] += 1
                self.self_s[span] += t1 - t0 - child
            if kernel:
                self._count_output(span, out)
            if check:
                self.check_s[out.name] += t1 - t0
                self.check_ms.append((t1 - t0) * 1e3)
            if children:
                children[-1] += clock() - t_enter
            return out

        return functools.wraps(fn)(traced)

    def _count_output(self, span, out):
        mat = out.mat
        self.outputs += 1
        if span == "dform.wedge":
            self.entries_out += mat.size
        if mat.dtype == object:
            self.object_outputs += 1
            self.max_entry_bits = max(self.max_entry_bits, _entry_bits(mat))
