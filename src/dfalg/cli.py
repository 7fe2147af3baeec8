"""Command-line front end.

Subcommands: generate (emit fixture tensors as JSON), invariants (compute
invariant families of a tensor file), verify (run the identity suite),
pfaffian (Pfaffian/determinant comparisons).  Exit codes: 0 success,
1 an asserted identity failed, 2 usage or input errors.

The environment variable DFA_MODE ("exact" or "float") sets the default
scalar mode where a command takes one.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite

import numpy as np

from . import __version__, scalars
from .dform import DoubleForm
from .exterior import MultiForm
from .fixtures import (
    constant_curvature,
    random_bianchi,
    random_bilinear,
    random_form,
    suite_fixtures,
)
from .identities import ALL_IDENTITY_NAMES, run_suite
from .invariants import FAMILIES, _check_square, family_member, family_orders, h_rpq, s_rq
from .multiindex import MAX_DIM
from .pfaffian import check_pf_squared, conjecture_to_residual, hyperdet, skew_to_form
from .tensorio import load_tensor, tensor_to_doc

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2

# seeds of `verify --seeds` and `generate --seed`: the SplitMix64 state range
SEED_LIMIT = 1 << 64

# The largest decimal exponent `generate --kappa` accepts.  It is checked
# before the value is built: Fraction("1e300000000") builds a
# 300-million-digit integer, and a report writes no integer of more than
# 4300 digits, Python's int-to-string limit.
KAPPA_EXPONENT_LIMIT = 4300

# The largest dimension `verify` accepts.  One-seed exact `verify` through
# main with two processes, on a 2-core 8 GB host, takes 0.7 s at n = 9,
# 3.8 s at n = 10 and 17.4 s at n = 11 (2979 checks); each process peaks at
# 109-131, 165-177 and 328-337 MB.  n = 12 took 122 s, and its two
# processes held about 2.5 GB together, so memory keeps it out.
MAX_VERIFY_DIM = 11


def _default_mode():
    mode = os.environ.get("DFA_MODE", "exact")
    if mode not in ("exact", "float"):
        raise ValueError(f"DFA_MODE must be 'exact' or 'float', got {mode!r}")
    return mode


# The most suite processes `verify` starts: two is the count measured
# (BENCH_parallel_suite.json).  Each process holds the memos of its own
# share, so memory grows with the count, and the affinity mask does not see
# a cgroup's CPU quota.
MAX_SUITE_PROCESSES = 2


def _suite_processes():
    """One suite process per core this process may run on, at most
    MAX_SUITE_PROCESSES; one where os.fork or os.sched_getaffinity is
    missing."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return min(MAX_SUITE_PROCESSES, len(os.sched_getaffinity(0)))
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dfalg",
                                 description="Exact double-form algebra: invariants, "
                                             "identity verification, Pfaffians.")
    ap.add_argument("--version", action="version", version=f"dfalg {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a fixture tensor as JSON")
    gen.add_argument("--kind", required=True,
                     choices=["general", "symmetric", "skew", "bianchi",
                              "constant_curvature", "form"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=int, default=2, help="slot degree for bianchi")
    gen.add_argument("--k", type=int, default=2, help="degree for form")
    gen.add_argument("--terms", type=int, default=2, help="terms for bianchi")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--kappa", default="1", help="curvature constant, a/b")
    gen.add_argument("--scalar", choices=list(scalars.FIELDS), default=None)

    inv = sub.add_parser("invariants", help="compute invariants of a tensor file")
    inv.add_argument("file")
    inv.add_argument("--family", required=True,
                     choices=[*FAMILIES, "srq", "hrpq"])
    inv.add_argument("--k", default="all", help="order k, or 'all'")
    inv.add_argument("--r", type=int, default=None, help="cofactor order r")
    inv.add_argument("--q", type=int, default=None, help="power q")

    ver = sub.add_parser("verify", help="run the identity suite")
    ver.add_argument("--n-range", default="2:6", help="inclusive range, e.g. 2:6")
    ver.add_argument("--seeds", default="1", help="comma-separated seed list")
    ver.add_argument("--mode", choices=["exact", "float"], default=None)
    ver.add_argument("--only", default=None, metavar="IDENTITY",
                     help="run a single identity: " + ", ".join(ALL_IDENTITY_NAMES))

    pfp = sub.add_parser("pfaffian", help="Pfaffian and determinant comparisons")
    pfp.add_argument("file")
    pfp.add_argument("--r", type=int, default=2,
                     help="slot count for the embedding comparison")
    return ap


def _meta(mode, seeds=None, n_values=None):
    meta = {"tool": "dfalg", "version": __version__, "mode": mode}
    if seeds is not None:
        meta["seeds"] = seeds
    if n_values is not None:
        meta["n_values"] = n_values
    return meta


def _json_text(obj):
    """obj as the text json.dumps(obj, indent=2, allow_nan=False) writes.

    json.dumps turns to its pure-Python encoder when given an indent; this
    writer makes the same text in about half the time.  Strings are escaped
    to ASCII by json's C escaper, ints and floats are written by their
    reprs, and each depth's separators and each key's text are built once.
    A float that is not finite is a ValueError; a key that is not a str, or
    a value of another type, is a TypeError.
    """
    parts = []
    append = parts.append
    levels = []  # depth -> (first, between, closing) separators
    keys = {}  # key -> its quoted text with ": "

    def write(o, depth):
        if isinstance(o, str):
            append(_quote(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, float):
            if not isfinite(o):
                raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
            append(float.__repr__(o))
        elif isinstance(o, (list, tuple, dict)):
            if not o:
                append("{}" if isinstance(o, dict) else "[]")
                return
            if depth == len(levels):
                pad = "\n" + "  " * depth
                levels.append((pad + "  ", "," + pad + "  ", pad))
            sep, between, closing = levels[depth]
            if isinstance(o, dict):
                append("{")
                for k, v in o.items():
                    key = keys.get(k)
                    if key is None:
                        if not isinstance(k, str):
                            raise TypeError(f"report keys must be str, not {type(k).__name__}")
                        key = keys[k] = _quote(k) + ": "
                    append(sep)
                    append(key)
                    write(v, depth + 1)
                    sep = between
                append(closing)
                append("}")
            else:
                append("[")
                for v in o:
                    append(sep)
                    write(v, depth + 1)
                    sep = between
                append(closing)
                append("]")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(obj, 0)
    return "".join(parts)


def _print_report(report, code):
    """Write report to stdout as one JSON text and return code.

    A value that is not finite (a float that overflowed) has no JSON form:
    then nothing is written and the exit code is 2.
    """
    try:
        text = _json_text(report)
    except ValueError:
        return _fail("the report holds a float that is not finite (an overflow), "
                     "which JSON cannot write")
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`dfalg verify | head`): keep the flush at exit quiet
        sys.stdout = open(os.devnull, "w")
    return code


def _fail(msg):
    print(f"dfalg: error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _check_seed(seed):
    # SplitMix64 keeps 64 bits of its seed, so -1 and 2^64 - 1 would build
    # the same fixtures under different report metadata
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")


def _kappa(text):
    """--kappa as a Fraction, its exponent bounded before the value is built."""
    _, e, exponent = text.lower().partition("e")
    try:
        huge = e and abs(int(exponent)) > KAPPA_EXPONENT_LIMIT
    except ValueError:
        raise ValueError(f"invalid --kappa {text!r}") from None
    if huge:
        raise ValueError(f"--kappa {text!r} has an exponent outside "
                         f"[-{KAPPA_EXPONENT_LIMIT}, {KAPPA_EXPONENT_LIMIT}]")
    return Fraction(text)


def cmd_generate(args) -> int:
    field = args.scalar
    n = args.n
    try:
        # up to MAX_DIM a bilinear or constant-curvature form is under the
        # dense limit; the bianchi and form generators check their own cost
        if not 0 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in [0, {MAX_DIM}], got {n}")
        _check_seed(args.seed)
        if field is None:
            field = scalars.FLOAT64 if _default_mode() == "float" else scalars.RATIONAL
        if args.kind in ("general", "symmetric", "skew"):
            obj = random_bilinear(n, args.seed, args.kind, field)
        elif args.kind == "bianchi":
            obj = random_bianchi(n, args.p, args.terms, args.seed, field=field)
        elif args.kind == "constant_curvature":
            obj = constant_curvature(n, _kappa(args.kappa), field)
        else:
            obj = random_form(n, args.k, args.seed, field)
        doc = tensor_to_doc(obj)  # an exact value past 4300 digits is refused here
    except (ValueError, ArithmeticError) as exc:  # a float kappa past 1e308 overflows
        return _fail(str(exc))
    return _print_report(doc, EXIT_OK)


def _load(path):
    """The tensor in the file at path; a file that cannot be read or parsed
    is a ValueError."""
    try:
        return load_tensor(path)
    except OSError as exc:
        raise ValueError(str(exc)) from None
    except ValueError as exc:  # a TensorFormatError, or bytes that are not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def _value(v, field):
    """A report value: a scalar, the scalar of a (0, 0) form, or the entries
    of any other form."""
    if isinstance(v, DoubleForm):
        if v.bidegree != (0, 0):
            return tensor_to_doc(v)["entries"]
        v = v.scalar()
    return scalars.format_scalar(v, field)


def _invariants(obj, args):
    """The report rows of args.family for the (p, q) form obj."""
    family, r, q = args.family, args.r, args.q
    if family in FAMILIES:
        # checked here too: at an n with no order, `--k all` lists no member
        _check_square(obj, FAMILIES[family][1])
        if args.k == "all":
            orders = family_orders(family, obj.n)
        else:
            try:
                orders = [int(args.k)]
            except ValueError:
                raise ValueError(f"--k must be an integer or 'all', got {args.k!r}")
        return [{"family": family, "k": k,
                 "value": _value(family_member(family, obj, k), obj.field)}
                for k in orders]
    if r is None or q is None:
        raise ValueError(f"--family {family} needs --r and --q")
    if family == "srq":
        row, w = {"r": r}, s_rq(obj, r, q)
    else:
        row, w = {"r": r, "p": obj.p}, h_rpq(obj, r, obj.p, q)
    return [{"family": family, **row, "q": q, "value": _value(w, obj.field)}]


def cmd_invariants(args) -> int:
    try:
        obj = _load(args.file)
        if not isinstance(obj, DoubleForm):
            raise ValueError("invariants need a double_form tensor file")
        values = _invariants(obj, args)
    except ValueError as exc:
        return _fail(str(exc))
    report = {"meta": _meta("exact" if obj.field == scalars.RATIONAL else "float"),
              "input": {"n": obj.n, "p": obj.p, "q": obj.q, "scalar": obj.field},
              "invariants": values, "identities": [], "conjectures": []}
    return _print_report(report, EXIT_OK)


def cmd_verify(args) -> int:
    try:
        mode = args.mode or _default_mode()
    except ValueError as exc:
        return _fail(str(exc))
    try:
        lo, _, hi = args.n_range.partition(":")
        lo, hi = int(lo), int(hi or lo)
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        return _fail(f"bad --n-range or --seeds")
    if lo < 2 or hi < lo:
        return _fail(f"bad dimension range {args.n_range!r}")
    if hi > MAX_VERIFY_DIM:
        return _fail(f"--n-range reaches n = {hi}, above the largest suite "
                     f"dimension {MAX_VERIFY_DIM}")
    if not seeds:
        return _fail(f"--seeds names no seed: {args.seeds!r}")
    if len(set(seeds)) < len(seeds):
        # a repeated seed would report each of its checks twice
        return _fail(f"--seeds repeats a seed: {args.seeds!r}")
    try:
        for seed in seeds:
            _check_seed(seed)
    except ValueError as exc:
        return _fail(str(exc))
    field = scalars.FLOAT64 if mode == "float" else scalars.RATIONAL
    fixture_sets = [suite_fixtures(n, seed, field)
                    for n in range(lo, hi + 1) for seed in seeds]
    try:
        records = run_suite(fixture_sets, only=args.only, processes=_suite_processes())
    except ValueError as exc:
        return _fail(str(exc))
    failures = [r for r in records if not r.passed]
    report = {
        "meta": _meta(mode, seeds=seeds, n_values=list(range(lo, hi + 1))),
        "invariants": [],
        "identities": [r.to_json() for r in records],
        "conjectures": [],
        "summary": {"checks": len(records), "failures": len(failures)},
    }
    if mode == "float":
        worst = max((r.rel_residual or 0.0 for r in records), default=0.0)
        report["summary"]["max_relative_residual"] = worst
        print(f"max relative residual {worst:.3e} "
              f"(tolerance {scalars.FLOAT_RELATIVE_TOLERANCE:.1e})", file=sys.stderr)
    return _print_report(report, EXIT_IDENTITY_FAILURE if failures else EXIT_OK)


def cmd_pfaffian(args) -> int:
    identities, conjectures = [], []
    try:
        obj = _load(args.file)
        if isinstance(obj, MultiForm):
            values = [{"family": "hyperdet", "value": _value(hyperdet(obj), obj.field)}]
        else:
            skew = isinstance(obj, DoubleForm)
            if skew:
                if obj.bidegree != (1, 1):
                    raise ValueError("pfaffian needs a skew (1, 1) double form, "
                                     "an even-degree form, or a multiform")
                obj = skew_to_form(obj)
            rec = check_pf_squared(obj, 2 if skew else args.r)
            values = [{"family": "pf", "value": _value(rec.pf, obj.field)}]
            if skew:
                values.append({"family": "det", "value": _value(rec.rhs, obj.field)})
            if rec.asserted:
                identities.append(conjecture_to_residual(rec, obj.field).to_json())
            else:
                conjectures.append(rec.to_json())
    except ValueError as exc:
        return _fail(str(exc))
    failures = [r for r in identities if not r["passed"]]
    mode = "exact" if obj.field == scalars.RATIONAL else "float"
    report = {"meta": _meta(mode), "invariants": values,
              "identities": identities, "conjectures": conjectures}
    return _print_report(report, EXIT_IDENTITY_FAILURE if failures else EXIT_OK)


COMMANDS = {"generate": cmd_generate, "invariants": cmd_invariants,
            "verify": cmd_verify, "pfaffian": cmd_pfaffian}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a float that overflows reaches the report, which _print_report
    # refuses; numpy's warnings on the way would only add lines to stderr
    with np.errstate(all="ignore"):
        return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
