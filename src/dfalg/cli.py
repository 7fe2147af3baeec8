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
import json
import os
import sys
from fractions import Fraction

from . import __version__, scalars
from .dform import DoubleForm, transpose
from .exterior import ExteriorForm, MultiForm
from .fixtures import (
    constant_curvature,
    random_bianchi,
    random_bilinear,
    random_form,
    suite_fixtures,
)
from .identities import ALL_IDENTITY_NAMES, run_suite
from .invariants import N_2k, T_2k, h_2k, h_rpq, s_k, s_rq, t_k
from .multiindex import MAX_DIM
from .pfaffian import check_pf_squared, conjecture_to_residual, hyperdet, \
    pf, skew_to_form
from .tensorio import TensorFormatError, load_tensor, tensor_to_doc

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

# The largest dimension `verify` accepts.  With one seed on a 2-core host,
# timed in-process around run_suite, the exact suite takes 1.6 s at n = 9,
# 7.4 s at n = 10 and 38 s at n = 11 (2979 checks), with peak RSS 126, 176
# and 335-346 MB.  Time grows about 5x per added dimension, so n = 12 is
# left out.
MAX_VERIFY_DIM = 11


def _default_mode():
    mode = os.environ.get("DFA_MODE", "exact")
    if mode not in ("exact", "float"):
        raise ValueError(f"DFA_MODE must be 'exact' or 'float', got {mode!r}")
    return mode


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
                     choices=["s", "t", "srq", "h2k", "T", "N", "hrpq"])
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


def _print_report(report):
    try:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`dfalg verify | head`): keep the flush at exit quiet
        sys.stdout = open(os.devnull, "w")


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
    _print_report(doc)
    return EXIT_OK


def _orders(args, upper):
    if args.k == "all":
        return list(range(upper + 1))
    try:
        k = int(args.k)
    except ValueError:
        raise ValueError(f"--k must be an integer or 'all', got {args.k!r}")
    return [k]


def _form_value(w: DoubleForm):
    if w.bidegree == (0, 0):
        return scalars.format_scalar(w.scalar(), w.field)
    return tensor_to_doc(w)["entries"]


def cmd_invariants(args) -> int:
    try:
        obj = load_tensor(args.file)
    except OSError as exc:
        return _fail(str(exc))
    except TensorFormatError as exc:
        return _fail(f"{args.file}: {exc}")
    if not isinstance(obj, DoubleForm):
        return _fail("invariants need a double_form tensor file")
    n = obj.n
    values = []
    try:
        if args.family == "s":
            for k in _orders(args, n):
                values.append({"family": "s", "k": k,
                               "value": scalars.format_scalar(s_k(obj, k), obj.field)})
        elif args.family == "t":
            for k in _orders(args, n - 1):
                values.append({"family": "t", "k": k,
                               "value": _form_value(t_k(obj, k))})
        elif args.family == "srq":
            if args.r is None or args.q is None:
                return _fail("--family srq needs --r and --q")
            values.append({"family": "srq", "r": args.r, "q": args.q,
                           "value": _form_value(s_rq(obj, args.r, args.q))})
        elif args.family == "h2k":
            for k in _orders(args, n // 2):
                values.append({"family": "h2k", "k": k,
                               "value": scalars.format_scalar(h_2k(obj, k), obj.field)})
        elif args.family == "T":
            for k in _orders(args, (n - 1) // 2):
                if k == 0:
                    continue
                values.append({"family": "T", "k": k,
                               "value": _form_value(T_2k(obj, k))})
        elif args.family == "N":
            for k in _orders(args, (n - 2) // 2):
                if k == 0:
                    continue
                values.append({"family": "N", "k": k,
                               "value": _form_value(N_2k(obj, k))})
        elif args.family == "hrpq":
            if args.r is None or args.q is None:
                return _fail("--family hrpq needs --r and --q")
            values.append({"family": "hrpq", "r": args.r, "p": obj.p, "q": args.q,
                           "value": _form_value(h_rpq(obj, args.r, obj.p, args.q))})
    except ValueError as exc:
        return _fail(str(exc))
    report = {"meta": _meta("exact" if obj.field == scalars.RATIONAL else "float"),
              "input": {"n": n, "p": obj.p, "q": obj.q, "scalar": obj.field},
              "invariants": values, "identities": [], "conjectures": []}
    _print_report(report)
    return EXIT_OK


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
        records = run_suite(fixture_sets, only=args.only)
    except ValueError as exc:
        return _fail(str(exc))
    failures = [r for r in records if r.asserted and not r.passed]
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
    _print_report(report)
    return EXIT_IDENTITY_FAILURE if failures else EXIT_OK


def cmd_pfaffian(args) -> int:
    try:
        obj = load_tensor(args.file)
    except OSError as exc:
        return _fail(str(exc))
    except TensorFormatError as exc:
        return _fail(f"{args.file}: {exc}")
    identities = []
    conjectures = []
    values = []
    try:
        if isinstance(obj, DoubleForm):
            if obj.bidegree != (1, 1) or obj != -transpose(obj):
                return _fail("pfaffian needs a skew (1, 1) double form, "
                             "an even-degree form, or a multiform")
            form = skew_to_form(obj)
            rec = check_pf_squared(form, 2)
            values.append({"family": "pf",
                           "value": scalars.format_scalar(pf(form), obj.field)})
            values.append({"family": "det",
                           "value": scalars.format_scalar(rec.rhs, obj.field)})
            identities.append(conjecture_to_residual(rec, obj.field).to_json())
        elif isinstance(obj, ExteriorForm):
            values.append({"family": "pf",
                           "value": scalars.format_scalar(pf(obj), obj.field)})
            rec = check_pf_squared(obj, args.r)
            if rec.asserted:
                identities.append(conjecture_to_residual(rec, obj.field).to_json())
            else:
                conjectures.append(rec.to_json())
        else:
            assert isinstance(obj, MultiForm)
            values.append({"family": "hyperdet",
                           "value": scalars.format_scalar(hyperdet(obj), obj.field)})
    except ValueError as exc:
        return _fail(str(exc))
    failures = [r for r in identities if r["asserted"] and not r["passed"]]
    mode = "exact" if obj.field == scalars.RATIONAL else "float"
    report = {"meta": _meta(mode), "invariants": values,
              "identities": identities, "conjectures": conjectures}
    _print_report(report)
    return EXIT_IDENTITY_FAILURE if failures else EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "invariants":
            return cmd_invariants(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "pfaffian":
            return cmd_pfaffian(args)
    except TensorFormatError as exc:
        return _fail(str(exc))
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
