"""The four benchmark workloads: inputs from a seed, one pass, and its checks.

Each workload drives dfalg through its public entry points only.  A
workload has three steps, run by worker.py in a fresh interpreter:

- ``setup(seed, workdir)`` builds or writes the inputs (timed as set-up);
- ``run(inputs)`` is one pass (timed as wall time);
- ``check(raw, seed, reference)`` validates the pass outside the timed
  region and returns a ``Verdict``.  With ``reference`` set it also
  compares against independent references, which is done once per run.

The text in a Verdict is the pass's report: the CLI's stdout for the
suites, a canonical listing of every computed value otherwise.  Passes of
one run must produce byte-identical text, traced or not.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction

from dfalg import cli, fixtures, invariants, multiindex, oracle, pfaffian, tensorio
from dfalg.dform import metric
from dfalg.exterior import ExteriorForm

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The suite size.  n = 2..6 reaches every fixture family (the (3, 3)
# Bianchi forms start at n = 6) in about 4 s a pass on a 2-core machine;
# the n = 7 reference run takes about 20 s, too long to repeat in a run.
SUITE_N_RANGE = "2:6"
SUITE_CHECKS = 2233  # checks run by `dfalg verify --n-range 2:6`, any seed
JACOBI_DIMS = range(2, 7)
FLOAT_TOLERANCE = 1e-9

# hyperdet(embed(c e^012345, 3)) at n = 6 is c^3 times this constant: the
# embedding is linear and the hyperdeterminant is a cubic (p = n/k = 3).
# The constant is the value the seed commit produces for c = 1.
HYPERDET_UNIT = -90
NONZERO_ENTRIES = (1, 2, 3, -1, -2, -3)

with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
    GOLDEN = json.load(fh)


@dataclass
class Verdict:
    text: str
    checks: int
    failed: int
    problems: list
    report_bytes: int = 0
    max_rel_residual: float = 0.0


def _fail_all(checks, text, problem):
    return Verdict(text, checks, checks, [problem])


# ---------------------------------------------------------------------------
# suite_exact and suite_float: `dfalg verify` through cli.main


class Suite:
    checks = SUITE_CHECKS

    def __init__(self, name, mode):
        self.name = name
        self.mode = mode

    def setup(self, seed, workdir):
        return ["verify", f"--n-range={SUITE_N_RANGE}", f"--seeds={seed}",
                f"--mode={self.mode}"]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        return rc, out.getvalue()

    def check(self, raw, seed, reference):
        rc, text = raw
        try:
            report = json.loads(text)
            summary = report["summary"]
            records = report["identities"]
        except (ValueError, KeyError, TypeError) as exc:
            return _fail_all(self.checks, text, f"unreadable report: {exc}")
        bad = sum(1 for r in records if not r.get("passed"))
        problems = []
        if rc != (1 if bad else 0):
            problems.append(f"exit code {rc} with {bad} failing records")
        if summary.get("checks") != self.checks or len(records) != self.checks:
            problems.append(f"{len(records)} checks, expected {self.checks}")
        if summary.get("failures") != bad:
            problems.append(f"summary counts {summary.get('failures')} failures, "
                            f"the records {bad}")
        if report.get("meta", {}).get("seeds") != [seed]:
            problems.append("report does not name the workload seed")
        worst = 0.0
        if self.mode == "float":
            worst = summary.get("max_relative_residual", float("inf"))
            if not worst <= FLOAT_TOLERANCE and not bad:
                problems.append(f"max relative residual {worst} but no record failed")
        if reference:
            problems.extend(_schema_errors(report))
        # a malformed report invalidates every check in it
        failed = self.checks if problems else bad
        if bad:
            problems.append(f"{bad} identity records did not pass")
        return Verdict(text, self.checks, failed, problems,
                       report_bytes=len(text.encode()), max_rel_residual=worst)


def _schema_errors(report):
    import jsonschema

    with open(os.path.join(ROOT, "docs", "report.schema.json"), encoding="utf-8") as fh:
        schema = json.load(fh)
    validator = jsonschema.Draft202012Validator(schema)
    return [f"schema: {e.message}" for e in itertools.islice(
        validator.iter_errors(report), 5)]


# ---------------------------------------------------------------------------
# jacobi_metric: the four interpolated Jacobi identities


def _jacobi_cases(seed):
    seeds = itertools.count(seed * 1000)
    cases = []
    for n in JACOBI_DIMS:
        g = metric(n)
        h0 = fixtures.random_bilinear(n, next(seeds))
        v = fixtures.random_bilinear(n, next(seeds))
        w = fixtures.random_bilinear(n, next(seeds), "symmetric")
        for k in range(1, n + 1):
            cases.append(("jacobi_derivative", n, k, (h0, v, k)))
        for k in range(1, n + 1):
            cases.append(("jacobi_with_metric", n, k, (h0, v, g, w, k)))
        R0 = fixtures.random_bianchi(n, 2, 2, next(seeds))
        V = fixtures.random_bianchi(n, 2, 2, next(seeds))
        W = fixtures.random_bilinear(n, next(seeds), "symmetric")
        for k in range(1, n // 2 + 1):
            cases.append(("jacobi_double_form", n, k, (R0, V, k)))
        for k in range(1, (n - 1) // 2 + 1):
            cases.append(("jacobi_double_form_with_metric", n, k, (R0, V, g, W, k)))
    return cases


class Jacobi:
    name = "jacobi_metric"
    checks = 55  # n + n + floor(n/2) + floor((n-1)/2) cases for n = 2..6

    def setup(self, seed, workdir):
        return _jacobi_cases(seed)

    def run(self, cases):
        return [(fn, n, k, getattr(invariants, fn)(*args)) for fn, n, k, args in cases]

    def check(self, raw, seed, reference):
        if len(raw) != self.checks:
            return _fail_all(self.checks, "", f"{len(raw)} checks, expected {self.checks}")
        lines, problems = [], []
        for fn, n, k, (lhs, rhs) in raw:
            lines.append(f"{fn} n={n} k={k} lhs={lhs} rhs={rhs}\n")
            if lhs != rhs:
                problems.append(f"{fn} n={n} k={k}: {lhs} != {rhs}")
        return Verdict("".join(lines), self.checks, len(problems), problems)


# ---------------------------------------------------------------------------
# pfaffian_exterior: Pfaffians, a hyperdeterminant and Pf^2 = det from files


def _pfaffian_inputs(seed):
    rng = fixtures.SplitMix64(seed)
    c = NONZERO_ENTRIES[rng.next_u64() % len(NONZERO_ENTRIES)]
    forms = {
        "pf2_n12": fixtures.random_form(12, 2, seed),
        "pf2_n14": fixtures.random_form(14, 2, seed + 1),
        "pf4_n12": fixtures.random_form(12, 4, seed + 2),
        "hyperdet_n6": ExteriorForm.from_coeffs(6, 6, {tuple(range(6)): c}),
    }
    for i, n in enumerate((4, 6, 8)):
        forms[f"pfsq_n{n}"] = fixtures.random_bilinear(n, seed + 3 + i, "skew")
    return forms, c


class Pfaffian:
    name = "pfaffian_exterior"
    checks = 7

    def setup(self, seed, workdir):
        forms, _ = _pfaffian_inputs(seed)
        paths = {}
        for key, form in forms.items():
            paths[key] = os.path.join(workdir, f"{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(tensorio.tensor_to_json(form))
        return paths

    def run(self, paths):
        t = {key: tensorio.load_tensor(path) for key, path in paths.items()}
        out = {key: pfaffian.pf(t[key]) for key in ("pf2_n12", "pf2_n14", "pf4_n12")}
        out["hyperdet_n6"] = pfaffian.hyperdet(pfaffian.embed(t["hyperdet_n6"], 3))
        for n in (4, 6, 8):
            out[f"pfsq_n{n}"] = pfaffian.check_pf_squared(
                pfaffian.skew_to_form(t[f"pfsq_n{n}"]), 2)
        return out

    def check(self, raw, seed, reference):
        values = {}
        problems = {}
        for key, value in sorted(raw.items()):
            if key.startswith("pfsq"):
                values[key] = f"{value.lhs} {value.rhs}"
                if not (value.asserted and value.lhs == value.rhs):
                    problems[key] = f"{key}: Pf^2 = {value.lhs} but det = {value.rhs}"
            else:
                values[key] = str(value)
        if len(values) != self.checks:
            return _fail_all(self.checks, "", f"{len(values)} values, expected {self.checks}")
        if reference:
            for key, problem in _pfaffian_reference_errors(values, seed):
                problems.setdefault(key, problem)
        text = "".join(f"{key} {values[key]}\n" for key in sorted(values))
        return Verdict(text, self.checks, len(problems), list(problems.values()))


def _pfaffian_reference_errors(values, seed):
    forms, c = _pfaffian_inputs(seed)
    expected = {}
    for key in ("pf2_n12", "pf2_n14"):
        f = forms[key]
        M = [[0] * f.n for _ in range(f.n)]
        for (i, j), v in zip(multiindex.subsets(f.n, 2), f.coeffs):
            M[i][j], M[j][i] = v, -v
        expected[key] = oracle.pf_matching_oracle(M)
    expected["pf4_n12"] = _pf_by_partitions(forms["pf4_n12"])
    expected["hyperdet_n6"] = c ** 3 * HYPERDET_UNIT
    errors = [(key, f"{key}: {values[key]} but the reference gives {want}")
              for key, want in expected.items() if Fraction(values[key]) != want]
    golden = GOLDEN["pfaffian_exterior"].get(str(seed), {})
    errors.extend((key, f"{key}: {values[key]} but the seed commit gave {want}")
                  for key, want in golden.items() if values[key] != want)
    return errors


def _pf_by_partitions(form):
    """Pfaffian of a 4-form on R^12: signed sum over partitions into 4-blocks.

    w^3/3! has top coefficient sum over unordered partitions {A, B, C} of
    sign(A|B|C) w_A w_B w_C, since 4-blocks commute.
    """
    n = form.n
    coeff = dict(zip(multiindex.subsets(n, 4), form.coeffs))
    total = 0
    rest0 = tuple(range(1, n))
    for a in itertools.combinations(rest0, 3):
        A = (0, *a)
        rest1 = tuple(i for i in rest0 if i not in a)
        for b in itertools.combinations(rest1[1:], 3):
            B = (rest1[0], *b)
            C = tuple(i for i in rest1[1:] if i not in b)
            total += (oracle.permutation_parity(A + B + C)
                      * coeff[A] * coeff[B] * coeff[C])
    return total


WORKLOADS = {w.name: w for w in (
    Suite("suite_exact", "exact"),
    Suite("suite_float", "float"),
    Jacobi(),
    Pfaffian(),
)}
