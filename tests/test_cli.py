import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from dfalg import scalars
from dfalg.cli import main
from dfalg.dform import DoubleForm
from dfalg.exterior import ExteriorForm, MultiForm
from dfalg.fixtures import random_bianchi, random_bilinear, random_form
from dfalg.invariants import FAMILIES
from dfalg.tensorio import (
    TensorFormatError,
    load_tensor,
    tensor_from_doc,
    tensor_from_json,
    tensor_to_doc,
    tensor_to_json,
)


def _non_json_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


def run_cli(capsys, *argv):
    """main(argv) with its captured stdout and stderr, held to the CLI
    contract: stdout is empty or strict JSON, exit 2 leaves it empty, and
    stderr holds no traceback."""
    code = main(list(argv))
    out = capsys.readouterr()
    if out.out:
        assert code != 2, "exit 2 with a report on stdout"
        json.loads(out.out, parse_constant=_non_json_constant)
    assert "Traceback" not in out.err
    return code, out.out, out.err


# -- tensor files --------------------------------------------------------------

def test_round_trip_double_form():
    m = random_bianchi(4, 2, 2, seed=1).mat.copy()
    m[0, 1] += Fraction(1, 3)  # exercise non-integer rationals
    w = DoubleForm(4, 2, 2, m)
    doc = tensor_to_doc(w)
    assert doc["kind"] == "double_form" and doc["scalar"] == "rational"
    assert tensor_from_doc(doc) == w


def test_round_trip_form_and_multiform():
    f = random_form(5, 2, seed=2)
    assert tensor_from_json(tensor_to_json(f)) == f
    values = np.zeros((6, 6, 6), dtype=object)
    values[0, 1, 2] = Fraction(-7, 2)
    mf = MultiForm(4, 2, 3, values)
    assert tensor_from_json(tensor_to_json(mf)) == mf


def test_round_trip_float_mode():
    h = random_bilinear(3, 3, "general", scalars.FLOAT64)
    doc = tensor_to_doc(h)
    assert doc["scalar"] == "float64"
    assert tensor_from_doc(doc) == h


def test_malformed_documents_rejected():
    good = tensor_to_doc(random_bilinear(3, 4))
    cases = []
    d = json.loads(json.dumps(good)); d.pop("n"); cases.append(d)
    d = json.loads(json.dumps(good)); d["kind"] = "triple_form"; cases.append(d)
    d = json.loads(json.dumps(good)); d["entries"][0]["row"] = [2, 1]; cases.append(d)
    d = json.loads(json.dumps(good)); d["entries"][0]["row"] = [9]; cases.append(d)
    d = json.loads(json.dumps(good)); d["entries"][0]["value"] = "x/y"; cases.append(d)
    d = json.loads(json.dumps(good)); d["entries"].append(dict(d["entries"][0])); cases.append(d)
    d = json.loads(json.dumps(good)); d["entries"][0]["value"] = 0.5; cases.append(d)
    d = json.loads(json.dumps(good)); d["entries"][0].pop("value"); cases.append(d)
    # JSON booleans are not integers
    d = json.loads(json.dumps(good)); d["n"] = True; cases.append(d)
    d = json.loads(json.dumps(good)); d["entries"][0]["row"] = [True]; cases.append(d)
    for field in scalars.FIELDS:
        d = json.loads(json.dumps(good)); d["scalar"] = field
        d["entries"][0]["value"] = True; cases.append(d)
    for bad in cases:
        with pytest.raises(TensorFormatError):
            tensor_from_doc(bad)
    with pytest.raises(TensorFormatError):
        tensor_from_json("{not json")


def test_entry_bidegree_mismatch():
    doc = tensor_to_doc(random_bilinear(3, 5))
    doc["entries"][0]["row"] = [0, 1]
    with pytest.raises(TensorFormatError):
        tensor_from_doc(doc)


# -- generate ------------------------------------------------------------------

def test_generate_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "generate", "--kind", "symmetric",
                           "--n", "4", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    w = tensor_from_doc(doc)
    assert w == random_bilinear(4, 9, "symmetric")


def test_generate_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "generate", "--kind", "bianchi", "--n", "4",
                         "--p", "2", "--terms", "2", "--seed", "3")
    _, out2, _ = run_cli(capsys, "generate", "--kind", "bianchi", "--n", "4",
                         "--p", "2", "--terms", "2", "--seed", "3")
    assert out1 == out2


def test_generate_constant_curvature_and_form(capsys):
    code, out, _ = run_cli(capsys, "generate", "--kind", "constant_curvature",
                           "--n", "4", "--kappa", "2/3")
    assert code == 0
    w = tensor_from_doc(json.loads(out))
    from dfalg.fixtures import constant_curvature

    assert w == constant_curvature(4, Fraction(2, 3))
    code, out, _ = run_cli(capsys, "generate", "--kind", "form", "--n", "6",
                           "--k", "2", "--seed", "5")
    assert code == 0
    assert tensor_from_doc(json.loads(out)) == random_form(6, 2, 5)


OVERSIZED_GENERATE = [
    # C(24, 12)^2 = 7.3e12 object entries
    ["--kind", "bianchi", "--n", "24", "--p", "12"],
    # the result has C(20, 18)^2 entries, but the wedges pass C(20, 10)^2
    ["--kind", "bianchi", "--n", "20", "--p", "18"],
    ["--kind", "form", "--n", "40", "--k", "20"],
    ["--kind", "general", "--n", "100000"],
    ["--kind", "form", "--n", "1000000000", "--k", "500000000"],
]


@pytest.mark.parametrize("args", OVERSIZED_GENERATE)
def test_generate_oversized_request_exits_2(capsys, args):
    code, out, err = run_cli(capsys, "generate", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("dfalg: error:")


# bianchi requests whose result is small but whose terms (or wedges per
# term) would run for hours; the work budget refuses them before any wedge
OVERWORKED_GENERATE = [
    ["--kind", "bianchi", "--n", "4", "--terms", "100000000"],
    ["--kind", "bianchi", "--n", "4", "--p", "100000000"],
    ["--kind", "bianchi", "--n", "12", "--p", "6", "--terms", "4"],
]


@pytest.mark.parametrize("args", OVERWORKED_GENERATE)
def test_generate_work_budget_exits_2(capsys, args):
    code, out, err = run_cli(capsys, "generate", *args)
    assert code == 2
    assert out == ""
    assert err.startswith("dfalg: error:") and "terms and wedges" in err


def test_generate_within_work_budget_runs(capsys):
    # n = 4, p = 2: 36 entries, so 10 terms are 720 entries of work
    code, out, _ = run_cli(capsys, "generate", "--kind", "bianchi", "--n", "4",
                           "--terms", "10", "--seed", "3")
    assert code == 0
    assert tensor_from_doc(json.loads(out)) == random_bianchi(4, 2, 10, 3)


HOSTILE_KAPPA = [
    # past the exponent bound: Fraction would build a 5000- or a
    # 300-million-digit integer before anything could refuse it
    ["--kappa", "1e5000"],
    ["--kappa", "1e300000000"],
    # within the bound, but a float past 1e308, or an exact value past the
    # report's 4300 digits
    ["--kappa", "1e400", "--scalar", "float64"],
    ["--kappa", "1e4300"],
    ["--kappa", "1e-4300"],
    ["--kappa", "2e"],
]


@pytest.mark.parametrize("args", HOSTILE_KAPPA)
def test_generate_hostile_kappa_exits_2(capsys, args):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "generate", "--kind", "constant_curvature",
                             "--n", "3", *args)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.startswith("dfalg: error:") and "Traceback" not in err


def test_generate_kappa_with_an_exponent_runs(capsys):
    from dfalg.fixtures import constant_curvature

    for kappa, value in (("5e-3", Fraction(1, 200)), ("-2.5E+2", Fraction(-250))):
        code, out, _ = run_cli(capsys, "generate", "--kind", "constant_curvature",
                               "--n", "4", f"--kappa={kappa}")
        assert code == 0
        assert tensor_from_doc(json.loads(out)) == constant_curvature(4, value)


BAD_SEEDS = ["-1", str(2 ** 64), str(2 ** 64 + 5), str(-(2 ** 64) + 1)]


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_seed_outside_64_bits_exits_2(capsys, seed):
    for argv in (("verify", "--n-range", "2:2", "--seeds", seed),
                 ("verify", "--n-range", "2:2", "--seeds", f"1,{seed}"),
                 ("generate", "--kind", "symmetric", "--n", "3", "--seed", seed)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("dfalg: error: seed")


def test_largest_seed_is_accepted(capsys):
    top = str(2 ** 64 - 1)
    code, out, _ = run_cli(capsys, "verify", "--n-range", "2:2", "--seeds", top)
    assert code == 0
    assert json.loads(out)["meta"]["seeds"] == [2 ** 64 - 1]
    code, out, _ = run_cli(capsys, "generate", "--kind", "symmetric", "--n", "3",
                           "--seed", top)
    assert code == 0
    assert tensor_from_doc(json.loads(out)) == random_bilinear(3, 2 ** 64 - 1, "symmetric")


# -- invariants ------------------------------------------------------------------

def test_invariants_of_identity_metric(tmp_path, capsys):
    from dfalg.dform import metric

    path = tmp_path / "g.json"
    path.write_text(tensor_to_json(metric(4)))
    code, out, _ = run_cli(capsys, "invariants", str(path), "--family", "s")
    assert code == 0
    rep = json.loads(out)
    ks = [row["value"] for row in rep["invariants"]]
    assert ks == [str(comb(4, k)) for k in range(5)]


def test_invariants_constant_curvature_h2k(tmp_path, capsys):
    from dfalg.fixtures import constant_curvature

    n = 6
    path = tmp_path / "cc.json"
    path.write_text(tensor_to_json(constant_curvature(n, 1)))
    code, out, _ = run_cli(capsys, "invariants", str(path), "--family", "h2k")
    assert code == 0
    rep = json.loads(out)
    values = {row["k"]: row["value"] for row in rep["invariants"]}
    for k in range(n // 2 + 1):
        assert values[k] == str(factorial(n) // (2 ** k * factorial(n - 2 * k)))


def test_invariants_matrix_family(tmp_path, capsys):
    h = random_bilinear(3, 6)
    path = tmp_path / "h.json"
    path.write_text(tensor_to_json(h))
    code, out, _ = run_cli(capsys, "invariants", str(path), "--family", "t",
                           "--k", "2")
    assert code == 0
    rep = json.loads(out)
    from dfalg import oracle
    import numpy as np

    entries = rep["invariants"][0]["value"]
    got = np.zeros((3, 3), dtype=object)
    for e in entries:
        got[e["row"][0], e["col"][0]] = Fraction(e["value"])
    assert np.all(got == oracle.cofactor_oracle(h.mat))


def test_invariants_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "kind": "double_form", "p": 1, "q": 1, '
                    '"entries": [{"row": [5], "col": [0], "value": "1"}]}')
    code, _, err = run_cli(capsys, "invariants", str(path), "--family", "s")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("value", ['"nan"', '"inf"', '"-inf"', "NaN", "Infinity",
                                   "-Infinity", "1e999", "null"])
def test_invariants_non_finite_float_exits_2(tmp_path, capsys, value):
    path = tmp_path / "h.json"
    path.write_text('{"n": 3, "kind": "double_form", "p": 1, "q": 1, '
                    '"scalar": "float64", '
                    '"entries": [{"row": [0], "col": [0], "value": %s}]}' % value)
    code, out, err = run_cli(capsys, "invariants", str(path), "--family", "s")
    assert code == 2
    assert out == ""
    assert err.startswith("dfalg: error:")


@pytest.mark.parametrize("text", [
    # an integer past the float64 range in a float document
    '{"n": 3, "kind": "double_form", "p": 1, "q": 1, "scalar": "float64", '
    '"entries": [{"row": [0], "col": [0], "value": 1%s}]}' % ("0" * 400),
    # an integer literal past Python's 4300-digit conversion limit
    '{"n": 3, "kind": "double_form", "p": 1, "q": 1, '
    '"entries": [{"row": [0], "col": [0], "value": 1%s}]}' % ("0" * 5000),
    # nesting deeper than the JSON decoder's recursion limit
    "[" * 100000,
], ids=["float-overflow", "int-digits", "deep-nesting"])
def test_unreadable_numbers_and_nesting_exit_2(tmp_path, capsys, text):
    path = tmp_path / "h.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "invariants", str(path), "--family", "s")
    assert code == 2
    assert out == ""
    assert err.startswith("dfalg: error:")


def test_invariants_past_the_digit_limit_exits_2(tmp_path, capsys):
    # s_3 of diag(a, a, a) with a of 2000 digits has 6000 digits, past the
    # int-to-string limit that the report keeps
    a = "9" * 2000
    path = tmp_path / "h.json"
    path.write_text('{"n": 3, "kind": "double_form", "p": 1, "q": 1, "entries": ['
                    + ", ".join('{"row": [%d], "col": [%d], "value": %s}' % (i, i, a)
                                for i in range(3)) + "]}")
    code, out, err = run_cli(capsys, "invariants", str(path), "--family", "s")
    assert code == 2
    assert out == ""
    assert err == (f"dfalg: error: an exact value has more than {sys.get_int_max_str_digits()} "
                   "digits, which the report cannot write\n")
    assert "set_int_max_str_digits" not in err


def test_invariants_bound_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text(tensor_to_json(random_bilinear(3, 7)))
    code, _, err = run_cli(capsys, "invariants", str(path), "--family", "s",
                           "--k", "9")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("family,orders", [("T", [1, 2]), ("N", [1])])
def test_invariants_T_and_N_start_at_order_1(capsys, family, orders):
    # like every other order out of range, k = 0 exits 2; `--k all` starts at 1
    path = Path(__file__).resolve().parent.parent / "fixtures" / "bianchi_n5.json"
    for k in ("0", "5"):
        code, out, err = run_cli(capsys, "invariants", str(path), "--family", family,
                                 "--k", k)
        assert code == 2 and out == "" and err.startswith("dfalg: error:")
    code, out, _ = run_cli(capsys, "invariants", str(path), "--family", family)
    assert code == 0
    assert [row["k"] for row in json.loads(out)["invariants"]] == orders


@pytest.mark.parametrize("form,family", [
    (random_bilinear(2, 3), "T"), (random_bilinear(2, 3), "N"),
    (DoubleForm.zeros(0, 2, 2), "t")], ids=["T-n2", "N-n2", "t-n0"])
def test_invariants_of_a_family_with_no_order_check_the_bidegree(tmp_path, capsys,
                                                                  form, family):
    # the family has no order at this n, and `--k all` still refuses the file
    path = tmp_path / "w.json"
    path.write_text(tensor_to_json(form))
    p = FAMILIES[family][1]
    for k in ("all", "1"):
        code, out, err = run_cli(capsys, "invariants", str(path), "--family", family,
                                 "--k", k)
        assert code == 2 and out == ""
        assert err == (f"dfalg: error: expected a ({p}, {p}) form, "
                       f"got bidegree {form.bidegree}\n")


def test_invariants_cofactor_past_n_minus_pq_needs_a_symmetric_form(tmp_path, capsys):
    # past r = n - pq only the contraction series is defined, and it assumes
    # a symmetric form: hrpq refuses a general form as srq does
    path = tmp_path / "h.json"
    path.write_text(tensor_to_json(random_bilinear(4, 11)))
    for family in ("hrpq", "srq"):
        code, out, err = run_cli(capsys, "invariants", str(path), "--family", family,
                                 "--r", "3", "--q", "2")
        assert code == 2 and out == ""
        assert err.startswith("dfalg: error:") and err.count("\n") == 1
        assert "symmetric form" in err


def test_invariants_cofactor_order_past_n_exits_2(capsys):
    path = Path(__file__).resolve().parent.parent / "fixtures" / "bianchi_n5.json"
    for r in ("6", "9"):
        code, out, err = run_cli(capsys, "invariants", str(path), "--family", "hrpq",
                                 "--r", r, "--q", "1")
        assert code == 2 and out == ""
        assert err.startswith("dfalg: error:") and err.count("\n") == 1
        assert "out of range" in err


def test_invariants_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "invariants", "/nonexistent.json",
                           "--family", "s")
    assert code == 2


# Small files whose invariants are not: a 30 x 30 diagonal (1, 1) file has
# 900 entries, but s_15 builds h^15 with C(30, 15)^2 ~ 2.4e16 entries; the
# (2, 2) file's chains of R reach degrees 14 and 16 the same way.
OVER_BUDGET = [
    ((1, 1), ["--family", "s", "--k", "15"]),
    ((1, 1), ["--family", "t", "--k", "15"]),
    ((1, 1), ["--family", "srq", "--r", "1", "--q", "15"]),
    ((2, 2), ["--family", "h2k", "--k", "8"]),
    ((2, 2), ["--family", "T", "--k", "7"]),
    ((2, 2), ["--family", "N", "--k", "7"]),
    ((2, 2), ["--family", "hrpq", "--r", "0", "--q", "8"]),
]


@pytest.mark.parametrize("degree,args", OVER_BUDGET)
def test_invariants_refuses_work_past_the_dense_limit(tmp_path, capsys, monkeypatch,
                                                       degree, args):
    from dfalg import invariants

    def started(*args):
        raise AssertionError("a refused computation was started")

    for name in ("metric_wedge_power", "wedge_power", "wedge", "hodge", "contract_iter"):
        monkeypatch.setattr(invariants, name, started)
    p = degree[0]
    rows = [list(range(i, i + p)) for i in range(0, 30 - p + 1, p)]
    doc = {"n": 30, "kind": "double_form", "p": p, "q": p, "scalar": "rational",
           "entries": [{"row": I, "col": I, "value": str(i + 1)}
                       for i, I in enumerate(rows)]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "invariants", str(path), *args)
    assert code == 2 and out == ""
    assert err.startswith("dfalg: error:") and "dense entries" in err
    assert "Traceback" not in err


FIXTURE_INVARIANTS = [
    ("skew_n4.json", ["--family", "s"]),
    ("skew_n4.json", ["--family", "t"]),
    ("skew_n4.json", ["--family", "srq", "--r", "1", "--q", "2"]),
    ("bianchi_n5.json", ["--family", "h2k"]),
    ("bianchi_n5.json", ["--family", "T"]),
    ("bianchi_n5.json", ["--family", "N"]),
    ("bianchi_n5.json", ["--family", "hrpq", "--r", "1", "--q", "2"]),
    ("constant_curvature_n4.json", ["--family", "h2k"]),
    ("constant_curvature_n4.json", ["--family", "T"]),
    ("constant_curvature_n4.json", ["--family", "N"]),
    ("constant_curvature_n4.json", ["--family", "hrpq", "--r", "3", "--q", "2"]),
]


@pytest.mark.parametrize("name,args", FIXTURE_INVARIANTS)
def test_invariants_of_every_fixture_file_run(capsys, name, args):
    path = Path(__file__).resolve().parent.parent / "fixtures" / name
    code, out, _ = run_cli(capsys, "invariants", str(path), *args)
    assert code == 0
    assert json.loads(out)["invariants"]


OVERSIZED_HEADERS = [
    # C(20, 10)^2 = 3.4e10 dense entries, about 273 GB of float64
    '{"n": 20, "kind": "double_form", "p": 10, "q": 10, "entries": []}',
    '{"n": 40, "kind": "form", "k": 20, "entries": []}',
    '{"n": 12, "kind": "multiform", "k": 4, "r": 3, "entries": []}',
    '{"n": 3, "kind": "multiform", "k": 0, "r": 1000000000000, "entries": []}',
    '{"n": 1000000000, "kind": "form", "k": 500000000, "entries": []}',
]


@pytest.mark.parametrize("command", ["invariants", "pfaffian"])
def test_tensor_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "h.json"
    path.write_bytes(b"\xff\xfe{")
    extra = ["--family", "s"] if command == "invariants" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2 and out == ""
    assert err.startswith(f"dfalg: error: {path}: ")


@pytest.mark.parametrize("command", ["invariants", "pfaffian"])
@pytest.mark.parametrize("header", OVERSIZED_HEADERS)
def test_oversized_tensor_header_exits_2(tmp_path, capsys, command, header):
    with pytest.raises(TensorFormatError):
        tensor_from_json(header)
    path = tmp_path / "big.json"
    path.write_text(header)
    extra = ["--family", "s"] if command == "invariants" else []
    code, out, err = run_cli(capsys, command, str(path), *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("dfalg: error:")


# -- verify ------------------------------------------------------------------------

def test_verify_small_run_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-range", "2:3", "--seeds", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["failures"] == 0
    assert rep["summary"]["checks"] == len(rep["identities"]) > 0
    assert all(r["passed"] for r in rep["identities"])


def test_verify_only_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-range", "3:3",
                           "--only", "cayley_hamilton")
    assert code == 0
    rep = json.loads(out)
    assert rep["identities"]
    assert {r["name"] for r in rep["identities"]} == {"cayley_hamilton"}


def test_verify_unknown_identity_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nope")
    assert code == 2


def test_verify_float_mode_reports_residual(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-range", "3:3",
                             "--mode", "float", "--seeds", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["meta"]["mode"] == "float"
    assert rep["summary"]["max_relative_residual"] <= 1e-9
    assert "max relative residual" in err


def test_verify_report_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--n-range", "2:2", "--seeds", "4")
    _, out2, _ = run_cli(capsys, "verify", "--n-range", "2:2", "--seeds", "4")
    assert out1 == out2


def test_verify_env_mode(monkeypatch, capsys):
    monkeypatch.setenv("DFA_MODE", "float")
    code, out, _ = run_cli(capsys, "verify", "--n-range", "2:2", "--seeds", "1")
    assert code == 0
    assert json.loads(out)["meta"]["mode"] == "float"


def test_verify_bad_range_exits_2(capsys):
    assert run_cli(capsys, "verify", "--n-range", "six")[0] == 2
    assert run_cli(capsys, "verify", "--n-range", "4:2")[0] == 2
    assert run_cli(capsys, "verify", "--n-range", "2:3", "--seeds", "a,b")[0] == 2
    # past the n = 11 frontier no suite fixture is built
    code, out, err = run_cli(capsys, "verify", "--n-range", "2:40")
    assert code == 2 and out == "" and err.startswith("dfalg: error:")
    assert run_cli(capsys, "verify", "--n-range", "12")[0] == 2


def run_module(*argv):
    """python -m dfalg from a checkout, with only its src/ on the path."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, "-m", "dfalg", *argv], cwd=root, env=env,
                          capture_output=True, timeout=120)


def test_python_m_dfalg_runs_the_cli(capsys):
    proc = run_module("verify", "--n-range", "2:3")
    code, out, _ = run_cli(capsys, "verify", "--n-range", "2:3")
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()
    bad = run_module("verify", "--n-range", "4:2")
    assert bad.returncode == 2 and bad.stdout == b""
    assert bad.stderr.startswith(b"dfalg: error:")


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, as under `dfalg verify | head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("failing", [False, True])
def test_report_into_a_closed_pipe_keeps_the_exit_code(monkeypatch, failing):
    from dfalg import cli as cli_mod
    from dfalg.identities import IdentityResidual

    if failing:
        monkeypatch.setattr(cli_mod, "run_suite",
                            lambda fixture_sets, only=None, processes=1: [
            IdentityResidual("cayley_hamilton", {"n": 3}, 1, False, "t_n(h) = 0")])
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["verify", "--n-range", "2:3", "--seeds", "1"]) == (1 if failing else 0)
    # later writes, and the flush at exit, go to the null device
    assert sys.stdout.name == os.devnull
    print("dropped")
    sys.stdout.close()


def test_python_m_dfalg_into_a_closed_pipe_leaves_no_traceback():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "dfalg", "verify", "--n-range", "2:3",
                             "--seeds", "1"], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == b""


def test_verify_bogus_env_mode_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("DFA_MODE", "bogus")
    for argv in (("verify", "--n-range", "2:2"), ("generate", "--kind", "symmetric",
                                                  "--n", "3")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("dfalg: error: DFA_MODE")


def test_verify_empty_seed_list_exits_2(capsys):
    for seeds in ("", ","):
        code, out, err = run_cli(capsys, "verify", "--n-range", "2:2", "--seeds", seeds)
        assert code == 2
        assert out == ""
        assert err.startswith("dfalg: error:")


def test_verify_repeated_seed_exits_2(capsys):
    # a repeated seed would report every check of its fixtures twice
    for seeds in ("1,1", "1,2,01"):
        code, out, err = run_cli(capsys, "verify", "--n-range", "2:2", "--seeds", seeds)
        assert code == 2
        assert out == ""
        assert err.startswith("dfalg: error:")


# sha256 of the stdout of `dfalg verify --n-range 2:5 --seeds 1 --mode exact`
# (1375 checks).  It guards refactors that must leave every number alone.
VERIFY_2_5_SHA256 = "59a2a243da368d2a4b902b1687a19c34169be484f3bce4b3fc6dc0409ac046c6"


def test_verify_exact_report_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-range", "2:5", "--seeds", "1",
                           "--mode", "exact")
    assert code == 0
    assert json.loads(out)["summary"]["checks"] == 1375
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_2_5_SHA256, (
        "the exact verify report changed; if the change to the report is "
        "intended, update VERIFY_2_5_SHA256 and say so in CHANGES.md")


# sha256 of the stdout of `dfalg verify --n-range 2:5 --seeds 1 --mode float`
# (1375 checks).  It guards the float storage the same way.
VERIFY_2_5_FLOAT_SHA256 = "7d06f8f3518bd89e7ecfc61dee292715ec13e1eb2cf7107f116a02ddd4e70026"


def test_verify_float_report_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-range", "2:5", "--seeds", "1",
                           "--mode", "float")
    assert code == 0
    assert json.loads(out)["summary"]["checks"] == 1375
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_2_5_FLOAT_SHA256, (
        "the float verify report changed; if the change to the report is "
        "intended, update VERIFY_2_5_FLOAT_SHA256 and say so in CHANGES.md")


# sha256 of the stdout of `dfalg verify --n-range 8:8 --seeds 1 --mode exact`
# (1513 checks): n = 8 is the first dimension where general_avez and
# laplace_pp reach q = 2.
VERIFY_8_SHA256 = "65e2c26842c4a4e39ca9a9ba1749e288accdd9c6fc279ea81f1d2ab9a6f79d15"


def test_verify_n8_report_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-range", "8:8", "--seeds", "1",
                           "--mode", "exact")
    assert code == 0
    assert json.loads(out)["summary"]["checks"] == 1513
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_8_SHA256, (
        "the n = 8 exact verify report changed; if the change to the report is "
        "intended, update VERIFY_8_SHA256 and say so in CHANGES.md")


# sha256 of the stdout of `dfalg verify --n-range 8:8 --seeds 1 --mode float`.
# Five of its residuals are nonzero, where the 2:5 and 6:7 float reports
# have at most one, so it pins the float summation order.  Its exit code is
# 1: three of the nonzero residuals are known false failures of identities
# that exact mode proves (ROADMAP item 2), cofactor_vanishing_22 with
# (r, i) = (5, 0) and (6, 0) on degenerate_product and (7, 0) on
# random_bianchi.  Only the bytes are pinned.
VERIFY_8_FLOAT_SHA256 = "209db36e698ddb27a84e3445234bad07cd982bafb0981822a82741b818a35b8a"


def test_verify_n8_float_report_is_pinned(capsys):
    _, out, _ = run_cli(capsys, "verify", "--n-range", "8:8", "--seeds", "1",
                        "--mode", "float")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_8_FLOAT_SHA256, (
        "the n = 8 float verify report changed; if the change to the report is "
        "intended, update VERIFY_8_FLOAT_SHA256 and say so in CHANGES.md")


# sha256 of the stdout of `dfalg verify --n-range 9:9 --seeds 1 --mode exact`
# (1934 checks): n = 9 is where the fixtures' memos share the most powers,
# contractions and cofactors.
VERIFY_9_SHA256 = "d38c8e35028f1e923becfdecf748d1a069d214aec807d1699887fea4b7174e2e"


def test_verify_n9_report_is_pinned(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-range", "9:9", "--seeds", "1",
                           "--mode", "exact")
    assert code == 0
    assert json.loads(out)["summary"]["checks"] == 1934
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_9_SHA256, (
        "the n = 9 exact verify report changed; if the change to the report is "
        "intended, update VERIFY_9_SHA256 and say so in CHANGES.md")


# sha256 of the stdout of `dfalg verify --n-range 6:7 --seeds 1 --mode M`
# (1998 checks): n = 6 and 7 are the first dimensions with (3, 3) Bianchi
# fixtures, which the 2:5 pins do not reach.
VERIFY_6_7_SHA256 = {
    "exact": "00f3c62ed80a3b2359cc902b190f98997367c09389cd46b83d217edc5fe4a84c",
    "float": "15d510d723cba4c00d445b4a3a945012b16a731f2154889302c1a4e0de1f92dc",
}


@pytest.mark.parametrize("mode", sorted(VERIFY_6_7_SHA256))
def test_verify_6_7_report_is_pinned(capsys, mode):
    code, out, _ = run_cli(capsys, "verify", "--n-range", "6:7", "--seeds", "1",
                           "--mode", mode)
    assert code == 0
    assert json.loads(out)["summary"]["checks"] == 1998
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_6_7_SHA256[mode], (
        f"the {mode} n = 6..7 verify report changed; if the change to the report "
        "is intended, update VERIFY_6_7_SHA256 and say so in CHANGES.md")


# sha256 of the stdout of `dfalg pfaffian <fixture> [--r R]`.  verify never
# reaches the exterior layer, so these guard its wedge and star.
PFAFFIAN_SHA256 = {
    ("skew_n4.json",): "166b5ef94cf6b4b3df07d5d4a07ba950fa42db7d89504a17dd7fc0ef0f37bf63",
    ("four_form_n4.json",): "76ae74ea924ce97b889ac955c974899370f77356168c879e640180f54f64ed31",
    ("six_form_n6.json",): "9d236a80084291308f0564b75ae19053e39744458f5882e9adf525f487173a5d",
    ("six_form_n6.json", "--r", "3"):
        "55371f1bc508d507526264e726e4af83e84f25de795b0be81d2d74f8726ed6b0",
}


@pytest.mark.parametrize("args", sorted(PFAFFIAN_SHA256))
def test_pfaffian_fixture_reports_are_pinned(capsys, args):
    path = Path(__file__).resolve().parent.parent / "fixtures" / args[0]
    code, out, _ = run_cli(capsys, "pfaffian", str(path), *args[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PFAFFIAN_SHA256[args], (
        "the pfaffian report changed; if the change to the report is "
        "intended, update PFAFFIAN_SHA256 and say so in CHANGES.md")


# sha256 over `dfalg generate` for every kind, both scalar fields, n in
# {0, 1, 4, 7}, seeds 0 and 2^64 - 1, and --k in {0, 2, n} for forms: each
# run feeds its argv, its exit code and its stdout.  verify reads only some
# of the fixtures, so this guards the generators' draw order and lanes.
GENERATE_SHA256 = "3a10021d9407f67f2e341f92cec1190921239aad018a7e04b66651486a748229"


def _generate_argvs():
    for kind in ("general", "symmetric", "skew", "bianchi", "constant_curvature", "form"):
        for field in scalars.FIELDS:
            for n in (0, 1, 4, 7):
                for seed in (0, 2 ** 64 - 1):
                    argv = ["generate", "--kind", kind, "--n", str(n), "--seed", str(seed),
                            "--scalar", field]
                    if kind == "form":
                        yield from (argv + ["--k", str(k)] for k in (0, 2, n))
                    else:
                        yield argv


def test_generate_reports_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _generate_argvs():
        code, out, _ = run_cli(capsys, *argv)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == GENERATE_SHA256, (
        "a generated fixture changed; if the change is intended, update "
        "GENERATE_SHA256 and say so in CHANGES.md")


# sha256 over `dfalg invariants` on each double-form file of fixtures/: every
# ordered family of the file's bidegree with --k all, one srq call on the
# (1, 1) file and one hrpq call on each file.  Each run feeds its argv (with
# the file's name, not its path) and its stdout.
INVARIANTS_SHA256 = "d0dafb3464a13402feb2fa823824bea021e03d4c650af315e092c7779ae29f0c"
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _invariants_argvs():
    for path in sorted(FIXTURES.glob("*.json")):
        doc, name = json.loads(path.read_text()), path.name
        if doc["kind"] != "double_form":
            continue
        p = doc["p"]
        for family, (_, family_p, _) in FAMILIES.items():
            if family_p == p:
                yield [name, "--family", family, "--k", "all"]
        if p == 1:
            yield [name, "--family", "srq", "--r", "1", "--q", "2"]
        yield [name, "--family", "hrpq", "--r", "1", "--q", "2"]


def test_invariants_reports_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _invariants_argvs():
        code, out, _ = run_cli(capsys, "invariants", str(FIXTURES / argv[0]), *argv[1:])
        assert code == 0, argv
        digest.update(f"{' '.join(argv)}\n{out}".encode())
    assert digest.hexdigest() == INVARIANTS_SHA256, (
        "an invariants report changed; if the change is intended, update "
        "INVARIANTS_SHA256 and say so in CHANGES.md")


def test_verify_exit_one_on_asserted_failure(monkeypatch, capsys):
    # the theorems cannot fail, so force a nonzero asserted residual to pin
    # down the exit-code contract
    from dfalg import cli as cli_mod
    from dfalg.identities import IdentityResidual

    def fake_suite(fixture_sets, only=None, processes=1):
        return [
            IdentityResidual("cayley_hamilton", {"n": 2}, 0, True, "t_n(h) = 0"),
            IdentityResidual("cayley_hamilton", {"n": 3}, 1, False, "t_n(h) = 0"),
        ]

    monkeypatch.setattr(cli_mod, "run_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify", "--n-range", "2:2")
    assert code == 1
    rep = json.loads(out)
    assert rep["summary"]["failures"] == 1


def test_float_mode_cli_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "generate", "--kind", "skew", "--n", "4",
                           "--seed", "21", "--scalar", "float64")
    assert code == 0
    doc = json.loads(out)
    assert doc["scalar"] == "float64"
    path = tmp_path / "skewf.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "pfaffian", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["meta"]["mode"] == "float"
    assert rep["identities"][0]["passed"]


# -- pfaffian ----------------------------------------------------------------------

def test_pfaffian_skew_report(tmp_path, capsys):
    h = random_bilinear(4, 11, "skew")
    path = tmp_path / "skew.json"
    path.write_text(tensor_to_json(h))
    code, out, _ = run_cli(capsys, "pfaffian", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["identities"][0]["name"] == "pf_squared_det"
    assert rep["identities"][0]["passed"]


def test_pfaffian_four_form_conjecture(tmp_path, capsys):
    f = random_form(4, 4, 12)
    path = tmp_path / "f4.json"
    path.write_text(tensor_to_json(f))
    code, out, _ = run_cli(capsys, "pfaffian", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["conjectures"] and rep["conjectures"][0]["name"] == "pf_squared_hn"
    code2, out2, _ = run_cli(capsys, "pfaffian", str(path))
    assert out2 == out


@pytest.mark.parametrize("field", (scalars.RATIONAL, scalars.FLOAT64))
@pytest.mark.parametrize("k,r", [(1, 3), (2, 4)])
def test_pfaffian_of_an_n_0_multiform_file_is_the_empty_product(tmp_path, capsys,
                                                                 field, k, r):
    # hyperdet at n = 0 is *(w^0/0!), the empty product 1, as Pf is for an
    # n = 0 form file
    values = []
    for name, obj in (("m0.json", MultiForm.zeros(0, k, r, field)),
                      ("f0.json", ExteriorForm.zeros(0, 2, field))):
        path = tmp_path / name
        path.write_text(tensor_to_json(obj))
        code, out, err = run_cli(capsys, "pfaffian", str(path))
        assert code == 0 and err == ""
        values.append(json.loads(out)["invariants"][0])
    assert values == [{"family": "hyperdet", "value": values[1]["value"]},
                      {"family": "pf", "value": "1" if field == scalars.RATIONAL else 1.0}]


def test_pfaffian_divisibility_error(tmp_path, capsys):
    f = random_form(5, 2, 13)
    path = tmp_path / "f.json"
    path.write_text(tensor_to_json(f))
    code, _, err = run_cli(capsys, "pfaffian", str(path))
    assert code == 2 and "error" in err


def test_pfaffian_rejects_non_skew_double_form(tmp_path, capsys):
    path = tmp_path / "sym.json"
    path.write_text(tensor_to_json(random_bilinear(4, 14, "symmetric")))
    code, _, err = run_cli(capsys, "pfaffian", str(path))
    assert code == 2


def test_pfaffian_refuses_work_past_the_dense_limit(tmp_path, capsys, monkeypatch):
    # each file is small, but its wedge chain is not: C(5, 2)^8 = 10^8 entries
    # for the multiform, C(40, 20) ~ 1.4e11 for the 2-form and the skew form
    from dfalg import pfaffian

    def started(*args):
        raise AssertionError("a refused computation was started")

    for name in ("wedge_form_power", "wedge_multi_power", "wedge_power"):
        monkeypatch.setattr(pfaffian, name, started)
    docs = {
        "multiform": {"n": 5, "kind": "multiform", "k": 1, "r": 8, "entries": []},
        "form": tensor_to_doc(random_form(40, 2, 3)),
        "skew": tensor_to_doc(random_bilinear(40, 4, "skew")),
    }
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "pfaffian", str(path))
        assert code == 2 and out == "", name
        assert err.startswith("dfalg: error:") and "dense entries" in err, name
        assert "Traceback" not in err


def test_pfaffian_of_a_14x14_skew_file_runs_unstubbed(tmp_path, capsys):
    # pf's chain reaches C(14, 7) entries; the determinant is one
    # elimination, not the wedge chain h, ..., h^14
    from dfalg import oracle

    h = random_bilinear(14, 3, "skew")
    path = tmp_path / "skew14.json"
    path.write_text(tensor_to_json(h))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "pfaffian", str(path))
    assert time.perf_counter() - start < 10
    assert code == 0, err
    rep = json.loads(out)
    values = {v["family"]: v["value"] for v in rep["invariants"]}
    det = oracle.det_oracle(h.mat)
    assert det != 0 and values["det"] == str(det)
    assert int(values["pf"]) ** 2 == det
    assert rep["identities"][0]["passed"]


@pytest.mark.parametrize("name,args", [("skew_n4.json", ()), ("four_form_n4.json", ()),
                                       ("six_form_n6.json", ("--r", "3"))])
def test_pfaffian_builds_one_pf_chain(capsys, monkeypatch, name, args):
    from dfalg import pfaffian

    calls = []

    def counted(*call):
        calls.append(call)
        return real(*call)

    real = pfaffian.wedge_form_power
    monkeypatch.setattr(pfaffian, "wedge_form_power", counted)
    path = Path(__file__).resolve().parent.parent / "fixtures" / name
    code, _, _ = run_cli(capsys, "pfaffian", str(path), *args)
    assert code == 0
    assert len(calls) == 1


# a float skew (1, 1) file with entries +-1e200: Pf and det overflow a float
OVERFLOWING_SKEW = {
    "n": 4, "kind": "double_form", "p": 1, "q": 1, "scalar": "float64",
    "entries": [{"row": [i], "col": [j], "value": (-1) ** (i + j + (i > j)) * 1e200}
                for i in range(4) for j in range(4) if i != j],
}


@pytest.mark.parametrize("argv", [("pfaffian",), ("invariants", "--family", "s")])
def test_float_overflow_exits_2_with_no_report(tmp_path, capsys, argv):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(OVERFLOWING_SKEW))
    command, *rest = argv
    code, out, err = run_cli(capsys, command, str(path), *rest)
    assert code == 2 and out == ""
    assert err.startswith("dfalg: error:") and err.count("\n") == 1
    proc = run_module(command, str(path), *rest)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"dfalg: error:") and proc.stderr.count(b"\n") == 1
    assert b"Traceback" not in proc.stderr


# Pf overflows in its power, not in Pf itself: n = 4 gives Pf = -1e200 and
# lhs Pf^2 = inf, a 6-form with --r 3 lhs Pf^3 = 1e600
@pytest.mark.parametrize("n,value,rest", [(4, -1e200, ()), (6, 1e200, ("--r", "3"))])
def test_overflowing_conjecture_exits_2_with_no_report(tmp_path, capsys, n, value, rest):
    doc = {"n": n, "kind": "form", "k": n, "scalar": "float64",
           "entries": [{"row": list(range(n)), "value": value}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "pfaffian", str(path), *rest)
    assert code == 2 and out == ""
    assert err.startswith("dfalg: error:") and "not finite" in err


# one-entry float files whose dense form fits the tensor budget but whose
# pf or embedding does not: the refusal must come before any large build
@pytest.mark.parametrize("n,k,limit_mb,message", [
    (22, 11, 50, "the Pfaffian needs a nonzero even degree, got 11"),
    (24, 12, 100, "dense entries"),
])
def test_one_entry_pfaffian_file_is_refused_small(tmp_path, capsys, n, k, limit_mb,
                                                  message):
    doc = {"n": n, "kind": "form", "k": k, "scalar": "float64",
           "entries": [{"row": list(range(k)), "value": 1.5}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, peak = traced_peak(main, ["pfaffian", str(path)])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and message in out.err
    assert peak < limit_mb * 2 ** 20, peak


def test_dense_30x30_s_3_exits_cleanly(tmp_path, capsys):
    # C(30, 3)^2 ~ 1.65e7 entries for h^3, next to the dense limit; run in a
    # child process, so that its arrays and caches leave with it
    code, out, _ = run_cli(capsys, "generate", "--kind", "general", "--n", "30",
                           "--seed", "5")
    assert code == 0
    path = tmp_path / "dense30.json"
    path.write_text(out)
    proc = run_module("invariants", str(path), "--family", "s", "--k", "3")
    assert proc.returncode in (0, 2)
    assert b"Traceback" not in proc.stderr
    if proc.returncode == 2:
        assert proc.stdout == b"" and proc.stderr.startswith(b"dfalg: error:")
        return
    # s_3 is the sum of the principal 3 x 3 minors
    h = tensor_from_json(out)
    m = [[int(h.mat[i, j]) for j in range(30)] for i in range(30)]
    s3 = sum(m[a][a] * (m[b][b] * m[c][c] - m[b][c] * m[c][b])
             - m[a][b] * (m[b][a] * m[c][c] - m[b][c] * m[c][a])
             + m[a][c] * (m[b][a] * m[c][b] - m[b][b] * m[c][a])
             for a in range(30) for b in range(a + 1, 30) for c in range(b + 1, 30))
    assert json.loads(proc.stdout)["invariants"] == [{"family": "s", "k": 3,
                                                      "value": str(s3)}]


# -- report schema ------------------------------------------------------------------

def test_reports_validate_against_published_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).resolve().parent.parent / "docs"
         / "report.schema.json").read_text())
    _, out, _ = run_cli(capsys, "verify", "--n-range", "2:3", "--seeds", "1")
    jsonschema.validate(json.loads(out), schema)
    h = random_bilinear(4, 11, "skew")
    path = tmp_path / "skew.json"
    path.write_text(tensor_to_json(h))
    _, out, _ = run_cli(capsys, "pfaffian", str(path))
    jsonschema.validate(json.loads(out), schema)
    path2 = tmp_path / "g.json"
    from dfalg.dform import metric

    path2.write_text(tensor_to_json(metric(3)))
    _, out, _ = run_cli(capsys, "invariants", str(path2), "--family", "s")
    jsonschema.validate(json.loads(out), schema)
    # a conjecture record is never asserted: an asserted one is an identity
    path3 = tmp_path / "f4.json"
    path3.write_text(tensor_to_json(random_form(4, 4, 12)))
    _, out, _ = run_cli(capsys, "pfaffian", str(path3))
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    assert [rec["asserted"] for rec in doc["conjectures"]] == [False]
    doc["conjectures"][0]["asserted"] = True
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, schema)


def test_generate_invariants_verify_round_trip(tmp_path, capsys):
    # the shipped-fixture workflow: generate -> invariants -> verify, exit 0
    code, out, _ = run_cli(capsys, "generate", "--kind", "constant_curvature",
                           "--n", "4")
    assert code == 0
    path = tmp_path / "cc.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "invariants", str(path), "--family", "h2k")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "--n-range", "2:3", "--seeds", "1,2")
    assert code == 0
