"""Property test of the CLI contract over argv: every command line of the
four subcommands, small or hostile, ends in exit 0 or 1 with one strict
JSON document on stdout, written as json.dumps(doc, indent=2) writes it,
or in exit 2 with nothing on stdout, and never with a traceback, a
leftover child process, a run past its deadline or a large allocation.
Each work budget is held to this by one explicit over-budget request."""

import contextlib
import io
import json
import os
import signal
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_dform, traced_peak
from dfalg import scalars
from dfalg.cli import main
from dfalg.fixtures import random_bianchi, random_bilinear
from dfalg.identities import ALL_IDENTITY_NAMES
from dfalg.tensorio import tensor_from_doc, tensor_to_doc, tensor_to_json

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())

# An example that runs past DEADLINE fails (hypothesis); one that runs past
# HARD_LIMIT_S is stopped, so a request with no bound fails instead of
# hanging.  The largest healthy example takes well under a second.
DEADLINE = timedelta(seconds=4)
HARD_LIMIT_S = 8
# the most memory an example may hold at once; the largest healthy
# example holds a few MiB
PEAK_LIMIT = 32 << 20


def mostly(good, bad):
    """Draws from good seven times in eight, else from bad."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


def _diagonal_doc(n, p):
    rows = [list(range(i, i + p)) for i in range(0, n - p + 1, p)]
    return json.dumps({"n": n, "kind": "double_form", "p": p, "q": p, "scalar": "rational",
                       "entries": [{"row": I, "col": I, "value": str(i + 1)}
                                   for i, I in enumerate(rows)]})


# file name -> its contents; "@name" in argv stands for the file's path
FILE_TEXTS = {
    "general_n4": lambda: tensor_to_json(random_bilinear(4, 11)),
    "symmetric_n3_float": lambda: tensor_to_json(
        random_bilinear(3, 12, "symmetric", scalars.FLOAT64)),
    "general22_n4": lambda: tensor_to_json(random_dform(4, 2, 2, seed=13)),
    "bianchi33_n6": lambda: tensor_to_json(random_bianchi(6, 3, 1, seed=14)),
    "skew_n4_huge_float": lambda: tensor_to_json(
        random_bilinear(4, 15, "skew", scalars.FLOAT64) * 1e200),
    "malformed": lambda: '{"n": 3, "kind": "double_form"',
    "not_utf8": lambda: b'{"n": 3, "kind": "\xff"}',
    # over-budget files, which only the explicit examples name: C(20, 10)^2
    # dense entries; 900 entries whose invariants are not small; a 2-form
    # at n = 40 whose Pfaffian chain needs C(40, 20) entries
    "header_huge": lambda: '{"n": 20, "kind": "double_form", "p": 10, "q": 10, '
                           '"entries": []}',
    "diagonal11_n30": lambda: _diagonal_doc(30, 1),
    "diagonal22_n30": lambda: _diagonal_doc(30, 2),
    "form2_n40": lambda: json.dumps({"n": 40, "kind": "form", "k": 2, "entries": [
        {"row": [2 * i, 2 * i + 1], "value": "1"} for i in range(20)]}),
}
FIXTURE_FILES = ["bianchi_n5", "constant_curvature_n4", "four_form_n4", "six_form_n6",
                 "skew_n4"]
# the files the drawn examples name: a readable file -> the invariant
# families that fit it; pfaffian reads the skew files and the forms
READABLE_FILES = {
    "@general_n4": ["s", "t", "srq", "hrpq"],
    "@symmetric_n3_float": ["s", "t", "srq", "hrpq"],
    "@skew_n4": ["s", "t", "srq", "hrpq"],
    "@skew_n4_huge_float": ["s", "t", "srq", "hrpq"],
    "@bianchi_n5": ["h2k", "T", "N", "hrpq"],
    "@constant_curvature_n4": ["h2k", "T", "N", "hrpq"],
    "@general22_n4": ["h2k", "T", "N", "hrpq"],
    "@bianchi33_n6": ["hrpq"],
    "@four_form_n4": [],
    "@six_form_n6": [],
}
PFAFFIAN_FILES = ["@skew_n4", "@skew_n4_huge_float", "@four_form_n4", "@six_form_n6"]
UNREADABLE_FILES = ["@malformed", "@not_utf8", "@missing"]
FILES = mostly(st.sampled_from(list(READABLE_FILES)), st.sampled_from(UNREADABLE_FILES))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each "@name" of argv -> the path of that file."""
    tmp = tmp_path_factory.mktemp("argv")
    out = {"@" + name: str(ROOT / "fixtures" / f"{name}.json") for name in FIXTURE_FILES}
    for name, text in FILE_TEXTS.items():
        data = text()
        (tmp / name).write_bytes(data if isinstance(data, bytes) else data.encode())
        out["@" + name] = str(tmp / name)
    out["@missing"] = str(tmp / "missing.json")
    return out


def _options(draw, options):
    """argv for each (flag, values) pair; a flag whose drawn value is None
    is left out."""
    argv = []
    for flag, values in options:
        value = draw(values)
        if value is not None:
            argv += [flag, str(value)]
    return argv


@st.composite
def generate_argv(draw):
    kind = draw(mostly(st.sampled_from(["general", "symmetric", "skew", "bianchi",
                                        "constant_curvature", "form"]),
                       st.sampled_from(["triple", ""])))
    n = draw(mostly(st.integers(0, 6), st.sampled_from([-1, 7, 8, 65])))
    return ["generate", "--kind", kind, "--n", str(n)] + _options(draw, [
        ("--p", mostly(st.none() | st.integers(1, 3), st.sampled_from([-1, 0, 4]))),
        ("--k", mostly(st.none() | st.integers(0, n + 1), st.sampled_from([-1, 9]))),
        ("--terms", mostly(st.none() | st.integers(1, 3), st.sampled_from([-1, 0]))),
        ("--seed", mostly(st.none() | st.integers(0, 5),
                          st.sampled_from([-1, 2 ** 64 - 1, 2 ** 64, "x"]))),
        ("--kappa", mostly(st.none() | st.sampled_from(["1", "-3/2", "0", "2e3", "1e400"]),
                           st.sampled_from(["1/0", "x", "inf", "nan", "1e99999"]))),
        ("--scalar", mostly(st.none() | st.sampled_from(scalars.FIELDS),
                            st.just("complex")))])


ORDERED = ["s", "t", "h2k", "T", "N"]


@st.composite
def invariants_argv(draw):
    path = draw(FILES)
    families = [*ORDERED, "srq", "hrpq"]
    family = draw(mostly(st.sampled_from(READABLE_FILES.get(path) or families),
                         st.sampled_from([*families, "u"])))
    order = mostly(st.integers(0, 8), st.sampled_from([-1, "x", None]))
    if family in ORDERED:
        # --k all is the default
        options = [("--k", mostly(st.none() | st.integers(0, 6),
                                  st.sampled_from(["x", "", -1])))]
    else:
        # r up to n + 2 for every small file
        options = [("--r", order), ("--q", order)]
    return ["invariants", path, "--family", family] + _options(draw, options)


@st.composite
def verify_argv(draw):
    n_range = draw(mostly(st.sampled_from(["2", "3", "2:3", "3:4"]),
                          st.sampled_from(["4:3", "1:3", "0", "2:x", "", ":", "-3:2",
                                           "12:12", "2:99"])))
    return ["verify", "--n-range", n_range] + _options(draw, [
        ("--seeds", mostly(st.sampled_from([None, "1", "1,2", "2"]),
                           st.sampled_from(["2,2", "", ",", "-1", "x", str(2 ** 64),
                                            str(2 ** 64 - 1)]))),
        ("--mode", mostly(st.sampled_from([None, "exact", "float"]), st.just("proof"))),
        ("--only", mostly(st.none() | st.sampled_from(ALL_IDENTITY_NAMES),
                          st.just("nope")))])


@st.composite
def pfaffian_argv(draw):
    path = draw(mostly(st.sampled_from(PFAFFIAN_FILES), FILES))
    return ["pfaffian", path] + _options(draw, [
        ("--r", mostly(st.none() | st.integers(1, 3), st.sampled_from([-1, 0, 4])))])


STRAY_ARGV = st.lists(st.sampled_from(["generate", "invariants", "pfaffian", "--kind",
                                       "--n", "3", "-x", "--bogus", "--family", "s"]),
                      max_size=4)
ARGV = st.one_of(generate_argv(), invariants_argv(), verify_argv(), pfaffian_argv(),
                 STRAY_ARGV)


class _Overrun(BaseException):
    """Raised into an example that runs past HARD_LIMIT_S; a BaseException,
    so no handler in the CLI turns it into an exit code."""


@contextlib.contextmanager
def _hard_limit(seconds):
    def overrun(signum, frame):
        raise _Overrun(f"the example ran past {seconds} s")

    old = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _run(argv):
    """main(argv) in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a command line with exit 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _non_json_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs signal.setitimer")
@settings(max_examples=100, deadline=DEADLINE)
@given(argv=ARGV)
# one request past each work budget
@example(argv=["generate", "--kind", "bianchi", "--n", "12", "--p", "6", "--terms", "4"])
@example(argv=["generate", "--kind", "form", "--n", "40", "--k", "20"])
@example(argv=["generate", "--kind", "general", "--n", "65"])
@example(argv=["generate", "--kind", "constant_curvature", "--n", "3",
               "--kappa", "1e300000000"])
@example(argv=["invariants", "@header_huge", "--family", "s"])
@example(argv=["invariants", "@diagonal11_n30", "--family", "s", "--k", "15"])
@example(argv=["invariants", "@diagonal22_n30", "--family", "hrpq", "--r", "0", "--q", "8"])
@example(argv=["pfaffian", "@form2_n40"])
@example(argv=["verify", "--n-range", "12:12"])
def test_every_command_line_keeps_the_cli_contract(files, argv):
    argv = [files.get(arg, arg) for arg in argv]
    with _hard_limit(HARD_LIMIT_S):
        (code, out, err), peak = traced_peak(_run, argv)
    # verify forks: every child was reaped, running or exited
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "Traceback" not in err
    assert peak < PEAK_LIMIT, f"held {peak} bytes"
    if code == 2:
        assert out == ""
        return
    assert code in (0, 1)
    doc = json.loads(out, parse_constant=_non_json_constant)
    # every document is written in json.dumps' indent-2 format
    assert out == json.dumps(doc, indent=2) + "\n"
    if argv[0] == "generate":  # a tensor document, not a report
        assert tensor_to_doc(tensor_from_doc(doc)) == doc
    else:
        jsonschema.validate(doc, SCHEMA)
