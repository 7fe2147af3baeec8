"""Which dfalg functions the commands reach, traced with sys.setprofile.

Every subcommand runs in-process on small inputs: `generate` for every
kind, `invariants` for every family, `verify --n-range 2:6` in one
process, and `pfaffian` on a skew file, a 4-form, a 6-form with `--r 3`
and a multiform, plus the float and refused inputs that reach the error
paths.  Each function defined in a dfalg module other than oracle.py
(module level and class level, not nested) that none of them enters is
pinned below with its reason, so a function that loses its last caller,
or a pinned one that gains one, fails here.
"""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time
from pathlib import Path

import numpy as np

import dfalg
from dfalg import cli, scalars, tensorio
from dfalg.dform import DoubleForm
from dfalg.exterior import ExteriorForm, MultiForm

BENCH = "a name bench/spans.py or bench/workloads.py binds"
SECOND_SIDE = "a test-only second side"
ACCESSOR = "a public accessor"
JACOBI = "the Jacobi family, which the jacobi_metric benchmark reaches"

UNREACHED = {
    "dform.DoubleForm.__repr__": ACCESSOR,
    "dform.DoubleForm.entry": ACCESSOR,
    "dform.DoubleForm.from_entries": ACCESSOR,
    "dform._LaneForm.astype": ACCESSOR,
    "dform._LaneForm.is_zero": ACCESSOR,
    "dform.one": ACCESSOR,
    "dform.bianchi_residual": SECOND_SIDE + ": the first Bianchi identity of a fixture",
    "dform.contract_with_metric": BENCH,
    "dform._invert_metric": BENCH,
    "dform._check_metric": "the metric check of contract_with_metric and _metric_scalar",
    "dform._open_memo": JACOBI,
    "dform._no_memo": JACOBI,
    "dform.trace": JACOBI,
    "exterior.ExteriorForm.__repr__": ACCESSOR,
    "exterior.ExteriorForm.coeff": ACCESSOR,
    "exterior.ExteriorForm.zeros": ACCESSOR,
    "exterior.MultiForm.__init__": ACCESSOR,
    "exterior.MultiForm.__repr__": ACCESSOR,
    "exterior.MultiForm.entry": ACCESSOR,
    "exterior.MultiForm.from_slots": ACCESSOR,
    "exterior.MultiForm.zeros": ACCESSOR,
    "exterior.hodge_form": ACCESSOR,
    "identities._fork_share": "runs a share in a forked child, which the profile does not follow",
    "identities._run_child": "runs a share in a forked child, which the profile does not follow",
    "invariants.CharPoly.__call__": SECOND_SIDE + ": the characteristic polynomials",
    "invariants.CharPoly.degree": SECOND_SIDE + ": the characteristic polynomials",
    "invariants.char_poly_hn": SECOND_SIDE + ": the characteristic polynomials",
    "invariants.char_poly_s": SECOND_SIDE + ": the characteristic polynomials",
    "invariants.char_poly_srq": SECOND_SIDE + ": the characteristic polynomials",
    "invariants.char_poly_t": SECOND_SIDE + ": the characteristic polynomials",
    "invariants.s_k_of_sum": SECOND_SIDE + ": s_k(A + B) through the cofactors of A",
    "invariants.T_2k": ACCESSOR,
    "invariants.N_2k": ACCESSOR,
    "invariants.g_power_star_expansion": BENCH,
    "invariants.s_k_metric": SECOND_SIDE + ": the metric Jacobi identities",
    "invariants.h_2k_metric": SECOND_SIDE + ": the metric Jacobi identities",
    "invariants._metric_scalar": SECOND_SIDE + ": the metric Jacobi identities",
    "invariants._check_metric_variation": JACOBI,
    "invariants._check_order": JACOBI,
    "invariants._det_bilinear": JACOBI,
    "invariants._jacobi": JACOBI,
    "invariants._jacobi_metric": JACOBI,
    "invariants._per_c": JACOBI,
    "invariants._sampled": JACOBI,
    "invariants.interpolate": JACOBI,
    "invariants.jacobi_derivative": JACOBI,
    "invariants.jacobi_double_form": JACOBI,
    "invariants.jacobi_double_form_with_metric": JACOBI,
    "invariants.jacobi_with_metric": JACOBI,
    "multiindex.split_table": BENCH,
    "tensorio.tensor_to_json": BENCH,
}


def defined_functions():
    """{module.qualname: code} of the functions and methods each dfalg
    module other than oracle.py defines; imported names are left out."""
    out = {}
    package = Path(dfalg.__file__).parent
    for info in pkgutil.iter_modules([str(package)]):
        if info.name in ("oracle", "__main__"):
            continue
        module = importlib.import_module(f"dfalg.{info.name}")

        def add(name, fn, module=module, prefix=info.name):
            code = getattr(inspect.unwrap(fn), "__code__", None)
            if code is not None and code.co_filename == module.__file__:
                out[f"{prefix}.{name}"] = code

        for name, obj in vars(module).items():
            if callable(obj) and not inspect.isclass(obj):
                add(name, obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    parts = [member.fget, member.fset] if isinstance(member, property) \
                        else [member]
                    for part in parts:
                        if inspect.isfunction(part):
                            add(f"{name}.{attr}", part)
    return out


def clear_caches(functions):
    """Empty the lru_cache of each cached function, so that its body runs
    on the next call whatever earlier tests built."""
    for module in {name.partition(".")[0] for name in functions}:
        for obj in vars(importlib.import_module(f"dfalg.{module}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def run_every_command(tmp_path, files):
    """Run every command; the generated files join files, the hand-built
    inputs that generate cannot make."""
    for kind, extra in (("general", []), ("symmetric", []), ("skew", []),
                        ("bianchi", ["--p", "2"]), ("constant_curvature", ["--kappa", "2/3"]),
                        ("form", ["--k", "4"])):
        code, text = run(["generate", "--kind", kind, "--n", "4", "--seed", "3", *extra])
        assert code == 0, kind
        files[kind] = tmp_path / f"{kind}.json"
        files[kind].write_text(text)
    for family, kind, extra in (("s", "symmetric", []), ("t", "symmetric", []),
                                ("srq", "symmetric", ["--r", "1", "--q", "2"]),
                                ("h2k", "bianchi", []), ("T", "bianchi", []),
                                ("N", "bianchi", []),
                                ("hrpq", "bianchi", ["--r", "1", "--q", "1"])):
        assert run(["invariants", str(files[kind]), "--family", family, *extra])[0] == 0
    for argv in (["pfaffian", str(files["skew"])], ["pfaffian", str(files["form"])],
                 ["pfaffian", str(files["six"]), "--r", "3"],
                 ["pfaffian", str(files["multiform"])],
                 ["pfaffian", str(files["float_skew"])]):
        assert run(argv)[0] in (0, 1), argv
    # refused inputs: a float overflow in a conjecture, and a missing file
    assert run(["pfaffian", str(files["overflow"])])[0] == 2
    assert run(["invariants", str(tmp_path / "missing.json"), "--family", "s"])[0] == 2
    assert run(["verify", "--n-range", "2:6"])[0] == 0


def input_files(tmp_path):
    """A 6-form, a multiform, a float skew form and a float 4-form whose
    Pfaffian squared overflows, as tensor files."""
    docs = {
        "six": ExteriorForm(6, 6, np.array([3])),
        "multiform": MultiForm(4, 2, 2, np.arange(36).reshape(6, 6) % 5 - 2),
        "float_skew": DoubleForm(4, 1, 1, np.array([[0, 1.5, 2, 0], [-1.5, 0, 0, 1],
                                                    [-2, 0, 0, 3], [0, -1, -3, 0]]),
                                 scalars.FLOAT64),
        "overflow": ExteriorForm.from_coeffs(4, 4, {(0, 1, 2, 3): -1e200}, scalars.FLOAT64),
    }
    files = {}
    for name, obj in docs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(tensorio.tensor_to_doc(obj)))
    return files


def test_every_function_no_command_reaches_is_pinned(tmp_path, monkeypatch):
    # verify in one process: a forked share would trace into its own copy
    monkeypatch.setattr(cli, "_suite_processes", lambda: 1)
    files = input_files(tmp_path)
    functions = defined_functions()
    clear_caches(functions)
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    start = time.perf_counter()
    sys.setprofile(profile)
    try:
        run_every_command(tmp_path, files)
    finally:
        sys.setprofile(None)
    assert time.perf_counter() - start < 5
    unreached = {name for name, code in functions.items() if code not in reached}
    assert sorted(unreached) == sorted(UNREACHED)
