"""Guard for the names the benchmark's tracer wraps.

bench/spans.py maps each span to dfalg functions by module and name and
finds every binding of a function by its identity.  A name that no longer
resolves, or one function reached from two spans (say wedge_form and
wedge_multi made aliases of one function), breaks `bench/run.py --trace 1`;
this test makes it fail here instead.  It reads SPANS and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def test_traced_names_resolve_to_one_function_per_span():
    owner = {}
    for span, (modname, names) in traced_spans().items():
        module = importlib.import_module(modname)
        for name in names:
            fn = getattr(module, name, None)
            assert callable(fn), f"span {span}: {modname}.{name} does not exist"
            other = owner.setdefault(id(fn), (span, fn))[0]
            assert other == span, f"spans {other} and {span} share {modname}.{name}"
