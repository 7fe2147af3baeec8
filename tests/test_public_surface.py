"""The names the package exports, and the modules its commands import."""

import os
import subprocess
import sys
from pathlib import Path

import dfalg

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "DoubleForm", "ExteriorForm", "MultiForm", "bianchi_residual", "compose",
    "compose_power", "contract", "contract_iter", "contract_with_metric",
    "hodge", "hodge_form", "hodge_multi", "inner", "metric", "metric_power",
    "one", "scalars", "transpose", "wedge", "wedge_form", "wedge_multi",
    "wedge_power", "__version__",
}


def test_public_names_are_pinned_and_resolve():
    assert set(dfalg.__all__) == PUBLIC
    assert len(dfalg.__all__) == len(PUBLIC)
    for name in dfalg.__all__:
        assert getattr(dfalg, name) is not None


def test_verify_does_not_import_the_reference_module():
    # in one process, so a lazy import inside the suite would show here
    script = "\n".join([
        "import sys",
        "from dfalg import cli",
        "cli._suite_processes = lambda: 1",
        "assert cli.main(['verify', '--n-range', '2:3']) == 0",
        "assert 'dfalg.oracle' not in sys.modules, 'oracle imported'",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
