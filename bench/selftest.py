"""Self-test of the benchmark's tracing, and the trace sanity record.

    python3 bench/selftest.py

For each workload of BENCHMARK.json it runs one untraced and two traced
passes at seed 1 and checks:

- the traced counters are identical in both traced passes;
- every layer the workload is meant to stress reports nonzero calls;
- tracing changes no byte of the pass's report;
- the workload's dominant layer is the one bench/README.md states for it.

It prints each workload's largest self-time spans.  Exits 1 if a check
fails.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run

SEED = 1

STRESSED = {
    "suite_exact": ("dform.wedge", "dform.compose", "dform.contract", "dform.hodge",
                    "dform.inner", "invariants.series", "identities.check",
                    "cli.report"),
    "suite_float": ("dform.wedge", "dform.compose", "dform.contract", "dform.hodge",
                    "dform.inner", "invariants.series", "identities.check",
                    "cli.report"),
    "jacobi_metric": ("dform.contract_with_metric", "dform._invert_metric",
                      "invariants.interpolate"),
    "pfaffian_exterior": ("exterior.wedge_form", "exterior.wedge_multi",
                          "exterior.hodge_multi", "multiindex.tables",
                          "pfaffian.embed", "pfaffian.pf", "pfaffian.hyperdet",
                          "tensorio.load"),
}

# spans whose self time must be at least half the traced pass (None: the
# single largest span must be dform.wedge)
DOMINANT = {
    "suite_exact": None,
    "suite_float": None,
    "jacobi_metric": ("dform.contract_with_metric", "dform._invert_metric"),
    "pfaffian_exterior": ("exterior.wedge_form", "exterior.wedge_multi",
                          "exterior.hodge_multi", "multiindex.tables"),
}


def check_workload(spec, name, seed, workdir):
    plain = run.run_pass(name, seed, workdir, traced=False, reference=True)
    traced = [run.run_pass(name, seed, workdir, traced=True, reference=False)
              for _ in range(2)]
    if plain is None or None in traced:
        return ["a pass failed to run"]
    errors = []
    if any(p["failed"] for p in (plain, *traced)):
        errors.append("a pass failed its checks")
    if len({p["digest"] for p in (plain, *traced)}) != 1:
        errors.append("tracing changed the report")
    counters = [m["name"] for m in spec["per_layer"] if m["unit"] not in run.TIME_UNITS]
    for metric in counters:
        a, b = (p["layers"][metric] for p in traced)
        if a != b:
            errors.append(f"{metric} differs between traced passes: {a} vs {b}")
    spans = traced[0]["spans"]
    for span in STRESSED[name]:
        if not spans.get(span, [0])[0]:
            errors.append(f"{span} has no calls")
    self_s = {span: v[1] for span, v in spans.items()}
    top = sorted(self_s, key=self_s.get, reverse=True)
    wall = traced[0]["wall_s"]
    group = DOMINANT[name]
    if group is None:
        if top[0] != "dform.wedge":
            errors.append(f"{top[0]} outweighs dform.wedge")
    elif sum(self_s.get(s, 0.0) for s in group) < 0.5 * wall:
        errors.append(f"{' + '.join(group)} is under half the traced pass")
    print(f"{name} seed {seed}: untraced {plain['wall_s']:.3f} s, "
          f"traced {wall:.3f} s")
    for span in top[:6]:
        print(f"  {span:32s} {self_s[span]:8.3f} s self  {spans[span][0]:7d} calls"
              f"  {self_s[span] / wall:6.1%}")
    return errors


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workdir = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    failures = 0
    try:
        for name in (w["name"] for w in spec["workloads"]):
            for error in check_workload(spec, name, SEED, workdir):
                print(f"FAIL {name}: {error}")
                failures += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
