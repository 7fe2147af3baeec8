"""dfalg benchmark: one run of one workload, over fresh-interpreter passes.

    python3 bench/run.py --workload suite_exact --seed 1 --seconds 20 --trace 0

Run from the root of a dfalg checkout (the program is imported from its
src/).  The run repeats passes of the workload, each in a new interpreter
(bench/worker.py), one at a time, until about --seconds have gone by and at
least MIN_PASSES have run.  It prints a summary to stderr and, as the last line
of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics, from
untraced passes: medians over the passes, times scaled to the host's
reference speed (bench/calibrate.py).  With --trace 1 traced and untraced
passes alternate and the metrics are its per_layer metrics, from the
traced passes (scaled times as medians).  A run is
correct when every check of every pass held and every pass, traced or
not, produced a byte-identical report; a traced run also needs identical
counters in every traced pass.  Exits 2 without a result when the
checkout holds no dfalg sources.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
MIN_PASSES = 3  # untraced passes, and traced passes in a traced run
PASS_TIMEOUT_S = 150
TIME_UNITS = ("s", "ms")


def run_pass(workload, seed, workdir, traced, reference):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir]
    cmd += ["--trace"] * traced + ["--reference"] * reference
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        with contextlib.suppress(ValueError):
            return json.loads(lines[-1])
    print(f"pass exited with code {proc.returncode} and no result", file=sys.stderr)
    return None


def aggregate(spec, passes, trace):
    """Metrics and the correctness verdict of one run."""
    ok = [p for p in passes if p is not None]
    attempted = sum(p["checks"] for p in ok) + (len(passes) - len(ok))
    failed = sum(p["failed"] for p in ok) + (len(passes) - len(ok))
    # a pass whose report differs from the first pass's is invalid throughout
    odd = [p for p in ok if p["digest"] != ok[0]["digest"]]
    failed += sum(p["checks"] - p["failed"] for p in odd)
    if odd:
        print(f"{len(odd)} passes printed a report different from the first",
              file=sys.stderr)
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    # Times are scaled to the host's reference speed (bench/calibrate.py),
    # then the median over the run's passes is taken.
    values = {}
    if plain:
        values = {
            "wall_s": statistics.median(p["wall_s"] * p["speed"] for p in plain),
            "checks_per_s": statistics.median(p["checks"] / (p["wall_s"] * p["speed"])
                                              for p in plain),
            "setup_s": statistics.median(p["setup_s"] * p["setup_speed"] for p in ok),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    steady = True
    if traced:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                continue
            seen = [p["layers"][name] for p in traced]
            if m["unit"] in TIME_UNITS:
                values[name] = statistics.median(v * p["speed"] for v, p in zip(seen, traced))
            elif len(set(seen)) == 1:
                values[name] = seen[0]
            else:
                steady = False
                print(f"{name} differs between traced passes: {seen}", file=sys.stderr)
        if plain:
            values["trace.overhead_s"] = (
                statistics.median(p["wall_s"] * p["speed"] for p in traced)
                - values["wall_s"])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = failed == 0 and steady and len(metrics) == len(wanted)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="dfalg benchmark, one run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dfalg", "__init__.py")):
        print(f"bench: no dfalg sources under {ROOT}/src; run from a dfalg checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    passes = []
    start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            t = time.perf_counter()
            passes.append(run_pass(args.workload, args.seed, workdir, traced,
                                   reference=not passes))
            now = time.perf_counter()
            done = [p for p in passes if p is not None]
            enough = (sum(not p["traced"] for p in done) >= MIN_PASSES
                      and (not args.trace or sum(p["traced"] for p in done) >= MIN_PASSES))
            # stop rather than start a pass that would overrun by over half its length
            if passes[-1] is None or (enough and now + (now - t) / 2 >= start + args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    result = aggregate(spec, passes, args.trace)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{result['attempted']} checks, fail_ratio "
          f"{result['failed'] / max(result['attempted'], 1):g}, "
          f"correct {result['correct']}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
