"""One benchmark pass in a fresh interpreter; prints one JSON line.

Every dfalg invocation starts cold (its sign tables are lru caches filled
on first use), so each pass runs in its own process:

    PYTHONPATH=src python3 bench/worker.py --workload suite_exact --seed 1 \
        [--trace] [--reference] --workdir DIR

Set-up time covers importing dfalg and building or writing the inputs;
wall time covers the pass; checks run afterwards, outside both.  The line
also carries the host's speed (bench/calibrate.py) measured right after
set-up and sampled through the pass, by which run.py scales the times.  With
--trace the pass runs under bench/spans.py's wrappers and the line also
carries the per-layer counters.  With --reference the checks include the
independent references (schema, oracles, seed-commit values).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback


# suffixes of per-layer names that denote a span's self time, as in
# "dform.wedge.self_s", "invariants.series_self_s" and "tensorio.load_s"
SELF_TIME_SUFFIXES = (".self_s", "_self_s", "_s")


def layer_metrics(names, tracer, misses, verdict):
    """Per-layer metrics of one traced pass, for the given BENCHMARK.json names.

    A name is a span of bench/spans.py with ".calls" or a self-time suffix,
    an identity's inclusive time "identities.<name>.s", or one of the
    derived metrics below.
    """
    from dfalg.identities import ALL_IDENTITY_NAMES
    from spans import SPANS

    calls, self_s = tracer.calls, tracer.self_s

    def distinct(span):
        return len(tracer.keys[span]) / calls[span] if calls[span] else 0.0

    p50 = p99 = 0.0
    if len(tracer.check_ms) >= 2:
        q = statistics.quantiles(tracer.check_ms, n=100)
        p50, p99 = q[49], q[98]
    derived = {
        "multiindex.table_misses": misses,
        "dform.wedge.distinct_ratio": distinct("dform.wedge"),
        "dform._invert_metric.distinct_ratio": distinct("dform._invert_metric"),
        "dform.wedge.entries_out": tracer.entries_out,
        "dform.lane.object_share": (tracer.object_outputs / tracer.outputs
                                    if tracer.outputs else 0.0),
        "dform.max_entry_bits": tracer.max_entry_bits,
        "dform.max_rel_residual": verdict.max_rel_residual,
        "identities.check_ms.p50": p50,
        "identities.check_ms.p99": p99,
        "cli.report_bytes": verdict.report_bytes,
    }
    m = {}
    for name in names:
        if name in derived:
            m[name] = derived[name]
        elif name.endswith(".calls") and name[:-6] in SPANS:
            m[name] = calls[name[:-6]]
        elif name.startswith("identities.") and name[11:-2] in ALL_IDENTITY_NAMES:
            m[name] = tracer.check_s[name[11:-2]]
        else:
            span = next((name[:-len(x)] for x in SELF_TIME_SUFFIXES
                         if name.endswith(x) and name[:-len(x)] in SPANS), None)
            if span is None:
                raise KeyError(f"per-layer metric {name} names no span of bench/spans.py")
            m[name] = self_s[span]
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workloads  # imports dfalg

    import dfalg
    src = os.path.join(workloads.ROOT, "src")
    if os.path.commonpath([os.path.abspath(dfalg.__file__), src]) != src:
        sys.exit(f"dfalg was imported from {dfalg.__file__}, not from {src}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, args.workdir)
    t1 = time.perf_counter()
    import calibrate  # after t1: its import runs the load, to warm it

    setup_speed = calibrate.measure()

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        misses0 = tracer.table_misses()
    error = None
    with calibrate.Sampler() as sampler:
        t2, held2 = time.perf_counter(), sampler.held_s
        try:
            raw = wl.run(inputs)
        except Exception:  # a failing pass is reported, not fatal to the run
            error = traceback.format_exc()
        t3, held3 = time.perf_counter(), sampler.held_s
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        misses = tracer.table_misses() - misses0
        tracer.uninstall()

    if error is None:
        verdict = wl.check(raw, args.seed, args.reference)
    else:
        verdict = workloads.Verdict("", wl.checks, wl.checks, [error])
    for problem in verdict.problems[:20]:
        print(f"{args.workload} seed {args.seed}: {problem}", file=sys.stderr)
    result = {
        "setup_s": t1 - t0,
        "setup_speed": setup_speed,
        "wall_s": t3 - t2 - (held3 - held2),
        "speed": sampler.speed(),
        "speed_samples": len(sampler.samples),
        "peak_rss_mb": rss_kb / 1024,
        "checks": verdict.checks,
        "failed": verdict.failed,
        "digest": hashlib.sha256(verdict.text.encode()).hexdigest(),
        "traced": tracer is not None,
    }
    if tracer is not None:
        with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]
                     if m["name"] != "trace.overhead_s"]
        result["layers"] = layer_metrics(names, tracer, misses, verdict)
        result["spans"] = {span: [tracer.calls[span], tracer.self_s[span]]
                           for span in sorted(tracer.calls)}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
