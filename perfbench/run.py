"""jointspec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in this process from the source tree
next to this directory, repeating identical closed-loop passes for about S
seconds (at least two), then checks one pass against independent oracles
outside the timed region.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it wraps every layer (tracing.py) and reports the per-layer
metrics instead.  The last line of stdout is the JSON result; a fuller
record, stamped with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUPS_PER_PASS = 25
MIN_PASSES = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


def _git_commit():
    """HEAD of the git checkout at ROOT, or None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _environment(seed, trace):
    import numpy as np
    import scipy
    cpu = platform.processor() or None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "thread_env": {k: os.environ[k] for k in THREAD_VARS
                           if k in os.environ},
            "git_commit": _git_commit(), "seed": seed, "traced": bool(trace)}


def _percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[q - 1]


def _nonrepeat(a, b):
    """Number of output values whose bytes differ between two passes."""
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def _same_values(a, b):
    import numpy as np
    if isinstance(a, dict):
        return all(_same_values(a[k], b[k]) for k in a)
    return bool(np.allclose(a, b, rtol=1e-8, atol=1e-12, equal_nan=True))


def _setups(workload, n, times):
    for _ in range(n):
        gc.collect()
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)


def _run_passes(workload, seconds, min_passes, setup_times=None):
    """Identical passes for about `seconds`; with `setup_times`, a batch of
    set-ups runs before each pass, so that their median samples the whole
    run."""
    passes = []
    start = time.perf_counter()
    while True:
        if setup_times is not None:
            _setups(workload, SETUPS_PER_PASS, setup_times)
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        passes[-1]["wall"] = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def _alternate(workload, tracer, seconds):
    """One untraced warm-up pass, then untraced and traced passes in turn for
    about `seconds`, so that both kinds sample the same stretch of time.
    Returns (untraced passes with the warm-up first, traced passes)."""
    untraced = _run_passes(workload, 0, 1)
    traced = []
    start = time.perf_counter()
    while True:
        untraced += _run_passes(workload, 0, 1)
        tracer.enabled = True
        traced += _run_passes(workload, 0, 1)
        tracer.enabled = False
        pair = statistics.median(p["wall"] for p in untraced[1:]) \
            + statistics.median(p["wall"] for p in traced)
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="sweeps or chern_certify")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "jointspec", "__init__.py")):
        print(f"error: no jointspec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(args.workload)
        tracer.install_numeric()
    import jointspec
    import jointspec.cli  # noqa: F401  (workloads drive the CLI in-process)
    if not os.path.abspath(jointspec.__file__).startswith(src + os.sep):
        print(f"error: imported jointspec from {jointspec.__file__}",
              file=sys.stderr)
        return 2
    if tracer:
        tracer.install_jointspec()

    import oracle
    from workloads import ACCURACY, NPROC, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        w = WORKLOADS[args.workload](jointspec, args.seed, workdir)
        setup = []
        if tracer:
            tracer.enabled = True
            _setups(w, SETUPS_PER_PASS, setup)
            tracer.enabled = False
            setup_spans = list(tracer.spans)
            tracer.spans.clear()
            untraced, traced = _alternate(w, tracer, args.seconds)
            pass_spans = list(tracer.spans)
            tracer.spans.clear()
            tracer.enabled = True
            w.traced_extra()
            extra_spans = list(tracer.spans)
            tracer.enabled = False
            passes = untraced + traced
        else:
            passes = _run_passes(w, args.seconds, MIN_PASSES, setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = oracle.Checks(ACCURACY)
        planted, caught = w.check(passes[0], checks)
        for later in passes[1:]:
            checks.expect(_same_values(passes[0]["values"], later["values"]),
                          "a repeated pass changed its values")

    ops = sum(p["ops"] for p in passes)
    attempted = ops + checks.run
    failed = sum(p["failed"] for p in passes) + checks.failed
    failed += planted - caught
    nonrepeat = _nonrepeat(passes[0]["bytes"], passes[1]["bytes"])

    named = {}  # end-to-end figures: untraced runs only
    for key, (_, unit) in ({} if tracer else passes[0]["named"]).items():
        named[key] = (statistics.median(p["named"][key][0] for p in passes), unit)
    if "probe_ms" in passes[0] and not tracer:
        lat = [x for p in passes for x in p["probe_ms"]]
        named["probe_ms_p50"] = (statistics.median(lat), "ms")
        named["probe_ms_p90"] = (_percentile(lat, 90), "ms")
        named["probe_samples"] = (len(lat), "count")

    if tracer:
        import tracing
        n = len(traced)
        metrics = tracing.layer_metrics(pass_spans, n)
        both = setup_spans + pass_spans
        for key in ("models.build_ms", "sweep.fingerprint_ms"):
            metrics[key] = tracing.layer_metrics(both, n)[key]
        slow = tracing.sweep_rate(extra_spans, 1)
        metrics["sweep.parallel_speedup"] = (
            tracing.sweep_rate(pass_spans, NPROC) / slow if slow else 0.0)
        metrics["sweep.nonrepeat_cells"] = nonrepeat
        metrics["trace.overhead_ratio"] = (
            statistics.median(p["seconds"] for p in traced)
            / statistics.median(p["seconds"] for p in untraced[1:]))
        units = {}
    else:
        metrics = {"setup_s": statistics.median(setup),
                   "result_s": statistics.median(p["seconds"] for p in passes),
                   "peak_rss_mb": peak_rss_mb}
        units = {"setup_s": "s", "result_s": "s", "peak_rss_mb": "MB"}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units.get(k, _unit(k))}
                          for k, v in metrics.items()}}
    record = {"workload": args.workload,
              "environment": _environment(args.seed, args.trace),
              "passes": len(passes), "seconds": args.seconds,
              "pass_seconds": [p["seconds"] for p in passes],
              "named_metrics": {k: {"value": v, "unit": u}
                                for k, (v, u) in named.items()},
              "fail_frac": failed / attempted,
              "checks": {"run": checks.run, "failed": checks.failed,
                         "notes": checks.notes, "planted": planted,
                         "caught": caught},
              "nonrepeat_cells": nonrepeat, "result": result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(RESULTS, tag + ".json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer:
        tracer.write(os.path.join(RESULTS, tag + "-spans.jsonl"),
                     setup_spans + pass_spans + extra_spans)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  nproc {NPROC}")
    for key, (value, unit) in named.items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':32s} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for key, m in result["metrics"].items():
        print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  checks: {checks.run} run, {checks.failed} failed; self-test caught "
          f"{caught} of {planted} planted faults; {nonrepeat} outputs differ "
          f"between two identical passes")
    for note in checks.notes:
        print(f"  FAILED: {note}")
    print(json.dumps(result))
    return 0


def _unit(name):
    if "_ms" in name:
        return "ms"
    if name.endswith("_ratio") or name.endswith("_speedup") \
            or name == "operators.solves_per_eigsh":
        return "ratio"
    if name.endswith("_dim"):
        return "dim"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
