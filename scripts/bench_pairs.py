#!/usr/bin/env python3
"""Paired benchmark runs of a change against its parent commit.

    python3 scripts/bench_pairs.py --label NAME --parent COMMIT \\
        --seeds 1201-1210 [--change-note TEXT] [--claim TEXT]

The parent commit is extracted with ``git archive``, and the change (the
working tree's tracked and unignored files) is copied, each into a fresh
temporary directory, so that no run sees another's build or result
leftovers.  The script refuses to run when the working tree does not differ
from the parent.  For every seed and every workload of ``BENCHMARK.json``,
``perfbench/run.py`` runs once on each tree for the benchmark's
``run_seconds``, one at a time: the parent first on odd seeds, the change
first on even ones.  ``BENCH_<label>.json`` at the repository root lists every
run and, per workload and end-to-end metric of ``BENCHMARK.json``, both
medians and quartiles, the parent's interquartile range and the number of
pairs the change won.  It is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    """'1201-1210' or '5,7,9' -> list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def _extract_parent(commit, dest):
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=_git("archive", commit),
                   check=True)


def _unchanged(commit):
    """True when the tracked files equal those of ``commit`` and nothing
    untracked (and not ignored) is present."""
    same = subprocess.run(["git", "diff", "--quiet", commit, "--"],
                          cwd=ROOT).returncode == 0
    return same and not _git("ls-files", "-o", "--exclude-standard")


def _copy_change(dest):
    for path in _git("ls-files", "-co", "--exclude-standard",
                     "-z").decode().split("\0"):
        src = os.path.join(ROOT, path)
        if path and os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, path)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, path))


def _run(tree, workload, seed, seconds):
    """One untraced benchmark run: its result line and its record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(tree, "perfbench", "results",
                        f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="ascii") as fh:
        return result, json.load(fh)


def _summary(pairs, metrics):
    out = {}
    for name, better in metrics:
        side = {s: [p[name][s] for p in pairs] for s in ("parent", "change")}
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(side["parent"], side["change"]))
        row = {}
        for s, values in side.items():
            row[f"{s}_median"] = round(statistics.median(values), 5)
            if len(values) > 1:
                row[f"{s}_quartiles"] = [round(q, 5) for q in
                                         statistics.quantiles(values, n=4)]
        if "parent_quartiles" in row:
            q1, _, q3 = row["parent_quartiles"]
            row["parent_iqr"] = round(q3 - q1, 5)
        row["change_better_pairs"] = wins
        row["pairs"] = len(pairs)
        out[name] = row
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1201-1210 or 5,7,9")
    p.add_argument("--parent", required=True, help="commit to compare with")
    p.add_argument("--change-note", default="", help="what the change does")
    p.add_argument("--claim", default="", help="the gain claimed, if any")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parent = _git("rev-parse", "--verify", args.parent).decode().strip()
    if _unchanged(parent):
        p.error(f"the working tree does not differ from {args.parent}: "
                "nothing to compare")
    doc = {"label": args.label, "change": args.change_note,
           "command": "python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {seconds:g} --trace 0",
           "protocol": f"parent ({parent}, by git archive) and change "
                       "(working tree copy) in fresh directories, run one at "
                       "a time; for each seed every workload runs on both, "
                       "parent first on odd seeds and change first on even "
                       "seeds; every run made is listed; quartiles by "
                       "statistics.quantiles(n=4)",
           "claim": args.claim, "environment": None,
           "end_to_end": {w: {"pairs": []} for w in workloads}}
    out_path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
        _extract_parent(parent, trees["parent"])
        _copy_change(trees["change"])
        for seed in _seeds(args.seeds):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for w in workloads:
                runs = {s: _run(trees[s], w, seed, seconds)
                        for s in order}
                env = runs["change"][1]["environment"]
                doc["environment"] = {k: env[k] for k in (
                    "nproc", "cpu_model", "python", "numpy", "scipy",
                    "thread_env")}
                blas = env["blas"] or {}
                doc["environment"]["blas"] = blas.get(
                    "openblas configuration", blas.get("name"))
                pair = {"seed": seed, "first": order[0]}
                for name, _ in metrics:
                    pair[name] = {s: round(runs[s][0]["metrics"][name]["value"],
                                           5) for s in order}
                pair["correct"] = {s: runs[s][0]["correct"] for s in order}
                pair["failed"] = {s: runs[s][0]["failed"] for s in order}
                pairs = doc["end_to_end"][w]["pairs"]
                pairs.append(pair)
                doc["summary"] = {
                    wl: _summary(doc["end_to_end"][wl]["pairs"], metrics)
                    for wl in workloads if doc["end_to_end"][wl]["pairs"]}
                with open(out_path, "w", encoding="ascii") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
                print(f"seed {seed} {w}: " + ", ".join(
                    f"{s} {pair['result_s'][s]:.3f} s"
                    + ("" if pair["correct"][s] else " (incorrect)")
                    for s in order), file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
