"""Print the per-layer summary table from traced results.

    python3 perfbench/table.py

Reads perfbench/results/*-trace1.json (written by `run.py --trace 1`) and
prints one markdown row per workload and one column per layer: the layer's
self time per pass in ms, summed over threads.
"""

import glob
import json
import os

from tracing import LAYERS, NUMERIC

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    cols = LAYERS + (NUMERIC,)
    print("| workload | seed | " + " | ".join(cols) + " | trace overhead |")
    print("| --- | --- |" + " --- |" * (len(cols) + 1))
    for path in sorted(glob.glob(os.path.join(HERE, "results", "*-trace1.json"))):
        with open(path, encoding="ascii") as fh:
            rec = json.load(fh)
        m = rec["result"]["metrics"]
        cells = [f"{m[f'{c}.self_ms_per_pass']['value']:.1f}" for c in cols]
        print(f"| {rec['workload']} | {rec['environment']['seed']} | "
              + " | ".join(cells)
              + f" | {m['trace.overhead_ratio']['value']:.2f}x |")


if __name__ == "__main__":
    main()
