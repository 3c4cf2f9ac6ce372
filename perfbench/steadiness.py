#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workload NAME [--seeds 1-10]

Run from the repository root. Runs perfbench/run.py once per seed
(--trace 0, BENCHMARK.json's run_seconds) and prints, for every
end-to-end metric, the median and the spread (q3 - q1) / median with
quartiles from statistics.quantiles(values, n=4), beside the metric's
bound. A run that fails or reports correct=false stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            sys.exit("seed %d: exit %d\n%s" % (seed, out.returncode,
                                               out.stderr[-2000:]))
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result %s" % (seed, lines[-1]))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])

    if len(args.seeds) < 2:
        return
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-12s median=%-10.6g spread=%.3f bound=%.2f" %
              (m["name"], med, (q3 - q1) / med, m["bound"]))


if __name__ == "__main__":
    main()
