#!/usr/bin/env python3
"""Interleaved A/B comparison of two checkouts on the perfbench benchmark.

    python3 tools/perfbench_ab.py --parent DIR --change DIR --workload NAME
        [--pairs 10] [--seconds S]

Each DIR is a checkout of this repository (for instance a `git clone`
of the parent commit beside the working tree). Every pair runs each
checkout's own `perfbench/run.py --seed 1 --trace 0` once, alternating
which side goes first, and each side builds into `DIR/.bench_build`.
The seed is fixed at 1: it is the only seed with perfbench goldens, so
every run is checked for correctness. Every run's result line is
printed as it arrives.

At the end it prints, for every end-to-end metric of the parent's
BENCHMARK.json: both medians, the parent's quartiles (from
statistics.quantiles(values, n=4)), how many pairs the change won
(ties count for neither side), the exact two-sided sign-test p-value
of those wins with ties dropped (10 of 10 is p = 0.002, 9 of 10 is
0.021, 8 of 10 is 0.109) and a verdict (see verdict()):

- "unresolved": the parent's own spread, (q3 - q1) / median, is wider
  than the bound, so the runs cannot tell, unless every change run
  beats every parent run, which is "ok";
- "worse": otherwise, the change's median is worse than the parent's
  by more than the metric's bound (a fraction of the parent's median);
- "ok": neither.

Exits 1 if any run reports correct=false or failed > 0, or any metric
is worse than its bound; 2 if a run fails to produce a result. Host
speed matters, so this is a tool to run by hand, not a CI step.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def run_side(checkout, workload, seconds):
    """One --trace 0 run of @checkout's perfbench; its result dict."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.stderr.write(out.stderr[-2000:])
        print("%s: perfbench exited %d without a result" %
              (checkout, out.returncode), file=sys.stderr, flush=True)
        sys.exit(2)
    return json.loads(lines[-1])


def better(a, b, higher):
    """True if value @a beats @b."""
    return a > b if higher else a < b


def sign_test_p(wins, losses):
    """Exact two-sided sign-test p-value of @wins against @losses
    (ties already dropped): the chance, under a fair coin, of a split
    at least this uneven either way."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def verdict(p, c, bound, higher):
    """Compare one metric's parent runs @p with the change's runs @c,
    paired by index. Returns a dict of both medians, the parent's q1
    and q3, the change's wins and losses, their sign-test p-value and
    the verdict."""
    p_med, c_med = statistics.median(p), statistics.median(c)
    q1, _, q3 = (statistics.quantiles(p, n=4) if len(p) > 1
                 else (p[0], p[0], p[0]))
    wins = sum(better(cv, pv, higher) for pv, cv in zip(p, c))
    losses = sum(better(pv, cv, higher) for pv, cv in zip(p, c))
    # The change's median may fall short of the parent's by at most
    # bound x the parent's median.
    limit = p_med * (1 - bound if higher else 1 + bound)
    best_p = max(p) if higher else min(p)
    worst_c = min(c) if higher else max(c)
    if p_med and (q3 - q1) / abs(p_med) > bound:
        v = "ok" if better(worst_c, best_p, higher) else "unresolved"
    elif better(limit, c_med, higher):
        v = "worse than its bound"
    else:
        v = "ok"
    return {"parent_med": p_med, "change_med": c_med, "q1": q1, "q3": q3,
            "wins": wins, "losses": losses,
            "p_value": sign_test_p(wins, losses), "verdict": v}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["parent"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    results = {"parent": [], "change": []}
    bad_runs = 0
    for pair in range(args.pairs):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            r = run_side(sides[side], args.workload, seconds)
            results[side].append(r)
            if not r["correct"] or r["failed"] > 0:
                bad_runs += 1
            print("pair %d %-6s correct=%s failed=%d/%d %s" % (
                pair, side, str(r["correct"]).lower(), r["failed"],
                r["attempted"], " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in r["metrics"].items())), flush=True)

    worse = 0
    print("%-14s %12s %12s %12s %12s %6s %6s %5s  %s" % (
        "metric", "parent_med", "change_med", "parent_q1", "parent_q3",
        "wins", "p", "bound", "verdict"))
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        p = [r["metrics"][name]["value"] for r in results["parent"]]
        c = [r["metrics"][name]["value"] for r in results["change"]]
        v = verdict(p, c, bound, m["better"] == "higher")
        if v["verdict"] == "worse than its bound":
            worse += 1
        print("%-14s %12.6g %12.6g %12.6g %12.6g %3d/%-2d %6.3f %5.2f  %s" % (
            name, v["parent_med"], v["change_med"], v["q1"], v["q3"],
            v["wins"], len(p), v["p_value"], bound, v["verdict"]))
    if bad_runs:
        print("%d run(s) reported correct=false or failed > 0" % bad_runs)
    return 1 if bad_runs or worse else 0


if __name__ == "__main__":
    sys.exit(main())
