#!/usr/bin/env python3
"""Steadiness check: run sets of benchmark runs of the same code and report,
per workload and end-to-end metric, whether they agree within the bounds in
BENCHMARK.json.

    python3 perfbench/steady.py [--sets 2] [--runs 10]

Every run lasts BENCHMARK.json's `run_seconds`, on every workload.  Set k
uses seeds k*runs+1 .. (k+1)*runs.  Within a set, a metric's spread is the
distance between the first and third quartile of its runs
(statistics.quantiles, n=4) as a share of their median; it must stay within
the metric's bound.  Across sets, no median may differ from the first set's
by more than the bound, in either direction.  Prints every run's metric
lines (name, value, unit), then one row per workload and metric; exits 1 if
any check fails.  `--sets 1 --runs 2` is the short way to run every
workload and see all its metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def one_run(workload, seed):
    """One run at --trace 0; returns its gated metrics and its metric lines
    (`<workload> <metric> = <value> <unit>`)."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    lines = res.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    if not out["correct"] or out["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {out}")
    metrics = {k: m["value"] for k, m in out["metrics"].items()}
    return metrics, [x for x in lines[:-1] if x.startswith(workload + " ")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to take quartiles")
    workloads = [w["name"] for w in SPEC["workloads"]]

    runs = {w: [[] for _ in range(args.sets)] for w in workloads}
    for k in range(args.sets):
        for w in workloads:
            for i in range(args.runs):
                seed = k * args.runs + i + 1
                m, lines = one_run(w, seed)
                runs[w][k].append(m)
                for line in lines:
                    print(f"set {k} seed {seed}: {line}", flush=True)

    ok = True
    print(f"{'workload':12} {'metric':12} {'unit':5} {'bound':>6}  "
          + "  ".join(f"set{k} median   spread" for k in range(args.sets))
          + "  verdict")
    for w in workloads:
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [spread([r[name] for r in runs[w][k]])
                     for k in range(args.sets)]
            base = stats[0][0]
            bad = []
            for k, (med, spr) in enumerate(stats):
                if spr > bound:
                    bad.append(f"set{k} spread")
                drift = abs(med - base) / base
                if drift > bound:
                    bad.append(f"set{k} median differs by {drift:.1%}")
            ok = ok and not bad
            cells = "  ".join(f"{med:11.5g} {spr:7.2%}" for med, spr in stats)
            verdict = "agree" if not bad else "DISAGREE: " + ", ".join(bad)
            print(f"{w:12} {name:12} {metric['unit']:5} {bound:6.2f}  "
                  f"{cells}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
