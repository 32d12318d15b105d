#!/usr/bin/env python3
"""Run one benchmark workload of chram at p = 5 and print its metrics.

    python3 perfbench/run.py --workload ch_law_p5 --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and README.md): ch_law_p5, ideal_p5, lift_p5_n2.
Each runs single-threaded in its own process, as a closed loop with one
client.  Every op is verified outside the timed region; an op fails if its
oracle rejects the output or it raises.

--trace 0 prints the end-to-end metrics; --trace 1 first measures untraced,
then repeats the loop with per-layer wrappers installed and prints the
per-layer metrics, the tracing overhead and the layer predictions.
--smoke runs one op per phase and one set-up sample, for the benchmark's
own tests.  The last line of stdout is one JSON object: correct, attempted,
failed, metrics.
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
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

PROCESS_START = time.perf_counter()
SETUP_SAMPLES = 11     # set-ups per run (this process plus fresh children)
START_CAP_S = 120.0    # no op starts later than this after PROCESS_START, so a
                       # run ends within 180 s even on a slow host


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for samples)")
    return ap.parse_args(argv)


def timed_setup(name, seed):
    t0 = time.perf_counter()
    wl = WORKLOADS[name](seed)
    return wl, time.perf_counter() - t0


def child_setup_s(name, seed) -> float:
    """One set-up in a fresh interpreter, so the import is counted cold."""
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


def git_rev() -> str:
    """Commit of the checkout, read from .git without calling git (which
    would search directories above the checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_loop(wl, seconds, smoke, call, on_result=None, between=None):
    """Closed loop: draw, run, verify.  Stops after `seconds` of op time at a
    cycle boundary (after one op with --smoke).  `on_result(out)` and
    `between(elapsed op seconds)` run after each op, outside the timed
    region.  Returns (op times of the verified ops, elapsed op seconds,
    attempted, failed)."""
    times, attempted, failed, elapsed = [], 0, 0, 0.0
    while True:
        if smoke and attempted:
            break
        if elapsed >= seconds and attempted % wl.cycle == 0:
            break
        if attempted and time.perf_counter() - PROCESS_START > START_CAP_S:
            break
        inputs = wl.draw()
        attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(wl.op, inputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        dt = time.perf_counter() - t0
        elapsed += dt
        ok = False
        if out is not None:
            try:
                ok = wl.check(inputs, out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            if on_result is not None:
                on_result(out)
        if ok:
            times.append(dt)
        else:
            failed += 1
            print(f"FAILED op on input {inputs!r}", file=sys.stderr)
        # Free the op's garbage, reference cycles included, outside the
        # timed region: each op then starts from the same heap, and
        # peak_rss_mb does not depend on when the cyclic collector ran.
        del out
        gc.collect()
        if between is not None:
            between(elapsed)
    return times, elapsed, attempted, failed


def plain(fn, inputs):
    return fn(inputs)


def end_to_end(times, elapsed, attempted, failed, setup_samples):
    """Gated metrics, and the printed-only ones: the op count, op_s_p90
    (needs at least 20 ops) and failed_share (reads 0 at the seed, and a
    gated metric must never be 0)."""
    gated = {
        "ops_per_s": (len(times) / elapsed if elapsed else 0.0, "1/s"),
        "op_s_p50": (statistics.median(times) if times else 0.0, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    printed = {"ops": (len(times), "count"),
               "failed_share": (failed / attempted, "share")}
    if len(times) >= 20:
        printed["op_s_p90"] = (statistics.quantiles(times, n=10)[-1], "s")
    return gated, printed


def traced_phase(args, wl, untraced_ops_per_s):
    """Repeat the loop with the wrappers installed; returns the per-layer
    metrics, report lines, attempted and failed."""
    from tracing import Tracer, LAYER_METRICS, layer_metrics, prediction_lines
    mods = {k: getattr(wl, k) for k in
            ("gf", "freelie", "bch", "series", "ramgen", "lifts")}
    tracer = Tracer(mods)
    tracer.calibrate()
    gauges = []
    agree = [0, 0]
    check_routes = hasattr(wl, "routes_agree")

    def on_result(out):
        alg = wl.algebra(out)
        gauges.append((len(getattr(alg, "_nf_memo", ())), alg.num_words()))
        if check_routes:
            try:
                agree[0] += bool(wl.routes_agree(out))
            except Exception:
                traceback.print_exc(file=sys.stderr)
            agree[1] += 1

    tracer.install()
    try:
        times, elapsed, attempted, failed = run_loop(
            wl, args.seconds, args.smoke, tracer.run_op, on_result)
    finally:
        tracer.uninstall()
    traced_ops_per_s = len(times) / elapsed if elapsed else 0.0
    overhead = (traced_ops_per_s / untraced_ops_per_s
                if untraced_ops_per_s else 0.0)
    values = layer_metrics(tracer, gauges, overhead, wl.bch_table_s,
                           agree[0], agree[1])
    metrics = {k: (values[k], u) for k, u in LAYER_METRICS}
    lines = prediction_lines(tracer, wl.name)
    if check_routes:
        lines.append(
            f"known defect: lifts.routes_agree = {agree[0]} of "
            f"{agree[1]} ops (lifts_agree is False at p = 5: "
            f"full_first_order_residual is nonzero); not an op failure")
    return metrics, lines, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: it strips the closing "
                 "assert of lifts.solve_lift, so the timed program differs")
    if args.setup_only:
        _, s = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": s}))
        return 0

    wl, setup_s = timed_setup(args.workload, args.seed)
    samples = [setup_s]

    def sample_setups(elapsed):
        # One more set-up in a fresh interpreter each time op time passes
        # another seconds / SETUP_SAMPLES, so the samples spread over the
        # run as the ops do and meet the same load on the host.
        while len(samples) < SETUP_SAMPLES and \
                elapsed >= len(samples) * args.seconds / SETUP_SAMPLES:
            samples.append(child_setup_s(args.workload, args.seed))

    sampling = not (args.smoke or args.trace)
    times, elapsed, attempted, failed = run_loop(
        wl, args.seconds, args.smoke, plain,
        between=sample_setups if sampling else None)
    if sampling:
        sample_setups(float("inf"))
    if args.trace:
        ops_per_s = len(times) / elapsed if elapsed else 0.0
        metrics, lines, att2, fail2 = traced_phase(args, wl, ops_per_s)
        attempted += att2
        failed += fail2
        printed = {}
    else:
        metrics, printed = end_to_end(times, elapsed, attempted, failed,
                                      samples)
        lines = []

    run = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "config": wl.config, "git_rev": git_rev(),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "untraced_ops": len(times), "setup_samples": len(samples)}
    print("run: " + json.dumps(run))
    for k, (v, u) in {**metrics, **printed}.items():
        print(f"{wl.name} {k} = {v:.6g} {u}")
    for line in lines:
        print(f"{wl.name} {line}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
