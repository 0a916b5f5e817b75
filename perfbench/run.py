#!/usr/bin/env python3
"""Build and run the IVM end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run of one workload: PROCS processes of the benchmark binary
      that share --seconds, or one process when traced. The last line of
      standard output is the JSON result.

  python3 perfbench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]
      Every workload, one run each, one after another.

  python3 perfbench/run.py --steadiness K [--workload name|all] [--seconds s]
      K untraced runs of each workload, alternating the workload order and
      using seeds 1..K. Prints each end-to-end metric's median, quartiles
      and (Q3-Q1)/median next to its bound in BENCHMARK.json.

The program is built with cargo into $CARGO_TARGET_DIR (default
.bench_build), offline, from the sources in this checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The workloads BENCHMARK.json lists. serve_view_large runs only when named:
# it is left out of BENCHMARK.json (see README.md).
WORKLOADS = ["serve_point_small", "embed_batch_join"]
EXTRA = ["serve_view_large"]
RUN_TIMEOUT_S = 170
# Processes per untraced run. Two processes of the same seed can differ by
# 15-20 % for their whole life on a shared machine; the median over several
# shorter processes is steadier than one long one.
PROCS = 6


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    # Keep standard output for the result: cargo's messages go to stderr.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode or 1)
    return os.path.join(target, "release", "perfbench")


def run_process(binary, args, deadline):
    """Run the benchmark binary once; return its standard output."""
    cmd = [binary] + [str(a) for a in args]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {' '.join(cmd)} timed out", file=sys.stderr)
        sys.exit(1)
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)
    return done.stdout


def combine(results):
    """One result from the untraced processes of a run: each metric is the
    median over the processes, which a single slow process cannot move."""
    metrics = {name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                      "unit": m["unit"]}
               for name, m in results[0]["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    return {"correct": failed == 0 and all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def run_once(binary, workload, seed, seconds, trace):
    """One run; returns its standard output, the JSON result last. A traced
    run is one process; an untraced run is PROCS processes, one after
    another, that share --seconds between them."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = ["--workload", workload, "--seed", seed]
    if trace:
        return run_process(binary, base + ["--seconds", seconds, "--trace", 1], deadline)
    lines, results = [], []
    for k in range(PROCS):
        out = run_process(binary, base + ["--seconds", seconds / PROCS, "--trace", 0], deadline)
        out = out.strip().splitlines()
        lines += [f"# process {k + 1}/{PROCS} {line.lstrip('# ')}" for line in out]
        results.append(json.loads(out[-1]))
    lines.append(json.dumps(combine(results)))
    return "\n".join(lines) + "\n"


def steadiness(binary, workloads, k, seconds):
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {w: {} for w in workloads}
    for i in range(k):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            out = run_once(binary, w, i + 1, seconds, 0)
            result = json.loads(out.strip().splitlines()[-1])
            ok = result["correct"] and result["failed"] == 0
            shown = " ".join(f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
            print(f"run {i + 1}/{k} {w}: correct={ok} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}",
                  flush=True)
            if not ok:
                sys.exit(1)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
    print(f"\n{'workload':<20} {'metric':<14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, float("nan"))
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            print(f"{w:<20} {name:<14} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {bound:>6.2f}{flag}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOADS + EXTRA + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--steadiness", type=int, metavar="K")
    args = p.parse_args()
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.steadiness:
        steadiness(binary, workloads, args.steadiness, args.seconds)
        return
    for w in workloads:
        sys.stdout.write(run_once(binary, w, args.seed, args.seconds, args.trace))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
