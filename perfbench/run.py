#!/usr/bin/env python3
"""Build and run the MemFS benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <stream-32m|meta-4k|random-4k|montage-1x1> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark package (and the repository crates it uses) in
release mode into $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to standard error; the last line of standard output is the
benchmark's JSON result.

With --trace 0 the measured time is split over PARTS benchmark processes
run one after another on the same seed, each with its own set-up, warm-up
and measured phase. A process's allocator state and the shared machine's
speed change from one process to the next by more than they do within
one, so a median over processes repeats where a single process does not.

The machine is a VM on a shared host, and the hypervisor takes CPU time
from it in bursts of seconds (steal time in /proc/stat). A part during
which a tenth of the CPU time was stolen runs 20-30% slower, because the
program's threads outnumber the CPUs and wait on each other. So each
end-to-end metric is the median over the KEPT parts with the least steal;
the choice looks only at steal, measured outside the program, never at
the metrics. Every part's values and steal are printed.

With --trace 1 one process measures for the whole time and prints the
per-layer metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["stream-32m", "meta-4k", "random-4k", "montage-1x1"]
# Benchmark processes per untraced run, and how many of them (those with
# the least steal) the result is the median of.
PARTS = 8
KEPT = 4
# Seconds a part may run past its share before it is stopped.
PART_GRACE_S = 60


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=24)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args()


def build():
    """Build the benchmark binary and return its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return os.path.join(target, "release", "memfs-perfbench")


def machine_ticks():
    """The machine's CPU time counters (/proc/stat), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of the machine's CPU time the hypervisor gave to others
    (0 where /proc/stat cannot tell)."""
    if not before or not after or len(after) < 8:
        return 0.0
    d = [b - a for a, b in zip(before, after)]
    return d[7] / max(1, sum(d))


def run_part(binary, args, seconds, trace):
    """Run one benchmark process; return its report lines, its result and
    the machine's steal share while it ran."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    ticks = machine_ticks()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds * 2 + PART_GRACE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: a benchmark process timed out", file=sys.stderr)
        sys.exit(1)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    # Exit code 1 with a result line means wrong or failed operations,
    # which the result reports; anything else is a broken run.
    if result is None or done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        print(f"perfbench: benchmark process exited with {done.returncode}",
              file=sys.stderr)
        sys.exit(1)
    steal = steal_share(ticks, machine_ticks())
    return lines[:-1] + [f"machine steal {steal:.1%} of CPU time"], result, steal


def main():
    args = parse_args()
    binary = build()
    if args.trace:
        report, result, _ = run_part(binary, args, float(args.seconds), 1)
        results = kept = [result]
        print("\n".join(report))
    else:
        parts = []
        for i in range(PARTS):
            report, result, steal = run_part(binary, args, args.seconds / PARTS, 0)
            print(f"part {i + 1} of {PARTS}:")
            print("\n".join(report))
            parts.append((steal, i, result))
        results = [r for _, _, r in parts]
        kept = [r for _, _, r in sorted(parts, key=lambda p: p[:2])[:KEPT]]
        print(f"median of the {KEPT} parts with the least steal "
              f"({', '.join(f'{s:.1%}' for s, _, _ in parts)} in part order):")
    metrics = {}
    for name, first in kept[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in kept]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
        if len(results) > 1:
            every = ", ".join(f"{r['metrics'][name]['value']:.6g}" for r in results)
            print(f"  {name:<40} {metrics[name]['value']:>14.4f} {first['unit']:<7} "
                  f"parts: {every}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = all(r["correct"] for r in results) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
