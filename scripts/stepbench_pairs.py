#!/usr/bin/env python3
"""Run interleaved stepbench pairs of two built trees and judge the change.

Usage:
  stepbench_pairs.py --parent DIR --change DIR [--pairs N] [--seed N]
                     [--workloads a,b,c] [--parent-rev R] [--change-rev R]
                     [--append]

DIR is a source tree whose stepbench is already built
(`cargo build --release --offline --manifest-path stepbench/Cargo.toml`
inside it). Each run starts DIR/stepbench/target/release/sisd-stepbench
with DIR as its working directory, so the two sides never share a
snapshot directory. Pair i runs every workload on both sides, the parent
first when i is even and the change first when i is odd. Every run lasts
BENCHMARK.json's run_seconds.

Each run contributes the JSON object stepbench prints as its last line,
its wall time, and the guest steal time the host reported in /proc/stat
while it ran. The output file, BENCH_stepbench.json at the root of this
repository, holds the provenance, every run, and, per workload and
end-to-end metric of BENCHMARK.json, each side's q1/median/q3, the
change/parent ratio of the medians, the pairs the change won (ties count
for neither side), the metric's bound and a verdict:

  regressed      the change's median is worse than the parent's by more
                 than the bound;
  unresolved     fewer than 10 pairs;
  gain resolved  the change won at least 9 in 10 pairs and its median is
                 better by more than the parent's interquartile range;
  unresolved     the parent's interquartile range is wider than the bound
                 (relative to its median), unless every change run reads
                 better than every parent run;
  within bound   otherwise.

--append adds this invocation's runs and results to an existing output
file (a held-out seed, say). The script exits non-zero when any verdict
is `regressed` or any run failed its output checks. It reads
BENCHMARK.json and runs stepbench, and writes only the output file.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = os.path.join("stepbench", "target", "release", "sisd-stepbench")
SIDES = ("parent", "change")
OUT = os.path.join(ROOT, "BENCH_stepbench.json")
# Fewer pairs than this resolve nothing but a regression.
MIN_PAIRS = 10


def quantile(samples, q):
    """Linear interpolation between order statistics, as stepbench does."""
    if not samples:
        return None
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def steal_ticks():
    """Guest steal time of all CPUs so far, in clock ticks."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def command_output(args, cwd=None):
    try:
        out = subprocess.run(args, cwd=cwd, capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unavailable"


def run_once(tree, workload, seed, seconds):
    """One stepbench run; its last-line JSON plus timing and steal."""
    tick = os.sysconf("SC_CLK_TCK")
    cmd = [os.path.join(tree, BINARY), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    steal0, t0 = steal_ticks(), time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    wall = time.monotonic() - t0
    steal = (steal_ticks() - steal0) / tick
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    return {
        "exit": proc.returncode,
        "correct": bool(result.get("correct")) and proc.returncode == 0,
        "wall_s": round(wall, 3),
        "steal_s": round(steal, 3),
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def judge(parent, change, better, bound):
    """Summary and verdict of one metric over paired runs."""
    lower = better == "lower"
    p = [x for x in parent if x is not None]
    c = [x for x in change if x is not None]
    summary = {side: {"q1": quantile(v, 0.25), "median": quantile(v, 0.5),
                      "q3": quantile(v, 0.75)}
               for side, v in (("parent", p), ("change", c))}
    pm, cm = summary["parent"]["median"], summary["change"]["median"]
    pairs = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    won = sum(1 for a, b in pairs if (b < a if lower else b > a))
    out = dict(summary, ratio=(cm / pm if pm else None), pairs_won=won,
               pairs=len(pairs), bound=bound)
    if pm is None or cm is None:
        out["verdict"] = "unresolved"
        return out
    worse = cm - pm if lower else pm - cm
    iqr = summary["parent"]["q3"] - summary["parent"]["q1"]
    separated = (max(c) < min(p)) if lower else (min(c) > max(p))
    if worse > bound * abs(pm):
        verdict = "regressed"
    elif len(pairs) < MIN_PAIRS:
        verdict = "unresolved"
    elif won >= 0.9 * len(pairs) and -worse > iqr:
        verdict = "gain resolved"
    elif iqr > bound * abs(pm) and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    out["verdict"] = verdict
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--parent-rev", help="label of the parent tree (default: its git HEAD)")
    ap.add_argument("--change-rev", help="label of the change tree (default: its git HEAD)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2018)
    ap.add_argument("--workloads", help="comma-separated (default: all of BENCHMARK.json)")
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for side, tree in trees.items():
        if not os.access(os.path.join(tree, BINARY), os.X_OK):
            sys.exit(f"{side}: no built stepbench at {os.path.join(tree, BINARY)}")
    revs = {"parent": args.parent_rev, "change": args.change_rev}
    for side in SIDES:
        revs[side] = revs[side] or command_output(["git", "rev-parse", "HEAD"], trees[side])

    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for position, side in enumerate(order):
                r = run_once(trees[side], w, args.seed, seconds)
                r.update(workload=w, seed=args.seed, pair=i, side=side, first=position == 0)
                runs.append(r)
                print(f"pair {i} {w} {side}: exit {r['exit']} steal {r['steal_s']} s "
                      + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()),
                      flush=True)

    results = []
    for w in workloads:
        by_side = {side: sorted((r for r in runs if r["workload"] == w and r["side"] == side),
                                key=lambda r: r["pair"]) for side in SIDES}
        metrics = {}
        for m in bench["end_to_end"]:
            vals = {side: [r["metrics"].get(m["name"]) if r["correct"] else None
                           for r in by_side[side]] for side in SIDES}
            metrics[m["name"]] = dict(unit=m["unit"], better=m["better"],
                                      **judge(vals["parent"], vals["change"],
                                              m["better"], m["bound"]))
        results.append({"workload": w, "seed": args.seed, "pairs": args.pairs,
                        "seconds": seconds, "metrics": metrics})

    doc = {
        "provenance": {
            "parent": {"rev": revs["parent"]},
            "change": {"rev": revs["change"]},
            "rustc": command_output(["rustc", "--version"]),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "protocol": "interleaved pairs of untraced stepbench runs, first side "
                        "alternating; steal_s is the host's guest steal time "
                        "(/proc/stat) during each run",
        },
        "results": [],
        "runs": [],
    }
    if args.append and os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    doc["results"] += results
    doc["runs"] += runs
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")

    bad = False
    for res in results:
        for name, m in res["metrics"].items():
            print(f"{res['workload']:<22} seed {res['seed']:<5} {name:<12} "
                  f"parent {m['parent']['median']} change {m['change']['median']} "
                  f"won {m['pairs_won']}/{m['pairs']}  {m['verdict']}")
            bad |= m["verdict"] == "regressed"
    failed = [r for r in runs if not r["correct"]]
    for r in failed:
        print(f"run failed: pair {r['pair']} {r['workload']} {r['side']} (exit {r['exit']})")
    sys.exit(1 if bad or failed else 0)


if __name__ == "__main__":
    main()
