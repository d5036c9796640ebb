#!/usr/bin/env python3
"""Compare the benchmark runs of two commits.

Collect at least ten alternating pairs per workload from two checkouts
(pair k runs both sides on seed base+k; even pairs run the parent first,
odd pairs the change first):

    python3 benchsuite/compare.py run --parent ../parent --change . --out cmp [--pairs 10]

then rule on every metric of every workload:

    python3 benchsuite/compare.py report cmp

Each run's stdout is kept as <out>/<side>/<workload>/<pair>.txt. For every
metric the report prints each side's median and quartiles, and a verdict:

  gain        the change is better in at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  regression  the change's median is worse than the parent's by more than
              max(bound x parent median, floor)
  unresolved  the parent's own spread is wider than that allowance and not
              every change run beats every parent run
  same        otherwise

Bounds come from BENCHMARK.json; floors from FLOORS below. Metrics without a
bound (per-layer and workload-specific numbers) are listed with their
medians only. Gains do not count when the change fails more checks.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# Absolute slack below which a difference is noise, whatever the bound says.
FLOORS = {"setup_s": 0.05, "peak_rss_mb": 8.0}


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return spec, better, bounds


def collect(args):
    spec, _, _ = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    checkouts = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for workload in workloads:
        for k in range(args.pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                out = Path(args.out) / side / workload / f"{k}.txt"
                out.parent.mkdir(parents=True, exist_ok=True)
                cmd = [sys.executable, "benchsuite/run.py", "--workload", workload,
                       "--seed", str(args.seed + k), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=checkouts[side], stdout=subprocess.PIPE,
                                      text=True)
                out.write_text(proc.stdout)
                print(f"{workload} pair {k} {side}: exit {proc.returncode}", file=sys.stderr)
    return 0


def parse_run(path):
    """Metrics ({name: value}) and failed-check count of one run's stdout;
    a run that printed no result line counts as one failure."""
    metrics, failed = {}, 1
    for line in path.read_text().splitlines():
        if line.startswith("{"):
            failed = json.loads(line)["failed"]
            continue
        parts = line.split()
        if len(parts) == 3:
            try:
                metrics[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return metrics, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(name, parent, change, better, bounds):
    if name not in bounds:
        return "-"
    sign = 1.0 if better[name] == "lower" else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    allowance = max(bounds[name] * abs(pmed), FLOORS.get(name, 0.0))
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pmed - cmed) > p3 - p1:
        return "gain"
    if sign * (cmed - pmed) > allowance:
        return "regression"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if p3 - p1 > allowance and not all_better:
        return "unresolved"
    return "same"


def report(args):
    _, better, bounds = load_spec()
    base = Path(args.out)
    workloads = sorted(p.name for p in (base / "parent").iterdir() if p.is_dir())
    for workload in workloads:
        runs = {}
        failed = {}
        for side in SIDES:
            files = sorted((base / side / workload).glob("*.txt"), key=lambda p: int(p.stem))
            parsed = [parse_run(f) for f in files]
            runs[side] = [m for m, _ in parsed]
            failed[side] = sum(f for _, f in parsed)
        pairs = min(len(runs["parent"]), len(runs["change"]))
        print(f"\n## {workload}  ({pairs} pairs; failed checks parent {failed['parent']}, "
              f"change {failed['change']})")
        if pairs < 10:
            print("   fewer than 10 pairs: no gain can be claimed")
        print(f"   {'metric':32} {'parent q1/med/q3':>36} {'change q1/med/q3':>36}  verdict")
        names = [n for n in runs["parent"][0]
                 if all(n in r for s in SIDES for r in runs[s][:pairs])]
        for name in names:
            parent = [r[name] for r in runs["parent"][:pairs]]
            change = [r[name] for r in runs["change"][:pairs]]
            rule = verdict(name, parent, change, better, bounds)
            if rule == "gain" and failed["change"] > failed["parent"]:
                rule = "gain void (more failures)"
            if rule == "gain" and pairs < 10:
                rule = "same"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"   {name:32} {fmt(quartiles(parent)):>36} {fmt(quartiles(change)):>36}  {rule}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="collect alternating pairs from two checkouts")
    run.add_argument("--parent", required=True)
    run.add_argument("--change", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    run.add_argument("--seconds", type=float, default=10.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--workloads", help="comma-separated subset")
    rep = sub.add_parser("report", help="rule on the collected runs")
    rep.add_argument("out")
    args = parser.parse_args()
    return collect(args) if args.command == "run" else report(args)


if __name__ == "__main__":
    sys.exit(main())
