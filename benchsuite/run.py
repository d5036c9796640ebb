#!/usr/bin/env python3
"""Build and run the AquaMAC benchmark (README.md in this directory).

    python3 benchsuite/run.py --workload grid_serial --seed 7 --seconds 20 --trace 0
    python3 benchsuite/run.py              # every workload, timed + traced
    python3 benchsuite/run.py --smoke      # small sizes, checks the result format

Builds bench_suite from source (Release, in benchsuite-<hash of the checkout
path> under $CARGO_TARGET_DIR or .bench_build), runs one workload per
process and prints every metric as
`name value unit`. A single-workload run ends with one JSON result line
whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Each bench_suite process must finish inside the benchmark's 180 s limit.
RUN_TIMEOUT_S = 170


def log(*parts):
    print("[run.py]", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_suite; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no simulator sources at {ROOT / 'src'}; cannot build bench_suite")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    # One build directory per source tree: checkouts sharing an absolute
    # CARGO_TARGET_DIR must not build (and time) each other's sources.
    tree = hashlib.sha1(str(ROOT).encode()).hexdigest()[:12]
    build_dir = build_root / f"benchsuite-{tree}"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs, "--target", "bench_suite"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return build_dir / "bench_suite"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """Runs one workload process; returns (stdout lines, result dict or None, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if trace:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return [], None, 124
    lines = proc.stdout.splitlines()
    result = None
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        pass
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"{workload}: bench_suite printed no result line (exit {proc.returncode})")
        return lines, None, proc.returncode or 1
    differ = expected_metrics(trace) ^ set(result["metrics"])
    if differ:
        log(f"{workload}: metrics differ from BENCHMARK.json: {sorted(differ)}")
        return lines[:-1], None, 3
    return lines, result, proc.returncode


def smoke(binary):
    """Every workload at smoke size, timed and traced: all metrics present, no failure."""
    ok = True
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            _, result, code = run_workload(binary, workload["name"], None, 0, trace, smoke=True)
            passed = result is not None and code == 0 and result["correct"] \
                and result["failed"] == 0 and result["attempted"] >= 1
            log(f"smoke {workload['name']} trace={trace}: {'ok' if passed else 'FAIL'}")
            ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default: all of them, traced")
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="wall seconds the timed pass measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the traced pass and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes of every workload, timed and traced")
    parser.add_argument("--binary", type=Path,
                        help="use this bench_suite binary instead of building one")
    args = parser.parse_args()

    binary = args.binary or build()
    if args.smoke:
        return smoke(binary)
    if args.workload:
        lines, result, code = run_workload(binary, args.workload, args.seed, args.seconds,
                                           args.trace)
        print("\n".join(lines), flush=True)
        return code if result is not None else (code or 1)
    # Every workload in its own process: one timed unit, then the traced pass.
    worst = 0
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        print(f"# {workload['name']}", flush=True)
        lines, result, code = run_workload(binary, workload["name"], args.seed, 0, 1)
        print("\n".join(lines[:-1] if result is not None else lines), flush=True)
        worst = max(worst, code if result is not None else (code or 1))
    return worst


if __name__ == "__main__":
    sys.exit(main())
