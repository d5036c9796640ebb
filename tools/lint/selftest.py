#!/usr/bin/env python3
"""aquamac-lint self-test: every rule fires on its known-bad snippet and
stays quiet on the known-good one, with exit codes and messages asserted.

Each corpus file is linted in its OWN invocation: the analyzer's
unordered-symbol table is global across the files of one run (that is
what lets it catch accessor iteration across header/impl pairs), so
bad-file symbols must not leak into good-file checks here.

Usage: selftest.py <aquamac_lint binary> <testdata dir>
"""

import subprocess
import sys
from pathlib import Path

# (file, expected exit, substrings that MUST appear, substrings that MUST NOT)
CASES = [
    # wall-clock
    ("wall_clock_bad.cpp", 1,
     ["[wall-clock]", "steady_clock", "system_clock", "srand", "std::rand", "std::time"], []),
    ("wall_clock_good.cpp", 0, ["0 finding(s)"], ["[wall-clock]"]),
    ("wall_clock_allowed.cpp", 0, ["0 finding(s)"], ["[wall-clock]"]),
    ("allow_mismatch.cpp", 1, ["[wall-clock]", "steady_clock"], []),
    # unordered-iter
    ("unordered_iter_bad.cpp", 1,
     ["[unordered-iter]", "delays_", "entries", "peers_"], []),
    ("unordered_iter_good.cpp", 0, ["0 finding(s)"], ["[unordered-iter]"]),
    # rng-discipline
    ("rng_discipline_bad.cpp", 1,
     ["[rng-discipline]", "mt19937", "uniform_real_distribution",
      "uniform_int_distribution", "#include <random>"], []),
    ("rng_discipline_good.cpp", 0, ["0 finding(s)"], ["[rng-discipline]"]),
    # rng-root
    ("rng_root_bad.cpp", 1, ["[rng-root]", "'a'", "'b'", "'c'"], []),
    ("rng_root_good.cpp", 0, ["0 finding(s)"], ["[rng-root]"]),
    ("rng_root_allowed.cpp", 0, ["0 finding(s)"], ["[rng-root]"]),
    # raw-ns (path-scoped to mac/ and sim/ directories)
    ("mac/raw_ns_bad.cpp", 1, ["[raw-ns]", "count_ns", "guard_ns"], []),
    ("mac/raw_ns_good.cpp", 0, ["0 finding(s)"], ["[raw-ns]"]),
    ("raw_ns_outside_scope.cpp", 0, ["0 finding(s)"], ["[raw-ns]"]),
    # state-coverage
    ("state_coverage_bad.cpp", 1,
     ["[state-coverage]",
      "member 'highwater_' of 'Queue' is not referenced in Queue::visit_state",
      "member 'drift_' of 'Queue'",
      "member 'deadline' of 'Queue::Slot'",
      "member 'received' of 'Tally' is not referenced in Tally::for_each_field"],
     ["'head_'", "'limit_'", "'seq'", "'sent'"]),
    ("state_coverage_good.cpp", 0, ["0 finding(s)"], ["[state-coverage]"]),
    # Mutation self-test: the good corpus with one member reference
    # deleted must fire on exactly that member.
    ("state_coverage_mutation.cpp", 1,
     ["[state-coverage]",
      "member 'depth_' of 'Channel' is not referenced in Channel::visit_state",
      "1 finding(s)"],
     ["clock_", "ticks", "skew", "epoch_", "scratch_", "limit_", "sent", "received"]),
    # trace-kind-exhaustive
    ("trace_exhaustive_bad.cpp", 1,
     ["[trace-kind-exhaustive]", "TraceEventKind::kRxLost",
      "TraceEventKind::kNeighborDead"], ["kTxStart", "kRxOk"]),
    ("trace_exhaustive_good.cpp", 0,
     ["0 finding(s)"], ["[trace-kind-exhaustive]"]),
    ("trace_unregistered_bad.cpp", 1,
     ["[trace-kind-exhaustive]", "no registered"], []),
    # shard-shared-mutable
    ("shard_shared_bad.cpp", 1,
     ["[shard-shared-mutable]", "event_budget", "Dispatcher::sequence_",
      "fallback_seq"], []),
    ("shard_shared_good.cpp", 0, ["0 finding(s)"], ["[shard-shared-mutable]"]),
    # lint-directive meta-rule
    ("directive_bad.cpp", 1,
     ["[lint-directive]", "unknown lint directive 'frobnicate'",
      "'ckpt-skip' exemption without a reason"], []),
]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    binary, testdata = sys.argv[1], Path(sys.argv[2])

    failures = []
    for name, want_exit, must, must_not in CASES:
        path = testdata / name
        if not path.exists():
            failures.append(f"{name}: corpus file missing")
            continue
        proc = subprocess.run([binary, str(path)], capture_output=True, text=True)
        out = proc.stdout + proc.stderr
        if proc.returncode != want_exit:
            failures.append(
                f"{name}: exit {proc.returncode}, want {want_exit}\n{out}")
            continue
        for s in must:
            if s not in out:
                failures.append(f"{name}: missing expected output {s!r}\n{out}")
        for s in must_not:
            if s in out:
                failures.append(f"{name}: unexpected output {s!r}\n{out}")

    # The allowlist audit must list annotations with their reasons.
    proc = subprocess.run(
        [binary, str(testdata / "wall_clock_allowed.cpp"), "--list-allows"],
        capture_output=True, text=True)
    if proc.returncode != 0 or "allow(wall-clock)" not in proc.stdout \
            or "harness wall-timing" not in proc.stdout:
        failures.append(f"--list-allows audit failed\n{proc.stdout}{proc.stderr}")

    if failures:
        print(f"lint selftest: {len(failures)} FAILURE(S)")
        for f in failures:
            print("  FAIL", f)
        return 1
    print(f"lint selftest: all {len(CASES)} corpus cases + allowlist audit passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
