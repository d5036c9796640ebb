#!/usr/bin/env python3
"""Plot aquamac sweep results as paper-style line figures.

Accepts either:
  * sweep CSVs from `aquamac_compare --csv` (or bench tables piped
    through `print_csv`): header row `x,PROTO1,PROTO2,...`, one numeric
    row per x;
  * BENCH_*.json files emitted by the bench binaries (schema
    aquamac-bench-v1): pick the metric with --metric (defaults to the
    file's first series);
  * BENCH_fault.json degradation curves (schema aquamac-bench-fault-v1):
    one sweep per fault axis — pick the axis with --axis (defaults to
    the file's first axis, drift_ppm);
  * BENCH_multihop.json routing comparisons (schema
    aquamac-bench-multihop-v1): grouped bars of one metric per routing
    kind — pick the experiment with --axis (grid or outage) and the
    metric with --metric (defaults to delivery_ratio);
  * BENCH_reliability.json ARQ degradation curves (schema
    aquamac-bench-reliability-v1): one line per arm (arq vs noarq) —
    pick the experiment with --axis (loss or storm) and the metric
    with --metric (defaults to delivery_ratio).

Usage:
    tools/aquamac_compare --x load --metric throughput_kbps --csv fig6.csv
    scripts/plot_results.py fig6.csv --ylabel "Throughput (kbps)" -o fig6.png
    scripts/plot_results.py BENCH_fig6_throughput_load.json --metric throughput_kbps
    scripts/plot_results.py BENCH_fault.json --axis outage_per_hour
    scripts/plot_results.py BENCH_multihop.json --axis outage --metric delivery_ratio

Requires matplotlib (not needed for the simulation itself).
"""

import argparse
import csv
import json
import sys


def load_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise SystemExit(f"{path}: no data rows")
    header = rows[0]
    xs = [float(r[0]) for r in rows[1:]]
    series = {
        name: [float(r[i]) for r in rows[1:]]
        for i, name in enumerate(header[1:], start=1)
    }
    return header[0], xs, series


def load_fault_json(doc, path, metric=None, axis=None):
    axes = doc.get("axes", {})
    if not axes:
        raise SystemExit(f"{path}: no axes")
    if axis is None:
        axis = next(iter(axes))
    if axis not in axes:
        raise SystemExit(f"{path}: no axis {axis!r}; available: {', '.join(axes)}")
    all_series = axes[axis].get("series", {})
    if metric is None:
        metric = next(iter(all_series))
    if metric not in all_series:
        raise SystemExit(
            f"{path}: no metric {metric!r}; available: {', '.join(all_series)}"
        )
    if not doc.get("monotone_ok"):
        print(f"warning: {path} recorded a failed monotone gate", file=sys.stderr)
    return axis, axes[axis]["xs"], all_series[metric], metric, None


def load_multihop_json(doc, path, metric=None, axis=None):
    """Categorical schema: experiment -> series -> metric -> routing kind.

    Returned as one bar per routing kind; `ticks` carries the kind names.
    """
    experiments = {k: v for k, v in doc.items() if isinstance(v, dict) and "series" in v}
    if not experiments:
        raise SystemExit(f"{path}: no experiments")
    if axis is None:
        axis = next(iter(experiments))
    if axis not in experiments:
        raise SystemExit(
            f"{path}: no experiment {axis!r}; available: {', '.join(experiments)}"
        )
    all_series = experiments[axis]["series"]
    if metric is None:
        metric = "delivery_ratio" if "delivery_ratio" in all_series else next(iter(all_series))
    if metric not in all_series:
        raise SystemExit(
            f"{path}: no metric {metric!r}; available: {', '.join(all_series)}"
        )
    by_kind = all_series[metric]
    if axis == "grid" and not experiments[axis].get("dv_delivery_ok"):
        print(f"warning: {path} recorded a failed grid delivery gate", file=sys.stderr)
    if axis == "outage" and not experiments[axis].get("dv_beats_greedy"):
        print(f"warning: {path} recorded dv not beating greedy", file=sys.stderr)
    ticks = list(by_kind)
    return axis, list(range(len(ticks))), {metric: list(by_kind.values())}, metric, ticks


def load_reliability_json(doc, path, metric=None, axis=None):
    """ARQ-vs-baseline schema: experiment -> {arq, noarq} -> metric -> ys.

    Plots one line per arm so the degradation gap is visible; defaults to
    the loss sweep's delivery_ratio.
    """
    experiments = {k: v for k, v in doc.items() if isinstance(v, dict) and "arq" in v}
    if not experiments:
        raise SystemExit(f"{path}: no experiments")
    if axis is None:
        axis = "loss" if "loss" in experiments else next(iter(experiments))
    if axis not in experiments:
        raise SystemExit(
            f"{path}: no experiment {axis!r}; available: {', '.join(experiments)}"
        )
    exp = experiments[axis]
    arms = {k: v for k, v in exp.items() if isinstance(v, dict)}
    if metric is None:
        metric = "delivery_ratio"
    first = next(iter(arms.values()))
    if metric not in first:
        raise SystemExit(
            f"{path}: no metric {metric!r}; available: {', '.join(first)}"
        )
    for gate in ("monotone_ok", "beats_baseline_ok"):
        if gate in exp and not exp[gate]:
            print(f"warning: {path} recorded a failed {gate} gate", file=sys.stderr)
    if not doc.get("shard_invariant", 1):
        print(f"warning: {path} recorded a shard-variant run", file=sys.stderr)
    xs = exp.get("xs", list(range(len(first[metric]))))
    return axis, xs, {arm: ys[metric] for arm, ys in arms.items()}, metric, None


def load_bench_json(path, metric=None, axis=None):
    with open(path) as handle:
        doc = json.load(handle)
    schema = doc.get("schema")
    if schema == "aquamac-bench-multihop-v1":
        return load_multihop_json(doc, path, metric, axis)
    if schema == "aquamac-bench-fault-v1":
        return load_fault_json(doc, path, metric, axis)
    if schema == "aquamac-bench-reliability-v1":
        return load_reliability_json(doc, path, metric, axis)
    if schema != "aquamac-bench-v1":
        raise SystemExit(f"{path}: unknown schema {schema!r}")
    all_series = doc.get("series", {})
    if not all_series:
        raise SystemExit(f"{path}: no series")
    if metric is None:
        metric = next(iter(all_series))
    if metric not in all_series:
        raise SystemExit(
            f"{path}: no metric {metric!r}; available: {', '.join(all_series)}"
        )
    wall = doc.get("wall_s")
    jobs = doc.get("jobs")
    if wall is not None and jobs is not None:
        print(f"{doc.get('bench')}: {doc.get('total_runs')} runs in {wall:.3g} s "
              f"(jobs={jobs})")
    return "x", doc["xs"], all_series[metric], metric, None


def load(path, metric=None, axis=None):
    if path.endswith(".json"):
        return load_bench_json(path, metric, axis)
    x_name, xs, series = load_csv(path)
    return x_name, xs, series, None, None


STYLES = {
    "S-FAMA": dict(marker="s", linestyle="--"),
    "ROPA": dict(marker="^", linestyle="-."),
    "CS-MAC": dict(marker="o", linestyle=":"),
    "EW-MAC": dict(marker="*", linestyle="-"),
    "MACA-U": dict(marker="v", linestyle="--"),
}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "input", help="sweep CSV, or a BENCH_*.json from the bench binaries"
    )
    parser.add_argument("-o", "--output", help="output image (default: <input>.png)")
    parser.add_argument(
        "--metric",
        default=None,
        help="series to plot from a BENCH_*.json (default: its first metric)",
    )
    parser.add_argument(
        "--axis",
        default=None,
        help="fault axis to plot from a BENCH_fault.json (default: its first axis)",
    )
    parser.add_argument("--xlabel", default=None)
    parser.add_argument("--ylabel", default=None)
    parser.add_argument("--title", default=None)
    args = parser.parse_args()

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        raise SystemExit("matplotlib is required: pip install matplotlib")

    x_name, xs, series, metric, ticks = load(args.input, args.metric, args.axis)
    fig, ax = plt.subplots(figsize=(6, 4.2))
    if ticks is not None:
        for name, ys in series.items():
            ax.bar(xs, ys, width=0.6, label=name)
        ax.set_xticks(xs)
        ax.set_xticklabels(ticks)
    else:
        for name, ys in series.items():
            ax.plot(xs, ys, label=name, **STYLES.get(name, dict(marker=".")))
    ax.set_xlabel(args.xlabel or x_name)
    ax.set_ylabel(args.ylabel or metric or "metric")
    if args.title:
        ax.set_title(args.title)
    ax.grid(True, alpha=0.3)
    ax.legend()
    fig.tight_layout()

    output = args.output or (args.input.rsplit(".", 1)[0] + ".png")
    fig.savefig(output, dpi=150)
    print(f"wrote {output}")


if __name__ == "__main__":
    sys.exit(main())
