#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py A.json B.json [--manifest BENCHMARK.json]

A and B are record files written by `bench_e2e --json`. For each workload
and metric it prints the median and quartiles of each set and a verdict:
within bound, regressed, or unresolved when the spread of either set is
wider than the bound. Exits 0 when nothing regressed, 1 when a metric
regressed, and 2 when a workload or metric appears in only one of the
records and the manifest.
"""
import argparse
import json
import statistics
import sys


def load_runs(path):
    """Returns (untraced, traced): workload -> metric -> one value per run."""
    with open(path) as f:
        doc = json.load(f)
    sets = ({}, {})
    for run in doc if isinstance(doc, list) else [doc]:
        for record in run["workloads"]:
            into = sets[1] if record["traced"] else sets[0]
            metrics = into.setdefault(record["workload"], {})
            for name, m in record["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return sets


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def check_names(runs, defs, workloads, label):
    errors = []
    for workload, metrics in runs.items():
        if workload not in workloads:
            errors.append(f"{label} workload {workload} is not in the manifest")
        for name in sorted(set(metrics) - set(defs)):
            errors.append(f"{label} {workload} reports {name}, which the manifest does not list")
        for name in sorted(set(defs) - set(metrics)):
            errors.append(f"manifest lists {name}, which {label} {workload} does not report")
    return errors


def relative(diff, base):
    if base == 0:
        return 0.0 if diff == 0 else float("inf")
    return diff / abs(base)


def verdict(defn, a, b):
    """The verdict on B against A, and whether it is a regression."""
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    lower = defn["better"] == "lower"
    worse = relative(bm - am if lower else am - bm, am)  # > 0: B is worse.
    if worse == float("inf"):
        change = "A was 0"
    elif worse == 0:
        change = "unchanged"
    else:
        change = f"B {100 * abs(worse):.1f}% {'worse' if worse > 0 else 'better'}"
    bound = defn.get("bound")
    if bound is None:
        return f"{change} (no bound)", False
    spread = max(relative(a3 - a1, am), relative(b3 - b1, bm))
    if spread > bound:
        # Every B run better than every A run resolves even a wide spread.
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        head = "within bound, every B run better" if all_better else "unresolved"
        return f"{head}: spread {100 * spread:.1f}% > bound {100 * bound:.1f}%, {change}", False
    if worse > bound:
        return f"REGRESSED: {change} > bound {100 * bound:.1f}%", True
    return f"within bound: {change}, bound {100 * bound:.1f}%", False


def table(a_runs, b_runs, defs):
    print(f"{'workload':22s} {'metric':28s} {'A q1':>11s} {'A median':>11s} {'A q3':>11s} "
          f"{'B q1':>11s} {'B median':>11s} {'B q3':>11s}  verdict")
    regressions = 0
    for workload, metrics in a_runs.items():
        for name, defn in defs.items():
            a, b = metrics.get(name), b_runs.get(workload, {}).get(name)
            if not a or not b:
                continue
            text, regressed = verdict(defn, a, b)
            regressions += regressed
            cells = " ".join(f"{v:11.5g}" for v in quartiles(a) + quartiles(b))
            print(f"{workload:22s} {name:28s} {cells}  {text}")
    return regressions


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--manifest", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.manifest) as f:
        manifest = json.load(f)
    workloads = {w["name"] for w in manifest["workloads"]}
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    layers = {m["name"]: m for m in manifest["per_layer"]}
    a_untraced, a_traced = load_runs(args.a)
    b_untraced, b_traced = load_runs(args.b)

    errors = (check_names(a_untraced, e2e, workloads, "A") +
              check_names(b_untraced, e2e, workloads, "B") +
              check_names(a_traced, layers, workloads, "A (traced)") +
              check_names(b_traced, layers, workloads, "B (traced)"))
    if errors:
        for e in errors:
            print("error:", e)
        return 2

    regressions = 0
    if a_untraced:
        print(f"end-to-end ({args.a} vs {args.b})")
        regressions += table(a_untraced, b_untraced, e2e)
    if a_traced:
        print("\nper-layer (traced runs; no bounds)")
        table(a_traced, b_traced, layers)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
