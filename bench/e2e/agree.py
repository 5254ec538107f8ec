#!/usr/bin/env python3
"""Compares two sets of bench_e2e results and says where they differ.

    python3 bench/e2e/agree.py --base A.json [A2.json ...] --new B.json [...]

Inputs are JSON arrays of results as `run.py --out` writes them. For each
(workload, end-to-end metric) it prints each side's median and quartiles
and a verdict, using the bounds in BENCHMARK.json:

  improved    at least 10 pairs, the new side better in at least 9 of every
              10 (ties count for neither), and the medians further apart
              than the base side's interquartile range
  worse       the new median is worse than the base median by more than the
              metric's bound (a share of the base median)
  unresolved  the base side's interquartile range is wider than the bound
              and not every new value beats every base value
  agree       otherwise

The i-th results of the two sides for a workload form a pair, so run the
sides alternately. Per-layer host metrics are printed without a verdict.
Exact metrics (simulated results and counts) and digests must be equal
between results of the same workload, seed and trace mode.

Exit status 1 if any metric is worse or any exact value differs.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    results = []
    for path in paths:
        results.extend(json.loads(Path(path).read_text()))
    return results


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    """Verdict for one host metric; `better` is "lower" or "higher"."""
    sign = 1.0 if better == "higher" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (n_med - b_med) > b_q3 - b_q1):
        return "improved"
    if sign * (n_med - b_med) < -bound * abs(b_med):
        return "worse"
    if (b_q3 - b_q1) > bound * abs(b_med) and \
            not min(sign * n for n in new) > max(sign * b for b in base):
        return "unresolved"
    return "agree"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def by_workload(results, trace):
    groups = defaultdict(list)
    for r in results:
        if r.get("trace", 0) == trace:
            groups[r["workload"]].append(r)
    return groups


def compare_host(spec, base, new):
    worse = False
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    b_groups, n_groups = by_workload(base, 0), by_workload(new, 0)
    print(f"{'workload':<18} {'metric':<14} {'base median [q1, q3]':<40} "
          f"{'new median [q1, q3]':<40} verdict")
    for w in sorted(set(b_groups) & set(n_groups)):
        for name, m in bounds.items():
            b = [r["metrics"][name]["value"] for r in b_groups[w]]
            n = [r["metrics"][name]["value"] for r in n_groups[w]]
            v = verdict(b, n, m["better"], m["bound"])
            worse = worse or v == "worse"
            print(f"{w:<18} {name:<14} {fmt(b):<40} {fmt(n):<40} {v}")
    return worse


def compare_layers(spec, base, new):
    b_groups, n_groups = by_workload(base, 1), by_workload(new, 1)
    for w in sorted(set(b_groups) & set(n_groups)):
        print(f"\nper-layer host metrics, {w}:")
        for m in spec["per_layer"]:
            name = m["name"]
            b = [r["metrics"][name] for r in b_groups[w]]
            n = [r["metrics"][name] for r in n_groups[w]]
            if b[0].get("exact"):
                continue
            print(f"  {name:<24} {fmt([x['value'] for x in b]):<40} "
                  f"{fmt([x['value'] for x in n])}")


def compare_exact(base, new):
    """Digests and exact metrics of equal (workload, seed, trace) runs."""
    def index(results):
        out = {}
        for r in results:
            out.setdefault((r["workload"], r["seed"], r.get("trace", 0)), r)
        return out
    b_index, n_index = index(base), index(new)
    mismatches = 0
    for key in sorted(set(b_index) & set(n_index)):
        b, n = b_index[key], n_index[key]
        if b["digest"] != n["digest"]:
            print(f"DIGEST {key}: {b['digest']} -> {n['digest']}")
            mismatches += 1
        for name, bm in b["metrics"].items():
            nm = n["metrics"].get(name)
            if bm.get("exact") and (nm is None or nm["value"] != bm["value"]):
                print(f"EXACT {key} {name}: {bm['value']} -> "
                      f"{None if nm is None else nm['value']}")
                mismatches += 1
    compared = len(set(b_index) & set(n_index))
    print(f"\nexact metrics and digests: {compared} run pairs compared, "
          f"{mismatches} differences")
    return mismatches > 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(args.base), load(args.new)
    worse = compare_host(spec, base, new)
    compare_layers(spec, base, new)
    differs = compare_exact(base, new)
    return 1 if worse or differs else 0


if __name__ == "__main__":
    sys.exit(main())
