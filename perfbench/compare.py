#!/usr/bin/env python3
"""Metric-by-metric summary or comparison of benchmark result sets.

    python3 perfbench/compare.py A.jsonl            # spread of one set
    python3 perfbench/compare.py A.jsonl B.jsonl    # B against A

Each file holds the JSON lines run.py --out appends, one per run. For
every workload and end-to-end metric of BENCHMARK.json it prints the
median and quartiles (Python's statistics.quantiles, n=4) and the
spread, the quartile distance as a share of the median. One set is
steady when every spread except set-up time's is below a third of the
metric's bound.

Comparing B with A, each metric gets a verdict:
- worse: B's median is worse than A's by more than the bound;
- better: B's median is better than A's by more than A's own spread;
- unresolved: the spread of either set exceeds the bound, unless every
  run of B is better (or worse) than every run of A;
- unchanged: otherwise.
A workload row is worse if any metric is, else unresolved if any is,
else better if any is, else unchanged. Exits 1 when a row is worse.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            r = json.loads(line)
            if r.get("trace", 0) != 0:
                continue
            runs.setdefault(r["workload"], []).append(r)
    return runs


def values(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a, b, m):
    lower = m["better"] == "lower"
    bound = m["bound"]
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) / abs(ma) if lower else (ma - mb) / abs(ma)

    def better(x, y):
        return x < y if lower else x > y

    if max(spread(a), spread(b)) > bound:
        if all(better(y, x) for x in a for y in b):
            return "better", worse_by
        if all(better(x, y) for x in a for y in b):
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > spread(a):
        return "better", worse_by
    return "unchanged", worse_by


def fmt(xs):
    q1, q2, q3 = quartiles(xs)
    return f"{q2:12.5g} [{q1:.5g}, {q3:.5g}]"


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = load_spec()
    a = load(sys.argv[1])
    b = load(sys.argv[2]) if len(sys.argv) == 3 else None
    any_worse = False
    for w in sorted(a):
        print(f"== {w}: {len(a[w])} runs" + (f" vs {len(b.get(w, []))} runs" if b else ""))
        row = []
        for name, m in spec.items():
            xa = values(a[w], name)
            if not xa:
                continue
            if b is None:
                s = spread(xa)
                steady = name == "setup_s" or s < m["bound"] / 3
                print(
                    f"  {name:18s} {fmt(xa)} {m['unit']:5s} spread {s:7.2%} "
                    f"bound {m['bound']:.0%} {'steady' if steady else 'NOT STEADY'}"
                )
                continue
            xb = values(b.get(w, []), name)
            if not xb:
                print(f"  {name:18s} missing in the second set")
                row.append("unresolved")
                continue
            v, worse_by = verdict(xa, xb, m)
            row.append(v)
            print(
                f"  {name:18s} A {fmt(xa)}  B {fmt(xb)} {m['unit']:5s} "
                f"worse by {worse_by:+7.2%} (bound {m['bound']:.0%}): {v}"
            )
        if b is not None:
            for v in ("worse", "unresolved", "better", "unchanged"):
                if v in row:
                    print(f"  row verdict: {v}")
                    any_worse |= v == "worse"
                    break
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
