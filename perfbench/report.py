#!/usr/bin/env python3
"""Summarise or compare benchmark result logs.

    python3 perfbench/report.py A.jsonl            # per-metric median and spread
    python3 perfbench/report.py A.jsonl B.jsonl    # B's medians against A's

The logs are the `results.jsonl` files that `run.py` appends to. Only
untraced runs are read. The spread is the distance between the first
and third quartiles (`statistics.quantiles(values, n=4)`) as a share of
the median. Two logs are compared only if every (workload, seed) they
share was run on inputs with the same content hashes; otherwise the
script refuses and exits 2.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if rec.get("trace") == 0:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(recs):
    """{metric: (n, median, spread)} over the records."""
    out = {}
    for name in recs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in recs if name in r["metrics"]]
        med = statistics.median(values)
        spread = 0.0
        if len(values) >= 2 and med:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med
        out[name] = (len(values), med, spread)
    return out


def hash_conflicts(a, b):
    seen = {}
    for rec in a:
        seen[rec["seed"]] = rec["hashes"]
    return sorted({r["seed"] for r in b if r["seed"] in seen and seen[r["seed"]] != r["hashes"]})


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    logs = [load(p) for p in argv[1:]]
    bench = json.loads(BENCHMARK.read_text()) if BENCHMARK.is_file() else {}
    bounds = {m["name"]: m for m in bench.get("end_to_end", [])}
    if len(logs) == 2:
        for workload in logs[0].keys() & logs[1].keys():
            bad = hash_conflicts(logs[0][workload], logs[1][workload])
            if bad:
                print(f"refusing to compare: {workload} inputs differ for seeds {bad}", file=sys.stderr)
                return 2
    worse = False
    for workload in sorted(logs[-1]):
        print(f"== {workload}")
        base = summary(logs[0][workload]) if len(logs) == 2 and workload in logs[0] else None
        for name, (n, med, spread) in summary(logs[-1][workload]).items():
            line = f"  {name:16s} n={n:<3d} median={med:<14.6g} spread={spread:.3f}"
            if base and name in base:
                change = med / base[name][1] - 1 if base[name][1] else 0.0
                line += f"  vs {base[name][1]:.6g} ({100 * change:+.1f} %)"
                meta = bounds.get(name)
                if meta:
                    loss = -change if meta["better"] == "higher" else change
                    if loss > meta["bound"]:
                        line += "  WORSE THAN BOUND"
                        worse = True
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
