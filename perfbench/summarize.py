"""Spread of repeated benchmark runs, per workload and metric.

    python3 perfbench/summarize.py .perfbench/results/*.json
    python3 perfbench/summarize.py --json OUT.json FILES...

For each (workload, trace, metric) it prints the median of the per-run
values, the quartiles from statistics.quantiles(values, n=4), and the
spread (Q3 - Q1) / median against a third of the metric's bound in
BENCHMARK.json, the steadiness target. --json also writes the table and
the per-run environment records and samples.
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    for path in paths:
        doc = json.loads(Path(path).read_text())
        yield from doc.get("runs", [doc])


def summarize(runs):
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values = defaultdict(list)
    failed = defaultdict(int)
    attempted = defaultdict(int)
    for r in runs:
        key = (r["workload"], r["trace"])
        failed[key] += r["failed"]
        attempted[key] += r["attempted"]
        for name, m in r["metrics"].items():
            values[key + (name,)].append(m["value"])
    table = []
    for (workload, trace, name), vals in sorted(values.items()):
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
        spread = (q3 - q1) / med if med else 0.0
        table.append({
            "workload": workload, "trace": trace, "metric": name, "runs": len(vals),
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": bounds.get(name) if not trace else None,
            "failed_ratio": failed[(workload, trace)] / attempted[(workload, trace)],
        })
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--json", help="write the table and environments here")
    args = parser.parse_args()
    runs = list(load(args.files))
    table = summarize(runs)
    for row in table:
        target = ""
        if row["bound"] is not None:
            ok = row["spread"] < row["bound"] / 3
            target = f"  target < {row['bound'] / 3:.3f} {'ok' if ok else 'WIDE'}"
        print(f"{row['workload']:<15} t{row['trace']} {row['metric']:<42} "
              f"n={row['runs']:<3} median {row['median']:<12.6g} "
              f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
              f"spread {row['spread']:.4f}{target}")
    if args.json:
        keys = ("workload", "seed", "trace", "env", "metrics", "attempted",
                "failed", "samples")
        Path(args.json).write_text(json.dumps({
            "summary": table,
            "runs": [{k: r[k] for k in keys if k in r} for r in runs],
        }) + "\n")


if __name__ == "__main__":
    main()
