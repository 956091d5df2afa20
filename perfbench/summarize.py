"""Summarize benchmark runs: per workload and metric, the median, the
quartiles and the spread (quartile distance over the median) of the runs.

Usage: python3 perfbench/summarize.py OUTPUT_FILE...

Each file holds the standard output of one ``run.py`` invocation (the last
line is the result, the line before it the detail report). Runs that were
not correct are listed and left out.
"""

from __future__ import annotations

import json
import statistics
import sys


def summarize(paths: list[str]) -> dict:
    values: dict = {}
    for path in paths:
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])
        prov = detail["provenance"]
        if not result["correct"]:
            print(f"not correct, left out: {path}: {detail['problems'][:3]}", file=sys.stderr)
            continue
        runs = values.setdefault(prov["workload"]["name"], {})
        for name, metric in result["metrics"].items():
            entry = runs.setdefault(name, {"unit": metric["unit"], "values": [], "seeds": []})
            entry["values"].append(metric["value"])
            entry["seeds"].append(prov["seed"])
    summary: dict = {}
    for workload, metrics in values.items():
        for name, entry in metrics.items():
            v = entry["values"]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], None, v[0])
            summary.setdefault(workload, {})[name] = {
                "unit": entry["unit"],
                "runs": len(v),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "seeds": entry["seeds"],
            }
    return summary


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    print(json.dumps(summarize(sys.argv[1:]), indent=1))
