"""Summarise the result files under perfbench/out into one trajectory point.

    python3 perfbench/summarize.py LABEL > perfbench/baseline.json

For each workload and metric: the median and quartiles over every seed
run, with the seeds used; traced runs give their per-layer metrics the
same way.  Only result files present are read, so run the seeds first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "runs": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None  # a bypassed layer reads 0
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": spread, "runs": len(values)}


def main():
    label = sys.argv[1] if len(sys.argv) > 1 else "unlabelled"
    runs = {}
    environment = {}
    for path in sorted(OUT.glob("result-*.json")):
        result = json.loads(path.read_text())
        key = (result["workload"], result["trace"])
        runs.setdefault(key, []).append(result)
        environment = result["environment"]
    point = {"label": label, "python": environment.get("python"), "nproc": environment.get("nproc"),
             "not_controlled": environment.get("not_controlled"), "workloads": {}}
    for (workload, trace), results in sorted(runs.items()):
        entry = point["workloads"].setdefault(workload, {})
        section = "per_layer" if trace else "end_to_end"
        metrics = {}
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            metrics[name] = {"unit": unit, **summary([r["metrics"][name]["value"] for r in results])}
        entry[section] = metrics
        entry[f"{section}_seeds"] = sorted(r["seed"] for r in results)
        entry[f"{section}_failed"] = sum(r["failed"] for r in results)
        entry[f"{section}_attempted"] = sum(r["attempted"] for r in results)
    print(json.dumps(point, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
