"""Median and quartiles of every metric over the run records in a directory.

    python3 perfbench/summarize.py .perfbench > summary.json

Reads the full records that ``run.py`` writes (``<workload>-seed<n>-trace<t>.json``)
and groups them by workload: untraced runs give the end-to-end metrics,
traced runs the per-layer ones.  ``spread`` is the interquartile range over
the median, as the benchmark's steadiness bound is stated.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def summarize(docs: list[dict]) -> dict:
    groups = defaultdict(list)
    for doc in docs:
        groups[doc["workload"], doc["trace"]].append(doc)
    out = {"environment": docs[0]["environment"] if docs else {}, "workloads": {}}
    for (name, trace), runs in sorted(groups.items()):
        entry = out["workloads"].setdefault(name, {})
        values = defaultdict(list)
        units = {}
        for doc in runs:
            for metric, m in doc["metrics"].items():
                values[metric].append(m["value"])
                units[metric] = m["unit"]
        entry["traced" if trace else "untraced"] = {
            "seeds": sorted(doc["seed"] for doc in runs),
            "attempted": sum(doc["attempted"] for doc in runs),
            "failed": sum(doc["failed"] for doc in runs),
            "failures": [dict(f, seed=doc["seed"]) for doc in runs for f in doc["failures"]],
            "metrics": {metric: dict(_stats(v), unit=units[metric])
                        for metric, v in values.items()},
        }
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    folder = Path(args[0] if args else ".perfbench")
    docs = [json.loads(p.read_text()) for p in sorted(folder.glob("*-seed*-trace*.json"))]
    if not docs:
        print(f"error: no run records in {folder}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(docs), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
