"""Compare two suite result files, metric by metric and workload by workload.

    python3 perfbench/diff.py BASE.json NEW.json

Each workload gets its own rows.  A metric counts as regressed when the
new median is worse than the base median by more than the metric's bound
in BENCHMARK.json, and unresolved when either side's runs spread wider
than that bound; metrics without a bound (simulate_ms and the per-layer
metrics) are shown but not judged.  A count (unit ``count`` or
``bytes``) that changes between two result files of the same code and
seeds has not repeated, which is a defect of its own.  Exit status 1
means a regression or a failed operation on the new side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from suite import DETAIL_ONLY, flatten, medians

ROOT = Path(__file__).resolve().parent.parent


def load_metric_table() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # the detail-only metrics have no bound, and lower is better for both
    table = {name: {"unit": unit, "better": "lower"} for name, unit in DETAIL_ONLY}
    for entry in spec["end_to_end"] + spec["per_layer"]:
        table[entry["name"]] = entry
    return table


def compare(base: dict, new: dict, table: dict[str, dict], kind: str) -> list[tuple]:
    rows = []
    for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
        old_runs, new_runs = base["workloads"][workload][kind], new["workloads"][workload][kind]
        if not old_runs or not new_runs:
            continue
        old, cur = medians(old_runs), medians(new_runs)
        for name in sorted(set(old) & set(cur)):
            spec = table.get(name, {})
            before, after = old[name], cur[name]
            sign = 1 if spec.get("better", "lower") == "lower" else -1
            worse = sign * (after - before) / before if before else (1.0 if after != before
                                                                     else 0.0)
            bound = spec.get("bound")
            if spec.get("unit") in ("count", "bytes") and after != before:
                verdict = "count changed"
            elif bound is None:
                verdict = ""
            elif max(spread(old_runs, name), spread(new_runs, name)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "within bound"
            rows.append((workload, name, spec.get("unit", ""), before, after, worse, bound,
                         verdict))
    return rows


def spread(runs: list[dict], name: str) -> float:
    """Distance between the quartiles as a share of the median; 0 below
    four runs, where quartiles say little."""
    values = [flatten(run)[name] for run in runs if name in flatten(run)]
    if len(values) < 4 or not statistics.median(values):
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base = json.loads(args.base.read_text(encoding="utf-8"))
    new = json.loads(args.new.read_text(encoding="utf-8"))
    table = load_metric_table()

    regressed = False
    for kind in ("runs", "traced"):
        rows = compare(base, new, table, kind)
        if not rows:
            continue
        print(f"{'workload':8s} {'metric':38s} {'unit':6s} {'base':>12s} {'new':>12s} "
              f"{'worse by':>9s} {'bound':>6s}  verdict")
        for workload, name, unit, before, after, worse, bound, verdict in rows:
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"{workload:8s} {name:38s} {unit:6s} {before:12.6g} {after:12.6g} "
                  f"{worse:+9.1%} {bound_text:>6s}  {verdict}")
            regressed |= verdict == "REGRESSED"
        print()
    failed = sum(run["failed"] for entry in new["workloads"].values()
                 for kind in ("runs", "traced") for run in entry[kind])
    if failed:
        print(f"{failed} operation(s) failed on the new side")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main())
