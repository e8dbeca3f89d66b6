"""Run every workload and print all end-to-end metrics in one table.

    python3 perfbench/suite.py [--seeds 1 2 3] [--seconds S] [--trace] [--out FILE]

Each workload runs in its own process, one after another, once per seed
(and once more traced with ``--trace``), for BENCHMARK.json's run_seconds
unless ``--seconds`` says otherwise.  The table shows the median over
the seeds.  ``--out`` writes every run to a JSON file that ``diff.py``
compares with another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("plant", "grid", "bulk")
# simulate_ms (plant and bulk only) and fail_ratio (0 when all is well)
# come from the detail line: the result line carries only the metrics
# BENCHMARK.json declares, which every workload reports and are never 0
DETAIL_ONLY = (("simulate_ms", "ms"), ("fail_ratio", "ratio"))


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("detail: "):
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2][len("detail: "):])
    if proc.stderr:
        print(proc.stderr, end="", file=sys.stderr)
    return result


def flatten(result: dict) -> dict[str, float]:
    """All metric values of one run, the detail-only ones included."""
    values = {name: m["value"] for name, m in result["metrics"].items()}
    detail = result["detail"]
    for name, _ in DETAIL_ONLY:
        if name in detail:
            values[name] = detail[name]
    return values


def medians(runs: list[dict]) -> dict[str, float]:
    names = {name for run in runs for name in flatten(run)}
    return {name: statistics.median(flatten(run)[name] for run in runs if name in flatten(run))
            for name in names}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="also run each workload traced")
    parser.add_argument("--out", type=Path, help="write every run to this JSON file")
    args = parser.parse_args(argv)

    results: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in WORKLOADS:
        entry = results["workloads"][workload] = {"runs": [], "traced": []}
        for seed in args.seeds:
            entry["runs"].append(run(workload, seed, args.seconds, trace=0))
            if args.trace:
                entry["traced"].append(run(workload, seed, args.seconds, trace=1))

    table = {w: medians(results["workloads"][w]["runs"]) for w in WORKLOADS}
    print(f"medians over seeds {args.seeds}, {args.seconds:g} s per run")
    print(f"{'metric':22s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name, unit in [(m["name"], m["unit"]) for m in spec["end_to_end"]] + list(DETAIL_ONLY):
        cells = "".join(f"{table[w][name]:14.6g}" if name in table[w] else f"{'-':>14s}"
                        for w in WORKLOADS)
        print(f"{name:22s} {unit:6s}{cells}")
    for w in WORKLOADS:
        runs = results["workloads"][w]["runs"]
        tails = ", ".join(f"p{r['detail']['pipeline_ms.tail']['percentile']:.1f} of "
                          f"{r['detail']['pipeline_ms.tail']['samples']}" for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{w}: {failed}/{attempted} operations failed; pipeline_ms.tail is {tails}"
              + (f"; ladder {runs[0]['detail']['ladder']}" if "ladder" in runs[0]["detail"]
                 else ""))
    if args.trace:
        names = sorted({n for w in WORKLOADS for r in results["workloads"][w]["traced"]
                        for n in r["metrics"]})
        layers = {w: medians(results["workloads"][w]["traced"]) for w in WORKLOADS}
        print(f"\n{'per-layer metric':38s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
        for name in names:
            print(f"{name:38s}" + "".join(f"{layers[w][name]:14.6g}" for w in WORKLOADS))
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    correct = all(r["correct"] for w in WORKLOADS for kind in ("runs", "traced")
                  for r in results["workloads"][w][kind])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
