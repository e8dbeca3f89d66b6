"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plant|grid|bulk --seed N --seconds S --trace 0|1

The workload drives the real command line in this process, as a user
does: ``forestfw.cli.main([...])`` with its output captured, one call
after another on a single thread.  Every operation's verdict is checked
against an answer known independently of the compiler (see
``workloads.py``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced iterations
and reports the per-layer metrics of ``tracing.py``.  Times are scaled to
the speed of a reference loop run between iterations (see
REFERENCE_NOMINAL_S).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, whose
names and units BENCHMARK.json declares; the line before it, prefixed
``detail:``, adds what that line leaves out (simulate_ms, fail_ratio, the
tail's percentile and sample count, the ladder and the raw medians).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracing import Tracer
from workloads import LADDER, RUNG_BUDGET_S, Step, Workload

HERE = Path(__file__).resolve().parent
SRC = workloads.ROOT / "src"
BENCHMARK = workloads.ROOT / "BENCHMARK.json"  # declares every metric and its unit
OUT = HERE / "out"

WARMUP_ITERATIONS = 1
TAIL_BEYOND = 10  # samples above the reported tail percentile
MIN_ITERATIONS = TAIL_BEYOND + 1
SETUP_RUNS = 5  # fresh interpreters timed for setup_s
# The machine's speed drifts by up to half over tens of seconds (shared
# cores).  A fixed arithmetic loop runs before every iteration, and each
# iteration's times are scaled by REFERENCE_NOMINAL_S over the loop's mean
# time around it.  Every *_ms and *_s metric is therefore wall time at the
# loop's nominal speed; the detail line keeps the raw medians.
REFERENCE_LOOPS = 30_000
REFERENCE_NOMINAL_S = 0.0021  # the loop's time on an idle 2.1 GHz core


@dataclass
class Op:
    stage: str
    seconds: float
    error: str | None


class RungTimeout(BaseException):
    """Raised by the ladder's budget timer; derives from BaseException so
    that no handler inside the program can swallow it."""


def run_step(cli, step: Step) -> Op:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(step.argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed operation, not a failed run
        return Op(step.stage, time.perf_counter() - start, f"{step.stage} raised {exc!r}")
    seconds = time.perf_counter() - start
    error = step.expect(code, out.getvalue())
    if error and err.getvalue():
        error += f"; stderr {err.getvalue()!r}"
    return Op(step.stage, seconds, error)


def snapshot(directory: Path) -> dict[str, bytes]:
    if not directory.is_dir():
        return {}
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class Runner:
    """Runs iterations of one workload and judges every operation."""

    def __init__(self, cli, workload: Workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, bytes] | None = None

    def iteration(self) -> list[Op]:
        ops = [run_step(self.cli, step) for step in self.workload.steps]
        compile_op = next((op for op in ops if op.stage == "compile"), None)
        if compile_op is not None and compile_op.error is None:
            compile_op.error = self.judge_output(snapshot(self.workload.compiled))
        self.record(ops)
        return ops

    def judge_output(self, output: dict[str, bytes]) -> str | None:
        """Compile output repeats byte for byte and matches the golden ACL."""
        if self.reference is None:
            self.reference = output
        elif output != self.reference:
            changed = sorted(set(output) ^ set(self.reference)
                             | {n for n in output if output[n] != self.reference.get(n)})
            return f"compile output differs from the first iteration's: {changed}"
        if self.workload.golden is not None:
            file_name, acl, text = self.workload.golden
            data = output.get(file_name, b"").decode("utf-8")
            if workloads.neutral_section(data, acl) != text:
                return f"compile: {file_name} {acl} differs from the golden file"
        return None

    def record(self, ops: list[Op]) -> None:
        self.attempted += len(ops)
        for op in ops:
            if op.error is not None:
                self.failed += 1
                self.errors.append(op.error)

    def ladder(self, seed: int, work: Path) -> tuple[int, list[str]]:
        """Zones of the largest grid whose check + compile finish within
        the rung budget.  A rung past its budget is undecided, not failed,
        and ends the ladder: the rungs grow."""
        best, notes = 0, []
        previous = signal.signal(signal.SIGALRM, _budget_expired)
        try:
            for rows, cols in LADDER:
                steps, _, zones = workloads.grid_steps(work / "ladder", rows, cols, seed)
                gc.collect()
                try:  # the timer is one-shot: it fires here or never
                    signal.setitimer(signal.ITIMER_REAL, RUNG_BUDGET_S)
                    ops = [run_step(self.cli, step) for step in steps]
                    signal.setitimer(signal.ITIMER_REAL, 0)
                except RungTimeout:
                    notes.append(f"{rows}x{cols} ({zones} zones): undecided after "
                                 f"{RUNG_BUDGET_S:g} s")
                    break
                self.record(ops)
                seconds = sum(op.seconds for op in ops)
                notes.append(f"{rows}x{cols} ({zones} zones): {seconds:.3f} s")
                if any(op.error for op in ops):
                    break
                best = zones
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return best, notes


def _budget_expired(signum, frame):
    raise RungTimeout


def reference() -> float:
    """Seconds a fixed arithmetic loop takes right now: the machine's speed."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor that scales a time measured between two reference runs to
    the reference speed."""
    return REFERENCE_NOMINAL_S * 2 / (before + after)


def stage_ms(ops: list[Op], stage: str | None = None) -> float:
    return sum(op.seconds for op in ops if stage in (None, op.stage)) * 1e3


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from a fresh interpreter to the first timed iteration,
    scaled and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        before = reference()
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        code = child.wait()
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * speed(before, reference()))
        shutil.rmtree(OUT / f"work-{child.pid}", ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"setup in a fresh interpreter exited {code}")
    return statistics.median(scaled), statistics.median(raw)


def setup(name: str, seed: int, work: Path):
    """Import the program from this checkout and generate the inputs."""
    sys.path.insert(0, str(SRC))
    from forestfw import cli  # also imports every layer the CLI uses

    work.mkdir(parents=True)
    return cli, workloads.WORKLOADS[name](work, seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "forestfw" / "cli.py").is_file() or not workloads.FIXTURES.is_dir():
        print(f"run.py: no forestfw checkout around {HERE}", file=sys.stderr)
        return 2
    work = OUT / f"work-{os.getpid()}"
    cli, workload = setup(args.workload, args.seed, work)
    if args.setup_only:
        sys.stdout.flush()
        os._exit(0)  # the parent times up to here; skip interpreter teardown
    try:
        return measure(args, cli, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, cli, workload: Workload, work: Path) -> int:
    setup_s, setup_raw_s = measure_setup(args.workload, args.seed) if not args.trace \
        else (0.0, 0.0)
    runner = Runner(cli, workload)
    tracer = Tracer() if args.trace else None

    warmup: list[Op] = []
    for _ in range(WARMUP_ITERATIONS):
        warmup = runner.iteration()

    samples: list[list[Op]] = []
    references: list[float] = []
    traced: list[int] = []
    started = time.perf_counter()
    while time.perf_counter() - started < args.seconds or len(samples) < MIN_ITERATIONS:
        index = len(samples)
        gc.collect()
        references.append(reference())
        if tracer is not None and index % 2:
            tracer.iteration = index
            tracer.install()
            try:
                samples.append(runner.iteration())
                if workload.probe_anomalies:
                    probe_anomalies(tracer)
            finally:
                tracer.uninstall()
            traced.append(index)
        else:
            samples.append(runner.iteration())
    references.append(reference())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    scale = [speed(references[i], references[i + 1]) for i in range(len(samples))]
    pipeline = [stage_ms(ops) * k for ops, k in zip(samples, scale)]
    detail: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "iterations": len(samples), "warmup_iterations": WARMUP_ITERATIONS,
                    "speed_median": statistics.median(scale),
                    "raw_pipeline_ms": statistics.median(stage_ms(ops) for ops in samples)}
    unrepeated: list[str] = []
    if tracer is not None:
        untraced = [pipeline[i] for i in range(len(samples)) if i not in traced]
        metrics = tracer.metrics({i: scale[i] for i in traced},
                                 [pipeline[i] for i in traced], untraced)
        unrepeated = tracer.counts_repeat(traced)
        tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.json")
    else:
        def scaled_median(stage: str) -> float:
            return statistics.median(stage_ms(ops, stage) * k for ops, k in zip(samples, scale))

        percentile, tail_ms = tail(pipeline)
        metrics = {
            "check_ms": scaled_median("check"),
            "compile_ms": scaled_median("compile"),
            "pipeline_ms": statistics.median(pipeline),
            "pipeline_ms.tail": tail_ms,
            "acl_rules": workloads.acl_lines(runner.reference or {}),
            "peak_rss_mb": rss_mb,
            "setup_s": setup_s,
        }
        if workload.ladder:
            metrics["grid_max_zones"], detail["ladder"] = runner.ladder(args.seed, work)
        else:
            # the workload's one topology is its whole ladder
            decided = all(op.error is None for op in warmup) and \
                sum(op.seconds for op in warmup if op.stage != "simulate") <= RUNG_BUDGET_S
            metrics["grid_max_zones"] = workload.zones if decided else 0
        detail["pipeline_ms.tail"] = {"percentile": percentile, "samples": len(pipeline)}
        detail["raw_setup_s"] = setup_raw_s
        if any(step.stage == "simulate" for step in workload.steps):
            detail["simulate_ms"] = scaled_median("simulate")
    units = declared_units("per_layer" if tracer is not None else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"{BENCHMARK.name} declares {sorted(units)}, "
                           f"the run measured {sorted(metrics)}")
    detail["fail_ratio"] = runner.failed / runner.attempted
    detail["unrepeated_counts"] = unrepeated
    report(runner, metrics, units, detail, unrepeated)
    return 0


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def report(runner: Runner, metrics: dict[str, float], units: dict[str, str], detail: dict,
           unrepeated: list[str]) -> None:
    for error in runner.errors[:5]:
        print(f"FAILED: {error}", file=sys.stderr)
    for name in unrepeated:
        print(f"FAILED: count {name} differs between iterations", file=sys.stderr)
    print(f"{detail['workload']} seed {detail['seed']}: {detail['iterations']} timed "
          f"iterations, {runner.failed}/{runner.attempted} operations failed, "
          f"times scaled by a median {detail['speed_median']:.3f} to the reference speed")
    shown = {**metrics, **{k: v for k, v in detail.items() if k in ("simulate_ms", "fail_ratio")}}
    for name, value in sorted(shown.items()):
        unit = units.get(name, "ms" if name.endswith("_ms") else "")
        note = ""
        if name == "pipeline_ms.tail":
            note = " (p{percentile:.1f} of {samples} samples)".format(**detail[name])
        elif name == "fail_ratio":
            note = f" ({runner.failed}/{runner.attempted} operations)"
        print(f"  {name} = {value:.6g}{' ' + unit if unit else ''}{note}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0 and not unrepeated,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))


def probe_anomalies(tracer: Tracer) -> None:
    """No command runs the ACL anomaly check yet; time it on the ACLs the
    iteration just compiled, outside the timed steps."""
    from forestfw import checker

    policy = tracer.last_result.get("netgen.assemble")
    if policy is None:
        return
    for acls in policy.acls.values():
        for acl in acls:
            checker.find_acl_anomalies(acl)


if __name__ == "__main__":
    sys.exit(main())
