"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``forestfw`` modules.  A
function bound into other modules with ``from ... import`` exists there
as the same object, so ``install`` patches every loaded ``forestfw.*``
module attribute that *is* that function, and ``uninstall`` puts the
originals back.  Spans ``{name, start, end, parent, iteration}`` are kept
in memory and written out once, when the run ends.  Per-packet functions
(``sim.rule_matches_packet``, ``sim.eval_acl``) are never wrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable

# span name -> the functions it times, as "module:function"
SPANS: dict[str, tuple[str, ...]] = {
    "policy_lang.parse": ("forestfw.policy_lang.parser:parse_policy",),
    "policy_lang.validate": ("forestfw.policy_lang.validate:validate_spec",),
    "policy_lang.expand": ("forestfw.policy_lang.expand:expand_rules",),
    "topo_model.load": ("forestfw.topo_model:load_topology",
                        "forestfw.topo_model:load_declared_model"),
    "topo_model.derive": ("forestfw.topo_model:build_zone_firewall_model",
                          "forestfw.topo_model:derive_zone_conduit"),
    "topo_model.crosscheck": ("forestfw.topo_model:crosscheck_model",),
    "topo_model.export": ("forestfw.topo_model:export_graph",),
    "checker.overlaps": ("forestfw.checker:find_rule_overlaps",),
    "checker.acl_anomalies": ("forestfw.checker:find_acl_anomalies",),
    "canonical.best_practice": ("forestfw.canonical:check_best_practice",),
    "netgen.enumerate_paths": ("forestfw.netgen:enumerate_paths",),
    "netgen.translate": ("forestfw.netgen:translate_rule",
                         "forestfw.netgen:add_supplementary_rules"),
    "netgen.assemble": ("forestfw.netgen:compile_policy",),
    "render.neutral": ("forestfw.render:render_neutral_file",),
    "render.device": ("forestfw.render:render_device",),
    "render.manifest": ("forestfw.render:manifest_json",),
    "render.parse_neutral": ("forestfw.render:parse_neutral",),
    "sim.load": ("forestfw.sim:load_compiled",),
    "sim.vet_positive": ("forestfw.sim:vet_positive",),
    "sim.vet_negative": ("forestfw.sim:vet_negative",),
    "cli.check": ("forestfw.cli:cmd_check",),
    "cli.compile": ("forestfw.cli:cmd_compile",),
    "cli.simulate": ("forestfw.cli:cmd_simulate",),
}

# functions that are counted but get no span: inject runs once per
# flow and its time belongs to the vetting span that calls it
INJECT = "forestfw.sim:inject"
SCAN_SPEC = "forestfw.sim:default_scan_spec"

# self-time metric -> span name; enumerate_paths is split by caller
SELF_MS = {
    "policy_lang.parse_ms": "policy_lang.parse",
    "policy_lang.validate_ms": "policy_lang.validate",
    "policy_lang.expand_ms": "policy_lang.expand",
    "topo_model.load_ms": "topo_model.load",
    "topo_model.derive_ms": "topo_model.derive",
    "topo_model.crosscheck_ms": "topo_model.crosscheck",
    "topo_model.export_ms": "topo_model.export",
    "checker.overlaps_ms": "checker.overlaps",
    "checker.acl_anomalies_ms": "checker.acl_anomalies",
    "canonical.best_practice_ms": "canonical.best_practice",
    "netgen.enumerate_paths.compile_ms": "netgen.enumerate_paths.compile",
    "netgen.enumerate_paths.sim_ms": "netgen.enumerate_paths.sim",
    "netgen.translate_ms": "netgen.translate",
    "netgen.assemble_ms": "netgen.assemble",
    "render.neutral_ms": "render.neutral",
    "render.device_ms": "render.device",
    "render.manifest_ms": "render.manifest",
    "render.parse_neutral_ms": "render.parse_neutral",
    "sim.load_ms": "sim.load",
    "sim.vet_positive_ms": "sim.vet_positive",
    "sim.vet_negative_ms": "sim.vet_negative",
    "cli.check.self_ms": "cli.check",
    "cli.compile.self_ms": "cli.compile",
    "cli.simulate.self_ms": "cli.simulate",
}

# counts summed over an iteration's calls
SUMMED = ("policy_lang.parse_calls", "checker.overlap_pairs",
          "netgen.enumerate_paths.compile_calls", "netgen.enumerate_paths.sim_calls",
          "netgen.paths", "render.bytes", "sim.inject_calls", "sim.scan_packets", "sim.leaks")
# sizes: the largest value an iteration's calls saw
LARGEST = ("policy_lang.flows", "topo_model.zones", "topo_model.conduits",
           "netgen.acl_rules_max")



@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int


class Tracer:
    """Wraps the layers' functions and records spans and counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.last_result: dict[str, Any] = {}
        self.iteration = 0
        self._stack: list[int] = []
        self._scan_per_pair = 0
        self._patches: list[tuple[Any, str, Callable]] = []

    # -- patching

    def install(self) -> None:
        """Wrap every traced function wherever a forestfw module binds it."""
        wrappers = {}
        for span, targets in SPANS.items():
            for target in targets:
                original = _resolve(target)
                wrappers[id(original)] = (original, self._spanned(span, original))
        inject, scan_spec = _resolve(INJECT), _resolve(SCAN_SPEC)
        wrappers[id(inject)] = (inject, self._count_injects(inject))
        wrappers[id(scan_spec)] = (scan_spec, self._count_scan(scan_spec))
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("forestfw"):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _spanned(self, span: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            name = span
            if span == "netgen.enumerate_paths":
                name += ".sim" if self._under("sim.") else ".compile"
            index = len(self.spans)
            self.spans.append(Span(name, 0.0, 0.0, parent, self.iteration))
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index].start, self.spans[index].end = start, end
            self.last_result[span] = result
            self._count(name, args, result)
            return result
        return wrapper

    def _count_injects(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.iteration]["sim.inject_calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_scan(self, fn: Callable) -> Callable:
        """Remember how many packets vet_negative builds per zone pair."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scan = fn(*args, **kwargs)
            self._scan_per_pair = sum(
                sum(1 for port in scan.port_values() if protocol != 1 or port <= 255)
                for protocol in scan.protocols)
            return scan
        return wrapper

    def _under(self, prefix: str) -> bool:
        return any(self.spans[i].name.startswith(prefix) for i in self._stack)

    def _count(self, name: str, args: tuple, result: Any) -> None:
        counts = self.counts[self.iteration]
        if name == "policy_lang.parse":
            counts["policy_lang.parse_calls"] += 1
        elif name == "policy_lang.expand":
            _largest(counts, "policy_lang.flows", len(result))
        elif name == "topo_model.derive" and hasattr(result, "conduits"):
            _largest(counts, "topo_model.zones", len(result.zones))
            _largest(counts, "topo_model.conduits", len(result.conduits))
        elif name == "checker.overlaps":
            per_pair: dict[tuple[str, str], int] = defaultdict(int)
            for flow in args[0]:
                per_pair[(flow.src_zone, flow.dst_zone)] += 1
            counts["checker.overlap_pairs"] += sum(n * (n - 1) // 2 for n in per_pair.values())
        elif name == "netgen.enumerate_paths.compile":
            counts["netgen.enumerate_paths.compile_calls"] += 1
            counts["netgen.paths"] += len(result)
        elif name == "netgen.enumerate_paths.sim":
            counts["netgen.enumerate_paths.sim_calls"] += 1
            if result and self._under("sim.vet_negative"):
                counts["sim.scan_packets"] += self._scan_per_pair
        elif name == "netgen.assemble":
            _largest(counts, "netgen.acl_rules_max",
                     max(len(acl.rules) for acls in result.acls.values() for acl in acls))
        elif name.startswith("render.") and name != "render.parse_neutral":
            counts["render.bytes"] += len(result.encode("utf-8"))
        elif name == "sim.vet_negative":
            counts["sim.leaks"] += len(result)

    # -- results

    def self_ms(self) -> dict[int, dict[str, float]]:
        """Self time per iteration and span name, in milliseconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, children in zip(self.spans, child_time):
            out[span.iteration][span.name] += (span.end - span.start - children) * 1e3
        return out

    def metrics(self, scale: dict[int, float], traced_ms: list[float],
                untraced_ms: list[float]) -> dict[str, float]:
        """Per-layer metrics: medians over the traced iterations, whose
        times are multiplied by the iteration's `scale`."""
        self_ms = self.self_ms()
        iterations = sorted(scale)
        out: dict[str, float] = {}
        for metric, span in SELF_MS.items():
            out[metric] = statistics.median(self_ms[i].get(span, 0.0) * scale[i]
                                            for i in iterations)
        for metric in SUMMED + LARGEST:
            # counts repeat exactly (see counts_repeat), so the low median is the count
            out[metric] = statistics.median_low(self.counts[i].get(metric, 0) for i in iterations)
        vet_s = out["sim.vet_negative_ms"] / 1e3
        out["sim.packets_per_s"] = out["sim.scan_packets"] / vet_s if vet_s else 0.0
        out["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(untraced_ms)
        return out

    def counts_repeat(self, iterations: list[int]) -> list[str]:
        """Counts that differ between iterations; they must repeat exactly."""
        return [metric for metric in SUMMED + LARGEST
                if len({self.counts[i].get(metric, 0) for i in iterations}) > 1]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]), encoding="utf-8")


def _resolve(target: str) -> Callable:
    module, attr = target.split(":")
    return getattr(importlib.import_module(module), attr)


def _largest(counts: dict[str, int], metric: str, value: int) -> None:
    counts[metric] = max(counts[metric], value)
