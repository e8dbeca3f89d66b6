"""The benchmark's workloads: their inputs, iteration steps and known answers.

Every answer an operation is judged against comes from the input's
construction or from a hand-checked file in the repository, never from a
compiler run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden" / "r1_acl_2.neutral"

# counted by hand from fixtures/scada_plant_fixed.policyml: 11 rules expand
# to 26 flows over 3 firewalls (R1, R2, GW) and 7 zones
PLANT_FLOWS = 26
PLANT_FIREWALLS = 3
PLANT_ZONES = 7

GRID_SHAPE = (2, 3)
# size ladder for grid_max_zones: each rung's check + compile must finish
# within RUNG_BUDGET_S.  Where this benchmark was written (2 vCPUs,
# Python 3.11), 2x4 took 2-3 s and 3x3 50-80 s, every 3x3 zone pair
# costing 5-8 s of path enumeration; the budget sits a factor of four or
# more away from both.
LADDER = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4))
RUNG_BUDGET_S = 10.0

Expect = Callable[[int, str], "str | None"]


@dataclass
class Step:
    stage: str  # check | compile | simulate
    argv: list[str]
    expect: Expect  # (exit code, stdout) -> why the verdict is wrong, or None


@dataclass
class Workload:
    name: str
    steps: list[Step]
    compiled: Path  # the directory every compile step writes
    zones: int  # zones of the topology every iteration decides
    # hand-checked neutral text of one ACL: (file in `compiled`, ACL name, text)
    golden: tuple[str, str, str] | None = None
    ladder: bool = False  # climb the grid size ladder for grid_max_zones
    # time the ACL anomaly check, which no command runs yet, on the
    # compiled ACLs of each traced iteration
    probe_anomalies: bool = False


def expect_check_ok(flows: int, best_practice: bool) -> Expect:
    want = f"OK: {flows} flows, no overlaps" + (", best practice satisfied" if best_practice
                                                 else "") + "\n"

    def expect(code: int, out: str) -> str | None:
        if code != 0 or out != want:
            return f"check: want exit 0 and {want!r}, got exit {code} and {out!r}"
        return None
    return expect


def expect_single_overlap(pair: str) -> Expect:
    def expect(code: int, out: str) -> str | None:
        errors = [line for line in out.splitlines() if ": error: " in line]
        if code != 1 or len(errors) != 1 or f"error: rule overlap: {pair} (" not in errors[0]:
            return f"check: want exit 1 and one overlap {pair}, got exit {code} and {out!r}"
        return None
    return expect


def expect_compiled(flows: int, firewalls: int, out_dir: Path) -> Expect:
    want = f"compiled {flows} flows onto {firewalls} firewalls -> {out_dir}"

    def expect(code: int, out: str) -> str | None:
        if code != 0 or not out.startswith(want + "\n"):
            return f"compile: want exit 0 and {want!r}, got exit {code} and {out!r}"
        return None
    return expect


SIM_SUMMARY = re.compile(r"positive vetting: (\d+)/(\d+) passed; negative vetting: (\d+) leak\(s\)")


def expect_vetted(flows: int) -> Expect:
    """Every flow vets positively.  Leaks are recorded, not judged: the
    default scan has known gaps, so "0 leaks" is not a known answer."""
    def expect(code: int, out: str) -> str | None:
        lines = out.splitlines()
        match = SIM_SUMMARY.fullmatch(lines[-1]) if lines else None
        if match is None or match.group(1, 2) != (str(flows), str(flows)):
            return f"simulate: want positive vetting {flows}/{flows}, got {lines[-1:]!r}"
        passed = sum(line.startswith("PASS ") for line in lines)
        if passed != flows or len(lines) != flows + int(match.group(3)) + 1:
            return f"simulate: want {flows} PASS lines, got {passed} in {len(lines)} lines"
        leaks = int(match.group(3))
        if code != (1 if leaks else 0) or sum(l.startswith("LEAK ") for l in lines) != leaks:
            return f"simulate: exit {code} does not match {leaks} reported leak(s)"
        return None
    return expect


def plant(work: Path, seed: int) -> Workload:
    """The SCADA case study; the seed is unused, the inputs are fixtures."""
    del seed
    compiled = work / "plant"
    policy, fixed = FIXTURES / "scada_plant.policyml", FIXTURES / "scada_plant_fixed.policyml"
    topology = ["--topology", str(FIXTURES / "topology.graphml")]
    bp = ["--best-practice", str(FIXTURES / "bestpractice" / "scada_isa.policyml")]
    steps = [
        Step("check", ["check", "--policy", str(policy), *topology],
             expect_single_overlap("file_transfer_rule x web_rule")),
        Step("check", ["check", "--policy", str(fixed), *topology, *bp],
             expect_check_ok(PLANT_FLOWS, best_practice=True)),
        Step("compile", ["compile", "--policy", str(fixed), *topology, *bp, "--ospf",
                         "--out", str(compiled)],
             expect_compiled(PLANT_FLOWS, PLANT_FIREWALLS, compiled)),
        Step("simulate", ["simulate", "--out", str(compiled)], expect_vetted(PLANT_FLOWS)),
    ]
    golden = ("R1.neutral.acl", "acl_2", GOLDEN.read_text(encoding="utf-8"))
    return Workload("plant", steps, compiled, PLANT_ZONES, golden, probe_anomalies=True)


def grid_steps(work: Path, rows: int, cols: int, seed: int) -> tuple[list[Step], Path, int]:
    """check + compile of one generated grid, written under `work`."""
    grid = gen.grid(rows, cols, seed)
    base = work / f"grid_{rows}x{cols}"
    base.mkdir(parents=True, exist_ok=True)
    policy, topology = base / "policy.policyml", base / "topology.graphml"
    policy.write_text(grid.policy, encoding="utf-8")
    topology.write_text(grid.topology, encoding="utf-8")
    compiled = base / "compiled"
    args = ["--policy", str(policy), "--topology", str(topology)]
    expected = grid.expected
    steps = [
        Step("check", ["check", *args], expect_check_ok(expected.flows, best_practice=False)),
        Step("compile", ["compile", *args, "--out", str(compiled)],
             expect_compiled(expected.flows, expected.firewalls, compiled)),
    ]
    return steps, compiled, expected.zones


def grid(work: Path, seed: int) -> Workload:
    """The topology-design loop on a generated 2x3 grid: no simulate."""
    steps, compiled, zones = grid_steps(work, *GRID_SHAPE, seed)
    return Workload("grid", steps, compiled, zones, ladder=True)


def bulk(work: Path, seed: int) -> Workload:
    """About 150 generated rules on the fixture topology."""
    data = gen.bulk(seed)
    base = work / "bulk"
    base.mkdir(parents=True, exist_ok=True)
    policy, bp_file = base / "policy.policyml", base / "best_practice.policyml"
    policy.write_text(data.policy, encoding="utf-8")
    bp_file.write_text(data.best_practice, encoding="utf-8")
    compiled = base / "compiled"
    args = ["--policy", str(policy), "--topology", str(FIXTURES / "topology.graphml"),
            "--best-practice", str(bp_file)]
    expected = data.expected
    steps = [
        Step("check", ["check", *args], expect_check_ok(expected.flows, best_practice=True)),
        Step("compile", ["compile", *args, "--out", str(compiled)],
             expect_compiled(expected.flows, expected.firewalls, compiled)),
        Step("simulate", ["simulate", "--out", str(compiled)], expect_vetted(expected.flows)),
    ]
    return Workload("bulk", steps, compiled, expected.zones)


WORKLOADS = {"plant": plant, "grid": grid, "bulk": bulk}


def neutral_section(text: str, acl: str) -> str | None:
    """One ACL's section of a neutral file, as ``render_neutral`` wrote it."""
    sections = text.split("\n\n")
    for i, section in enumerate(sections):
        if section.startswith("INFO ") and section.split("\n", 1)[0].endswith(f": {acl}"):
            return section if i == len(sections) - 1 else section + "\n"
    return None


ACL_LINE = re.compile(r"^  (permit|deny)~", re.MULTILINE)


def acl_lines(compiled: dict[str, bytes]) -> int:
    """ACL rule lines over every firewall's neutral file."""
    return sum(len(ACL_LINE.findall(data.decode("utf-8")))
               for name, data in compiled.items() if name.endswith(".neutral.acl"))
