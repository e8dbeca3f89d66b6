"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and bound is asserted here, not just reported.
"""

from __future__ import annotations

import hashlib
import random
import re
import time
from pathlib import Path

from forestfw.checker import find_acl_anomalies, find_rule_overlaps
from forestfw.cli import main
from forestfw.header_space import MatchTable
from forestfw.policy_lang import expand_rules
from forestfw.policy_lang.syntax import PortRange
from forestfw.render import RenderCache, loc_metrics, render_device, render_neutral
from forestfw.sim import ScanSpec, vet_negative, vet_positive
from forestfw.topo_model import (
    build_zone_firewall_model,
    crosscheck_model,
    derive_zone_conduit,
    load_declared_model,
)
from conftest import FIXTURES
from support import (
    accept_masks,
    canonical_masks,
    canonicalize,
    equivalent,
    from_network_policy,
    includes,
    masks_equal,
    masks_subset,
    random_accept_rules,
    random_service_set,
    rule_grid_points,
    split_cover,
    whitelist_reading,
)

GOLDEN = Path(__file__).parent / "golden"


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_acceptance_1_overlap_counterexample():
    """Exactly one overlap on the as-written policy; none once corrected."""
    from conftest import load_fixture_policy

    started = time.monotonic()
    plant_spec = load_fixture_policy("scada_plant.policyml")
    plant_spec_fixed = load_fixture_policy("scada_plant_fixed.policyml")
    reports = find_rule_overlaps(expand_rules(plant_spec))
    assert len(reports) == 1
    overlap = reports[0]
    assert {overlap.rule_a, overlap.rule_b} == {"web_rule", "file_transfer_rule"}
    assert len(overlap.witnesses) == 1
    witness = overlap.witnesses[0]
    assert (witness.src_zone, witness.dst_zone) == ("z3", "z1")  # scada -> corp
    assert witness.service.protocol == 6
    assert witness.service.dest_ports == (PortRange(80, 80),)

    assert find_rule_overlaps(expand_rules(plant_spec_fixed)) == []
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"one web_rule x file_transfer_rule overlap (tcp/80, z3->z1), "
              f"zero after the fix, in {elapsed:.3f}s")


def test_acceptance_2_canonicalization_oracle_equivalence():
    """1000 random whitelists: canonical checks agree with brute force."""
    started = time.monotonic()
    rng = random.Random(20260809)
    agreements = 0
    for trial in range(1000):
        p = random_service_set(rng)
        if trial % 3 == 0:
            q = p[:]
            rng.shuffle(q)
        elif trial % 3 == 1:
            q = split_cover(rng, p)
        else:
            q = random_service_set(rng)
        mp, mq = accept_masks(p), accept_masks(q)
        assert equivalent(p, q) == masks_equal(mp, mq)
        assert includes(p, q) == masks_subset(mp, mq)
        assert includes(q, p) == masks_subset(mq, mp)

        shuffled = p[:]
        rng.shuffle(shuffled)
        cp = canonicalize(p)
        assert cp == canonicalize(shuffled)  # permutation invariance
        for sl in cp.slices:  # overlap-free strips
            for (a, _), (b, _) in zip(sl.strips, sl.strips[1:]):
                assert a[1] < b[0]
        assert masks_equal(canonical_masks(cp), mp)  # cover-exact
        agreements += 1
    elapsed = time.monotonic() - started
    assert agreements == 1000
    assert elapsed < 60.0
    report(2, f"1000/1000 randomized trials agree with the dense-grid oracle "
              f"in {elapsed:.1f}s")


def test_acceptance_3_whitelist_order_independence():
    """1000 permit-only ACLs: first match, last match (first match of the
    reversed ACL) and the order-free whitelist reading agree pointwise."""
    started = time.monotonic()
    rng = random.Random(4242)
    points = rule_grid_points(16)  # exhaustive grid, 528 points (<= 4096)
    assert len(points) <= 4096
    disagreements = 0
    for _ in range(1000):
        rules = random_accept_rules(rng, limit=16)
        first, last = MatchTable(tuple(rules)), MatchTable(tuple(rules[::-1]))
        whitelist = whitelist_reading(rules)
        for point in points:
            decision = first.decide(point)[0]
            if not decision == last.decide(point)[0] == whitelist(point):
                disagreements += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    report(3, f"first/last/whitelist agree on {len(points)} grid points x 1000 "
              f"rule lists ({elapsed:.1f}s)")


def test_acceptance_4_zero_defect_properties(compiled_plant):
    """Generated configs: no generic permits, no anomalies, no orphan ACLs."""
    generic_permits = 0
    anomalies = 0
    for firewall in compiled_plant.firewalls():
        for acl in compiled_plant.acls[firewall]:
            anomalies += len(find_acl_anomalies(acl))
            for rule in acl.rules:
                if rule.action == "permit" and rule.protocol is None:
                    generic_permits += 1
    assigned = {(a.firewall, a.acl) for a in compiled_plant.assignments}
    produced = {(fw, acl.name) for fw in compiled_plant.acls
                for acl in compiled_plant.acls[fw]}
    unassigned = len(produced - assigned)
    assert generic_permits == 0
    assert anomalies == 0
    assert unassigned == 0
    report(4, "generic permits = 0, intra-ACL anomalies = 0, unassigned ACLs = 0")


RULE_LINE = re.compile(
    r"^(permit|deny)~(tcp|udp|icmp|ospf|ip)~from~[^~]+~to~[^~]+"
    r"~sport~(\[[^\]]*\])?~dport~(\[[^\]]*\])?~state~[A-Z,]*(~log)?$")


def test_acceptance_5_neutral_format_fidelity(compiled_plant):
    """The rendered acl_2 matches the frozen golden file byte-for-byte."""
    acl2 = compiled_plant.acl_by_name("R1", "acl_2")
    rendered = render_neutral(acl2)
    golden = (GOLDEN / "r1_acl_2.neutral").read_text(encoding="utf-8")
    assert rendered == golden

    lines = rendered.splitlines()
    for line in lines[1:]:
        stripped = line.strip()
        if stripped.startswith("remark~"):
            continue
        assert RULE_LINE.match(stripped), stripped
    # the HTTPS return/forward line shapes and the fixed terminal deny
    assert ("permit~tcp~from~10.0.0.16/29~to~10.0.0.0/29~sport~[443]"
            "~dport~['0-65535']~state~ESTABLISHED~log") in rendered
    assert "~state~NEW,ESTABLISHED~log" in rendered
    assert lines[-1].strip() == "deny~ip~from~any~to~any~sport~~dport~~state~"
    report(5, "acl_2 rendering is byte-identical to the golden file")


def test_acceptance_6_end_to_end_vetting(compiled_plant):
    """Every permit verifies positively; the exhaustive scan finds no leak."""
    started = time.monotonic()
    net = from_network_policy(compiled_plant)
    results = vet_positive(net)
    assert len(results) == len(compiled_plant.flows) == 26
    failures = [r for r in results if r.outcome != 1]
    assert failures == []

    scan = ScanSpec(protocols=(1, 6, 17),
                    ports=(PortRange(0, 1023), PortRange(8080, 8080),
                           PortRange(24500, 24600)))
    leaks = vet_negative(net, scan)
    assert leaks == []
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    report(6, f"26/26 flows delivered, zero leaks over "
              f"{len(list(scan.port_values()))} ports x 3 protocols "
              f"({elapsed:.1f}s)")


def test_acceptance_7_zone_conduit_derivation(plant_topology, fixture_dir):
    """The topology derives the expected 7 zones; crosscheck behaves."""
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    assert sorted(model.zones) == ["az1", "fwz1", "fwz2", "fwz3", "z1", "z2", "z3"]

    declared_text = (fixture_dir / "zone_conduit.graphml").read_text()
    assert crosscheck_model(model, load_declared_model(declared_text)) is None

    without_fwz3 = declared_text
    without_fwz3 = without_fwz3.replace(
        '<node id="fwz3"><data key="kind">firewall</data></node>', "")
    without_fwz3 = without_fwz3.replace('<edge source="fwz3" target="z1"/>', "")
    without_fwz3 = without_fwz3.replace('<edge source="fwz3" target="z2"/>', "")
    mismatch = crosscheck_model(model, load_declared_model(without_fwz3))
    assert mismatch is not None
    assert "fwz3" in mismatch.missing_zones
    assert "fwz3" in str(mismatch)
    report(7, "7 zones derived; declared model cross-check ok; "
              "missing fwz3 detected by name")


def test_acceptance_8_loc_compression(plant_spec_fixed, compiled_plant):
    """The high-level policy is small and compiles to much larger configs."""
    source_lines = [
        line for line in plant_spec_fixed.source.splitlines()
        if line.strip() and not line.strip().startswith("//")
    ]
    assert len(source_lines) <= 100
    cache = RenderCache(compiled_plant.log_denies)
    for fw in compiled_plant.firewalls():
        render_device(compiled_plant, fw, "iptables_like", cache=cache)
    metrics = loc_metrics(plant_spec_fixed, cache.iptables_loc)
    assert metrics.ratio > 1
    report(8, f"{metrics.high_level_loc} high-level LoC -> {metrics.device_loc} "
              f"device LoC (ratio {metrics.ratio:.1f}; the original study reported "
              f"80 -> 714, shown for comparison, not asserted)")


def test_acceptance_9_compile_determinism(tmp_path):
    """Two full compile runs produce hash-identical output trees."""
    policy = str(FIXTURES / "scada_plant_fixed.policyml")
    topology = str(FIXTURES / "topology.graphml")
    bp = str(FIXTURES / "bestpractice" / "scada_isa.policyml")
    digests = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        code = main(["compile", "--policy", policy, "--topology", topology,
                     "--out", str(out_dir), "--best-practice", bp,
                     "--ospf", "--emit-alloy"])
        assert code == 0
        tree = {}
        for path in sorted(out_dir.rglob("*")):
            if path.is_file():
                tree[path.relative_to(out_dir).as_posix()] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        digests.append(tree)
    assert digests[0] == digests[1]
    assert len(digests[0]) == 15  # 3 firewalls x 3 formats + 6 artifacts
    report(9, f"two compile runs match on all {len(digests[0])} output files")
