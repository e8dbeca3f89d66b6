import random

import numpy as np
import pytest

from forestfw import canonical, intervals
from forestfw.canonical import check_best_practice, load_best_practice
from forestfw.diagnostics import PolicyError
from forestfw.policy_lang import expand_rules, parse_policy
from forestfw.header_space import Packet
from forestfw.policy_lang.syntax import FlowRule, PortRange, Service, service_plane
from support import (
    PORTLESS,
    CanonicalPolicy,
    accept_masks,
    canonical_masks,
    canonical_subtract,
    canonicalize,
    equivalent,
    generated_policy_sources,
    includes,
    masks_equal,
    masks_subset,
    partition_strips,
    partition_strips_by_scan,
    random_mixed_service_set,
    random_service_set,
    service_accepts,
    split_cover,
    subtract_strips,
)


def tcp(name, sports, dports):
    return Service(name, 6,
                   tuple(PortRange(*r) for r in sports),
                   tuple(PortRange(*r) for r in dports))


def test_single_rectangle_is_its_own_strip():
    policy = canonicalize([tcp("s", [(10, 20)], [(80, 90)])])
    assert len(policy.slices) == 1
    sl = policy.slices[0]
    assert sl.protocol == 6
    assert sl.strips == (((80, 90), ((10, 20),)),)


def test_equivalent_covers_produce_identical_canonical_form():
    # two rules covering an L-shaped region versus a three-rule cover of it
    two = [
        tcp("a", [(0, 65535)], [(80, 90)]),
        tcp("b", [(0, 100)], [(91, 100)]),
    ]
    three = [
        tcp("c", [(0, 65535)], [(80, 85)]),
        tcp("d", [(0, 65535)], [(86, 90)]),
        tcp("e", [(0, 100)], [(91, 100)]),
    ]
    assert canonicalize(two) == canonicalize(three)
    assert equivalent(two, three)
    # brute-force membership over the sub-grid around the region
    assert masks_equal(accept_masks(two), accept_masks(three))
    grid_two = np.zeros((201, 201), dtype=bool)
    grid_three = np.zeros((201, 201), dtype=bool)
    for grid, rules in ((grid_two, two), (grid_three, three)):
        for svc in rules:
            for slo, shi in svc.source_ports:
                for dlo, dhi in svc.dest_ports:
                    grid[slo:min(shi, 200) + 1, dlo:min(dhi, 200) + 1] = True
    assert np.array_equal(grid_two, grid_three)


def test_adjacent_strips_with_equal_sports_merge():
    merged = canonicalize([
        tcp("a", [(0, 65535)], [(80, 80)]),
        tcp("b", [(0, 65535)], [(81, 81)]),
    ])
    assert merged.slices[0].strips == (((80, 81), ((0, 65535),)),)
    # brute check across the boundary rows 79..82
    masks = accept_masks([tcp("a", [(0, 65535)], [(80, 80)]),
                          tcp("b", [(0, 65535)], [(81, 81)])])
    assert not masks[6][:, 79].any()
    assert masks[6][:, 80].all() and masks[6][:, 81].all()
    assert not masks[6][:, 82].any()


def test_gap_prevents_merge():
    policy = canonicalize([
        tcp("a", [(0, 10)], [(80, 80)]),
        tcp("b", [(0, 10)], [(82, 82)]),
    ])
    assert [strip[0] for strip in policy.slices[0].strips] == [(80, 80), (82, 82)]


def test_equivalence_under_permutation():
    rng = random.Random(21)
    services = random_service_set(rng)
    shuffled = services[:]
    rng.shuffle(shuffled)
    assert canonicalize(services) == canonicalize(shuffled)
    assert equivalent(services, shuffled)


def test_disjoint_ports_not_equivalent():
    assert not equivalent([tcp("a", [(0, 65535)], [(80, 80)])],
                          [tcp("b", [(0, 65535)], [(81, 81)])])


def test_includes_subset_and_reflexivity():
    https = tcp("https", [(0, 65535)], [(443, 443)])
    http = tcp("http", [(0, 65535)], [(80, 80)])
    assert includes([https], [http, https])
    assert not includes([http, https], [https])
    assert includes([http], [http])
    assert includes([], [https])  # empty policy included in everything


def test_icmp_types_ride_on_the_value_axis():
    any_icmp = Service("any_icmp", 1)
    listed = Service("all_types", 1, icmp_types=(PortRange(0, 255),))
    assert canonicalize([any_icmp]) == canonicalize([listed])
    assert canonicalize([any_icmp]).slices == (
        canonical.CanonicalSlice(1, (((0, 255), ((0, 65535),)),)),)
    echo = Service("echo", 1, icmp_types=(PortRange(8, 8),))
    reply = Service("echo_reply", 1, icmp_types=(PortRange(0, 0), PortRange(9, 9)))
    policy = canonicalize([echo, reply])
    assert [(sl.protocol, sl.strips) for sl in policy.slices] == [
        (1, (((0, 0), ((0, 65535),)), ((8, 9), ((0, 65535),))))]


def test_canonicalize_rejects_generic_service():
    with pytest.raises(PolicyError, match="generic"):
        canonicalize([Service("anyip", None)])


def _random_field(rng: random.Random, top: int) -> tuple[PortRange, ...]:
    """Unwritten one time in four, else one or two ranges whose bounds lie
    near 0, near ``top`` or anywhere, each reversed (empty) one time in six."""
    if rng.random() < 0.25:
        return ()
    ranges = []
    for _ in range(rng.randint(1, 2)):
        lo, hi = sorted(rng.choice((rng.randrange(8), top - rng.randrange(8), rng.randrange(top)))
                        for _ in range(2))
        ranges.append(PortRange(hi, lo) if lo < hi and rng.random() < 1 / 6 else PortRange(lo, hi))
    return tuple(ranges)


def test_service_plane_membership_equals_service_accepts():
    """A packet lies in its service's plane exactly when the oracle, which
    reads the fields as written, accepts it: unwritten fields span their
    axis and written ones that normalize to nothing admit nothing."""
    rng = random.Random(53)
    outcomes = set()
    for i in range(400):
        protocol = rng.choice((1, 6, 17, PORTLESS))
        svc = Service(f"svc{i}", protocol, _random_field(rng, 65535), _random_field(rng, 65535),
                      _random_field(rng, 255))
        values, sports = service_plane(svc)
        empty = not values or not sports
        for _ in range(25):
            packet = Packet(protocol=rng.choice((protocol, protocol, 6, 1)),
                            sport=rng.choice((0, 65535, rng.randrange(65536))),
                            dport=rng.choice((0, 65535, rng.randrange(65536))),
                            icmp_type=rng.choice((0, 255, rng.randrange(256))))
            value = packet.icmp_type if packet.protocol == 1 else packet.dport
            in_plane = (packet.protocol == protocol and intervals.contains(values, value)
                        and intervals.contains(sports, packet.sport))
            assert in_plane == service_accepts(svc, packet), (svc, packet)
            outcomes.add((protocol, in_plane, empty))
    assert outcomes >= {(p, hit, False) for p in (1, 6, 17, PORTLESS) for hit in (True, False)}
    assert {(6, False, True), (17, False, True), (1, False, True)} <= outcomes


def test_randomized_equivalence_and_inclusion_against_oracle():
    rng = random.Random(99)
    for trial in range(150):
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


def _split_icmp_types(rng: random.Random, services: list[Service]) -> list[Service]:
    """An equivalent service set: ICMP type ranges cut in two services."""
    out = []
    for svc in services:
        types = svc.icmp_types or (PortRange(0, 255),)
        if svc.protocol == 1 and types[0].hi > types[0].lo:
            lo, hi = types[0]
            mid = rng.randrange(lo, hi)
            out.append(Service(svc.name + "a", 1, icmp_types=(PortRange(lo, mid),) + types[1:]))
            out.append(Service(svc.name + "b", 1, icmp_types=(PortRange(mid + 1, hi),)))
        else:
            out.append(svc)
    return out


def test_protocol_keyed_strips_against_oracle():
    """ICMP (any type included), TCP, UDP and a portless protocol each
    make one slice; its strips cover exactly the grid, and inclusion,
    equivalence and subtraction agree with the grids."""
    rng = random.Random(1947)
    seen = set()
    for trial in range(240):
        p = random_mixed_service_set(rng)
        if trial % 3 == 0:
            q = split_cover(rng, _split_icmp_types(rng, p))
        elif trial % 3 == 1:
            q = p[rng.randrange(len(p)):] + random_mixed_service_set(rng, 2)
        else:
            q = random_mixed_service_set(rng)
        cp, cq = canonicalize(p), canonicalize(q)
        assert [sl.protocol for sl in cp.slices] == sorted({svc.protocol for svc in p})
        mp, mq = accept_masks(p), accept_masks(q)
        assert masks_equal(canonical_masks(cp), mp)
        assert equivalent(p, q) == masks_equal(mp, mq), (p, q)
        assert includes(p, q) == masks_subset(mp, mq), (p, q)
        assert includes(q, p) == masks_subset(mq, mp), (p, q)
        leftovers = CanonicalPolicy(tuple(canonical_subtract(p, q)))
        assert masks_equal(canonical_masks(leftovers), {k: mp[k] & ~mq[k] for k in mp})
        seen.add(("equivalent", equivalent(p, q)))
        seen.add(("includes", includes(p, q)))
        seen.update(("protocol", svc.protocol) for svc in p)
        seen.update("any-type icmp" for svc in p if svc.protocol == 1 and not svc.icmp_types)
    assert seen == {("equivalent", True), ("equivalent", False), ("includes", True),
                    ("includes", False), ("protocol", 1), ("protocol", 6), ("protocol", 17),
                    ("protocol", PORTLESS), "any-type icmp"}


def test_canonical_overlap_free_and_cover_exact():
    rng = random.Random(123)
    for _ in range(100):
        services = random_service_set(rng)
        policy = canonicalize(services)
        for sl in policy.slices:
            # strips ordered, disjoint, non-identical neighbours
            for (a, sports_a), (b, sports_b) in zip(sl.strips, sl.strips[1:]):
                assert a[1] < b[0]
                if a[1] + 1 == b[0]:
                    assert sports_a != sports_b
            for _, sports in sl.strips:
                for (lo1, hi1), (lo2, hi2) in zip(sports, sports[1:]):
                    assert hi1 + 1 < lo2  # sorted, disjoint, non-adjacent
        assert masks_equal(canonical_masks(policy), accept_masks(services))


def test_inclusion_partial_order_on_random_triples():
    rng = random.Random(5150)
    for _ in range(60):
        base = random_service_set(rng, 3)
        p = split_cover(rng, base)
        q = base + random_service_set(rng, 2)
        r = q + random_service_set(rng, 2)
        assert includes(p, p)
        assert includes(p, q) and includes(q, r)
        assert includes(p, r)  # transitivity on the constructed chain
        if includes(q, p):  # antisymmetry up to equivalence
            assert equivalent(p, q)


def test_canonical_subtract_reports_uncovered_region():
    p = [tcp("wide", [(0, 65535)], [(80, 100)])]
    q = [tcp("narrow", [(0, 65535)], [(90, 100)])]
    leftovers = canonical_subtract(p, q)
    assert len(leftovers) == 1
    assert leftovers[0].strips == (((80, 89), ((0, 65535),)),)
    assert canonical_subtract(p, p) == []


def test_canonical_subtract_equals_grid_difference_with_maximal_strips():
    rng = random.Random(2718)
    touching = 0
    for trial in range(300):
        p = random_service_set(rng)
        q = split_cover(rng, p)[1:] if trial % 2 else random_service_set(rng)
        leftovers = canonical_subtract(p, q)
        mp, mq = accept_masks(p), accept_masks(q)
        want = {k: mp[k] & ~mq[k] for k in mp}
        assert masks_equal(canonical_masks(CanonicalPolicy(tuple(leftovers))), want), (p, q)
        for sl in leftovers:
            assert sl.strips
            for (a, sports_a), (b, sports_b) in zip(sl.strips, sl.strips[1:]):
                assert a[1] < b[0]
                assert a[1] + 1 < b[0] or sports_a != sports_b  # touching strips differ
                touching += a[1] + 1 == b[0]
    assert touching > 0


BOUND_SOURCE = """
zone_group protected_zone { scada }
port_group low { 0-1023 }
port_group narrow { 85-86 }
service low_narrow { protocol=tcp; tcp.source_port=low; tcp.dest_port=narrow; }
policy_rule inbound_bound { any_zone -> protected_zone : low_narrow }
"""


def test_violation_evidence_states_icmp_types_and_portless_protocols_plainly():
    bound = parse_policy("""
zone_group protected_zone { scada }
service echo { protocol=icmp; icmp.type=8; }
service unreachable { protocol=icmp; icmp.type=3; }
policy_rule inbound_bound { any_zone -> protected_zone : echo, unreachable }
""")
    flows = [_flow("ping_in", "corp", "scada", Service("any_icmp", 1)),
             _flow("gre_in", "corp", "scada", Service("gre", PORTLESS))]
    [violation] = check_best_practice(flows, ZONES, bound)
    assert str(violation).endswith(
        "(inbound for the protected zone): protocol 1 (icmp) icmp type 0-2; "
        "protocol 1 (icmp) icmp type 4-7; protocol 1 (icmp) icmp type 9-255; "
        "protocol 47 (47)")
    [violation] = check_best_practice(flows[:1], ZONES, parse_policy(
        "zone_group protected_zone { scada }\n"
        "service gre { protocol=47; }\n"
        "policy_rule inbound_bound { any_zone -> protected_zone : gre }\n"))
    assert str(violation).endswith("protocol 1 (icmp) icmp type 0-255")


def test_violation_evidence_lists_maximal_strips():
    # the bound splits the policy's dport range at 85 and 87 but covers
    # none of its source ports, so the whole range is one evidence strip
    flows = [_flow("web_in", "corp", "scada", tcp("wide", [(1024, 65535)], [(80, 100)]))]
    violations = check_best_practice(flows, ZONES, parse_policy(BOUND_SOURCE))
    assert [v.evidence[0].strips for v in violations] == [(((80, 100), ((1024, 65535),)),)]
    # only source ports 1024-65535 witness the violation, and the text says so
    assert str(violations[0]).endswith(
        "(inbound for the protected zone): protocol 6 (tcp) dport 80-100 sport 1024-65535")
    # source ports the bound leaves in two pieces are listed; a strip with
    # every source port names none
    flows = [_flow("web_in", "corp", "scada", tcp("mid", [(0, 65535)], [(84, 86)]))]
    [violation] = check_best_practice(flows, ZONES, parse_policy(
        BOUND_SOURCE.replace("0-1023", "100-199")))
    assert str(violation).endswith(
        "protocol 6 (tcp) dport 84; protocol 6 (tcp) dport 85-86 sport 0-99,200-65535")


# ---------------------------------------------------------------------------
# the grid's rectangle-union decode vs. the strip oracles

def _random_interval_set(rng: random.Random) -> tuple:
    if rng.random() < 0.15:
        return ((0, 65535),)
    spans = []
    for _ in range(rng.randint(1, 3)):
        lo = rng.randrange(48)
        spans.append((lo, rng.randrange(lo, 48)))
    return intervals.normalize(spans)


def test_partition_sweep_equals_strip_scan_on_random_rectangles():
    rng = random.Random(4242)
    merged = 0
    for _ in range(500):
        rects = [(_random_interval_set(rng), _random_interval_set(rng))
                 for _ in range(rng.randint(0, 12))]
        [strips] = canonical._strips_less([rects])
        assert strips == partition_strips_by_scan(rects) == partition_strips(rects), rects
        merged += sum(1 for (_, a), (_, b) in zip(strips, strips[1:]) if a == b)
    assert merged > 0  # equal sport sets apart by a gap stay separate strips


ZONES_OF_TOPOLOGY = ("z1", "z2", "z3", "az1", "fwz1", "fwz2", "fwz3")


def test_partition_sweep_equals_strip_scan_on_plant_bulk_and_grids(
        plant_spec_fixed, bp_spec, monkeypatch):
    """Every rectangle list the best-practice checks of the plant and bulk
    seeds 1-3 decode, with the bound it is subtracted from, and every zone
    pair's flows on the 2x2-2x4 grids."""
    grids = []  # per grid: the groups' rectangle lists and the bound's
    decode = canonical._strips_less

    def recorded(groups, minus=()):
        grids.append(([list(rects) for rects in groups], list(minus)))
        return decode(groups, minus)

    monkeypatch.setattr(canonical, "_strips_less", recorded)
    sources = generated_policy_sources()
    checks = [(plant_spec_fixed, bp_spec)] + [
        (parse_policy(sources[f"bulk{seed}"]),
         parse_policy(sources[f"bulk{seed}_best_practice"])) for seed in (1, 2, 3)]
    # one grid per protocol of each bound, one decode per protocol of each
    # grouped direction or zone pair
    expected_grids = expected = 0
    for spec, bp in checks:
        flows = expand_rules(spec)
        assert check_best_practice(flows, ZONES_OF_TOPOLOGY, bp) == []
        protected = bp.zone_groups["protected_zone"].zones
        protocols: dict[tuple[str, str, str], set] = {}
        for flow in flows:
            for direction, zone in (("inbound", flow.dst_zone), ("outbound", flow.src_zone)):
                if zone in protected:
                    protocols.setdefault((flow.src_zone, flow.dst_zone, direction),
                                         set()).add(flow.service.protocol)
        expected += sum(map(len, protocols.values()))
        expected_grids += len({(direction, protocol) for (_, _, direction), used
                               in protocols.items() for protocol in used})
    inputs = [(rects, minus) for groups, minus in grids for rects in groups]
    assert len(grids) == expected_grids and len(inputs) == expected > expected_grids > 0
    assert all(minus for _, minus in inputs)
    for shape in ("2x2", "2x3", "2x4"):
        per_pair: dict[tuple[str, str], list[Service]] = {}
        for flow in expand_rules(parse_policy(sources[f"grid{shape}"])):
            per_pair.setdefault((flow.src_zone, flow.dst_zone), []).append(flow.service)
        for services in per_pair.values():
            canonicalize(services)
            expected += len({service.protocol for service in services})
    inputs = [(rects, minus) for groups, minus in grids for rects in groups]
    assert len(inputs) == expected
    for groups, minus in grids:
        assert decode(groups) == [partition_strips_by_scan(rects) for rects in groups]
        assert decode(groups, minus) == [subtract_strips(partition_strips(rects),
                                                         partition_strips(minus))
                                         for rects in groups]


def test_grid_union_and_difference_equal_strip_oracles():
    """On random plain and mixed service-set pairs, the canonical form is
    the sweep's partition and the difference the merge-pass subtraction
    of the two partitions."""
    rng = random.Random(8086)
    nonempty = 0
    for trial in range(2000):
        draw = random_mixed_service_set if trial % 2 else random_service_set
        p = draw(rng)
        q = split_cover(rng, p)[1:] if trial % 4 < 2 else draw(rng)
        rp, rq = canonical._slice_rectangles(p), canonical._slice_rectangles(q)
        union = {protocol: partition_strips(rects) for protocol, rects in rp.items()}
        assert canonicalize(p) == CanonicalPolicy(tuple(
            canonical.CanonicalSlice(protocol, union[protocol]) for protocol in sorted(rp)))
        want = [(protocol, subtract_strips(union[protocol],
                                           partition_strips(rq.get(protocol, ()))))
                for protocol in sorted(rp)]
        got = canonical_subtract(p, q)
        assert [(sl.protocol, sl.strips) for sl in got] == [w for w in want if w[1]], (p, q)
        nonempty += bool(got)
    assert 0 < nonempty < 2000


# ---------------------------------------------------------------------------
# best-practice checks

BP_SOURCE = """
import system.services.iana_services;
zone_group protected_zone { scada }
service_group inbound_allowed { iana_services.https, iana_services.ssh }
service_group outbound_allowed { iana_services.https, iana_services.dns_udp }
policy_rule inbound_bound { any_zone -> protected_zone : inbound_allowed }
policy_rule outbound_bound { protected_zone -> any_zone : outbound_allowed }
rule_group best_practice { inbound_bound, outbound_bound }
"""

ZONES = ("corp", "scada", "dmz")


def _flow(rule, src, dst, svc):
    return FlowRule(rule, src, dst, svc)


def http_svc():
    return tcp("http", [(0, 65535)], [(80, 80)])


def https_svc():
    return tcp("https", [(0, 65535)], [(443, 443)])


def test_http_inbound_to_protected_zone_is_violation():
    bp = parse_policy(BP_SOURCE)
    flows = [_flow("web_in", "corp", "scada", http_svc())]
    violations = check_best_practice(flows, ZONES, bp)
    assert len(violations) == 1
    v = violations[0]
    assert (v.src_zone, v.dst_zone, v.direction) == ("corp", "scada", "inbound")
    assert "protocol 6" in str(v) and "dport 80" in str(v)


def test_empty_policy_has_no_violations():
    bp = parse_policy(BP_SOURCE)
    assert check_best_practice([], ZONES, bp) == []


def test_exact_bound_has_no_violations():
    bp = parse_policy(BP_SOURCE)
    flows = [
        _flow("ok1", "corp", "scada", https_svc()),
        _flow("ok2", "scada", "corp", https_svc()),
    ]
    assert check_best_practice(flows, ZONES, bp) == []


def test_unknown_protected_zone_label_rejected():
    bp = parse_policy(BP_SOURCE)
    with pytest.raises(PolicyError, match="unknown zone label"):
        load_best_practice(bp, ("corp", "dmz"))


def test_missing_protected_group_rejected():
    bp = parse_policy("zone_group other { scada }")
    with pytest.raises(PolicyError, match="protected_zone"):
        load_best_practice(bp, ZONES)


def test_fixture_policy_satisfies_fixture_bounds(plant_spec_fixed, bp_spec):
    flows = expand_rules(plant_spec_fixed)
    zones = ("z1", "z2", "z3", "az1", "fwz1", "fwz2", "fwz3")
    assert check_best_practice(flows, zones, bp_spec) == []


def test_canonical_policy_empty():
    assert CanonicalPolicy(()).is_empty()
    assert not canonicalize([https_svc()]).is_empty()
