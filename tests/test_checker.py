import ipaddress
import random

from forestfw.checker import (
    ACL_REDUNDANCY,
    ACL_SHADOW,
    HIGH_LEVEL_OVERLAP,
    emit_alloy,
    find_acl_anomalies,
    find_rule_overlaps,
    service_intersection,
)
from forestfw.header_space import Packet
from forestfw.netgen import Acl, AclRule, CompileOptions, TERMINAL_DENY, compile_policy
from forestfw.policy_lang import expand_rules, parse_policy
from forestfw.policy_lang.syntax import FlowRule, PortRange, Service
from support import (
    find_acl_anomalies_pairwise,
    find_rule_overlaps_all_pairs,
    generated_policy_sources,
    random_service,
    service_accepts,
)


def tcp(name, dports, sports=((0, 65535),)):
    return Service(name, 6,
                   tuple(PortRange(*r) for r in sports),
                   tuple(PortRange(*r) for r in dports))


HTTP = tcp("http", [(80, 80)])
CUSTOM_HTTP = tcp("custom_http", [(8080, 8080)])


def test_disjoint_dports_do_not_intersect():
    assert service_intersection(HTTP, CUSTOM_HTTP) is None


def test_intersection_idempotent():
    shared = service_intersection(HTTP, HTTP)
    assert shared is not None
    assert shared.value_key() == HTTP.value_key()


def test_interval_intersection():
    a = tcp("a", [(80, 90)])
    b = tcp("b", [(85, 100)])
    shared = service_intersection(a, b)
    assert shared is not None
    assert shared.dest_ports == (PortRange(85, 90),)
    # brute membership at the boundary points
    hits = {p: service_accepts(shared, Packet(protocol=6, dport=p)) for p in (84, 85, 90, 91)}
    assert hits == {84: False, 85: True, 90: True, 91: False}


def test_protocol_mismatch_never_intersects():
    udp53 = Service("dns_udp", 17, (PortRange(0, 65535),), (PortRange(53, 53),))
    tcp53 = Service("dns_tcp", 6, (PortRange(0, 65535),), (PortRange(53, 53),))
    assert service_intersection(udp53, tcp53) is None


def test_icmp_intersection_on_types():
    echo = Service("echo", 1, icmp_types=(PortRange(8, 8),))
    any_icmp = Service("any", 1)
    shared = service_intersection(echo, any_icmp)
    assert shared is not None
    assert shared.icmp_types == (PortRange(8, 8),)


def test_fixture_overlap_is_exactly_the_web_file_transfer_pair(plant_spec):
    flows = expand_rules(plant_spec)
    reports = find_rule_overlaps(flows)
    assert len(reports) == 1
    report = reports[0]
    assert report.kind == HIGH_LEVEL_OVERLAP
    assert {report.rule_a, report.rule_b} == {"web_rule", "file_transfer_rule"}
    assert len(report.witnesses) == 1
    witness = report.witnesses[0]
    assert (witness.src_zone, witness.dst_zone) == ("z3", "z1")
    assert witness.service.protocol == 6
    assert witness.service.dest_ports == (PortRange(80, 80),)


def test_fixed_fixture_has_no_overlaps(plant_spec_fixed):
    assert find_rule_overlaps(expand_rules(plant_spec_fixed)) == []


def test_same_services_on_different_conduits_do_not_overlap():
    flows = [
        FlowRule("a", "z1", "z2", HTTP),
        FlowRule("b", "z1", "z3", HTTP),
    ]
    assert find_rule_overlaps(flows) == []


def test_flows_of_one_rule_never_self_report():
    flows = [
        FlowRule("a", "z1", "z2", HTTP),
        FlowRule("a", "z1", "z2", tcp("http_wide", [(70, 90)])),
    ]
    assert find_rule_overlaps(flows) == []


def _corners(svc: Service) -> list[Packet]:
    """The lowest and highest header points of a service."""
    if svc.protocol == 1:
        types = svc.icmp_types or (PortRange(0, 255),)
        return [Packet(protocol=1, icmp_type=types[0].lo),
                Packet(protocol=1, icmp_type=types[-1].hi)]
    sports = svc.source_ports or (PortRange(0, 65535),)
    dports = svc.dest_ports or (PortRange(0, 65535),)
    return [Packet(protocol=svc.protocol, sport=sports[0].lo, dport=dports[0].lo),
            Packet(protocol=svc.protocol, sport=sports[-1].hi, dport=dports[-1].hi)]


def test_witness_point_matched_by_both_rules():
    rng = random.Random(31)
    for _ in range(60):
        flows = [
            FlowRule(f"r{i}", "z1", "z2", random_service(rng, f"s{i}"))
            for i in range(rng.randint(2, 5))
        ]
        by_name = {f.rule_name: f for f in flows}
        for report in find_rule_overlaps(flows):
            for witness in report.witnesses:
                for point in _corners(witness.service):
                    assert service_accepts(witness.service, point)
                    assert service_accepts(by_name[report.rule_a].service, point)
                    assert service_accepts(by_name[report.rule_b].service, point)


def test_completeness_against_brute_force_oracle():
    import numpy as np
    from support import accept_masks as masks_of

    rng = random.Random(77)
    for _ in range(60):
        flows = [
            FlowRule(f"r{i}", "z1", "z2", random_service(rng, f"s{i}"))
            for i in range(rng.randint(2, 5))
        ]
        reported = {tuple(sorted((r.rule_a, r.rule_b)))
                    for r in find_rule_overlaps(flows)}
        expected = set()
        for i, fa in enumerate(flows):
            for fb in flows[i + 1:]:
                if fa.rule_name == fb.rule_name:
                    continue
                ma, mb = masks_of([fa.service]), masks_of([fb.service])
                if any(np.any(ma[k] & mb[k]) for k in ma):
                    expected.add(tuple(sorted((fa.rule_name, fb.rule_name))))
        assert reported == expected


def random_overlap_flows(rng: random.Random) -> list[FlowRule]:
    """Flows on few conduits from few rules over a small port space, so
    that overlaps, and equal intersections found twice, are common."""
    def ranges(upper):
        return tuple(PortRange(*sorted((rng.randrange(upper), rng.randrange(upper))))
                     for _ in range(rng.randint(1, 3)))

    flows = []
    for _ in range(rng.randint(2, 40)):
        name = f"{rng.choice('ab')}.s{rng.randrange(4)}"  # display names collide
        protocol = rng.choice((1, 6, 17, 89))
        if protocol == 1:
            svc = Service(name, 1, icmp_types=() if rng.random() < 0.3 else ranges(12))
        elif protocol == 89:
            svc = Service(name, 89)
        else:
            sports = (PortRange(0, 65535),) if rng.random() < 0.5 else ranges(12)
            svc = Service(name, protocol, sports, ranges(12))
        flows.append(FlowRule(f"r{rng.randrange(6)}", rng.choice(("z1", "z2")),
                              rng.choice(("z2", "z3")), svc))
    return flows


def test_overlaps_agree_with_all_pairs_oracle():
    rng = random.Random(2024)
    witnesses = 0
    for _ in range(400):
        flows = random_overlap_flows(rng)
        expected = find_rule_overlaps_all_pairs(flows)
        reports = find_rule_overlaps(flows)
        assert reports == expected
        assert [str(r) for r in reports] == [str(r) for r in expected]
        witnesses += sum(len(r.witnesses) for r in reports)
    assert witnesses > 1000


def test_overlaps_agree_with_all_pairs_oracle_on_generated_policies(plant_spec):
    specs = [plant_spec] + [parse_policy(text) for name, text in generated_policy_sources().items()
                            if not name.endswith("best_practice")]
    for spec in specs:
        flows = expand_rules(spec)
        assert find_rule_overlaps(flows) == find_rule_overlaps_all_pairs(flows)


def disjoint_flows(count: int) -> list[FlowRule]:
    """``count`` flows over three conduits, two to a rule, whose services
    meet nowhere: a TCP or UDP port or an ICMP type per flow, some with
    narrowed source ports, and an OSPF flow of one rule on each conduit."""
    conduits = (("z1", "z2"), ("z2", "z1"), ("z2", "z3"))
    flows = []
    for i in range(count):
        m, protocol = divmod(i, 3)
        if protocol == 2:  # one ICMP type per flow on its conduit
            svc = Service(f"lib.s{i}", 1, icmp_types=(PortRange(m // 3, m // 3),))
        else:
            sports = (PortRange(1024, 65535),) if i % 4 else (PortRange(0, 65535),)
            svc = Service(f"lib.s{i}", (6, 17)[protocol], sports, (PortRange(i, i),))
        flows.append(FlowRule(f"r{i // 2}", *conduits[m % 3], svc))
    return flows + [FlowRule("ospf", *zones, Service("ospf", 89)) for zones in conduits]


def test_overlap_check_intersects_only_overlapping_pairs(monkeypatch):
    """The check builds an intersection for each overlapping pair of flows
    and for no other, nor intersects any two flows' port sets: none on
    disjoint flows, k on k overlaps."""
    import forestfw.checker as checker
    from forestfw import intervals

    calls = []
    service_intersection = checker.service_intersection
    monkeypatch.setattr(checker, "service_intersection",
                        lambda a, b: calls.append((a, b)) or service_intersection(a, b))
    set_calls = []
    intersect = intervals.intersect
    monkeypatch.setattr(intervals, "intersect",
                        lambda a, b: set_calls.append((a, b)) or intersect(a, b))
    flows = disjoint_flows(900)
    assert find_rule_overlaps(flows) == []
    assert calls == set_calls == []
    # k flows of new rules, each sharing a port with one earlier flow, and
    # one flow of an old rule overlapping only a flow of its own rule
    tcp_flows = [f for f in flows if f.service.protocol == 6]
    extra = [FlowRule(f"x{k}", f.src_zone, f.dst_zone,
                      Service(f"x{k}", 6, dest_ports=f.service.dest_ports))
             for k, f in enumerate(tcp_flows[::7])]
    own = tcp_flows[1]._replace(service=Service(
        "again", 6, dest_ports=tcp_flows[1].service.dest_ports))
    overlapping = flows + extra + [own]
    reports = find_rule_overlaps(overlapping)
    assert len(calls) == len(extra) == len(reports) > 10
    assert reports == find_rule_overlaps_all_pairs(overlapping)


def test_overlap_witnesses_with_one_name_keep_the_order_they_were_found_in():
    """A TCP and a UDP intersection with the same display name sort as
    equal; the all-pairs scan finds the UDP one first here."""
    def svc(name, protocol, port):
        return Service(name, protocol, dest_ports=(PortRange(port, port),))

    flows = [FlowRule("a", "z1", "z2", svc("lib1.web", 17, 53)),
             FlowRule("b", "z1", "z2", svc("lib2.web", 6, 80)),
             FlowRule("a", "z1", "z2", svc("lib3.web", 6, 80)),
             FlowRule("b", "z1", "z2", svc("lib4.web", 17, 53))]
    reports = find_rule_overlaps(flows)
    assert [str(r) for r in reports] == ["rule overlap: a x b (z1->z2 ip_protocol=17 dest_port=53; "
                                         "z1->z2 ip_protocol=6 dest_port=80)"]
    assert [w.service.name for w in reports[0].witnesses] == ["(web ^ web)", "(web ^ web)"]
    assert reports == find_rule_overlaps_all_pairs(flows)


# ---------------------------------------------------------------------------
# ACL anomalies

NET_A = (ipaddress.IPv4Network("10.0.0.0/24"),)
NET_B = (ipaddress.IPv4Network("10.0.1.0/24"),)


def permit(dports, src=NET_A, dst=NET_B, state=(), action="permit"):
    return AclRule(action=action, protocol=6, src=src, dst=dst,
                   sport=(PortRange(0, 65535),),
                   dport=tuple(PortRange(*r) for r in dports), state=state)


def test_duplicate_permit_is_redundant():
    acl = Acl("acl_t", (permit([(80, 80)]), permit([(80, 80)]), TERMINAL_DENY))
    reports = find_acl_anomalies(acl)
    assert [r.kind for r in reports] == [ACL_REDUNDANCY]
    assert "acl_t[1]" in reports[0].rule_a


def test_strictly_covered_permit_is_redundant():
    acl = Acl("acl_t", (permit([(80, 100)]), permit([(85, 90)]), TERMINAL_DENY))
    reports = find_acl_anomalies(acl)
    assert [r.kind for r in reports] == [ACL_REDUNDANCY]
    # interval containment sanity at the boundaries
    outer, inner = acl.rules[0], acl.rules[1]
    for port, inside in ((84, False), (85, True), (90, True), (91, False)):
        assert (inner.dport[0].lo <= port <= inner.dport[0].hi) is inside
        assert outer.dport[0].lo <= 84 and outer.dport[0].hi >= 91 - 1


def test_union_coverage_is_redundant():
    acl = Acl("acl_t", (
        permit([(80, 89)]),
        permit([(90, 100)]),
        permit([(85, 95)]),  # covered only by the union of the first two
        TERMINAL_DENY,
    ))
    reports = find_acl_anomalies(acl)
    assert [r.kind for r in reports] == [ACL_REDUNDANCY]
    assert "acl_t[2]" in reports[0].rule_a


def test_partial_overlap_is_not_reported():
    acl = Acl("acl_t", (permit([(80, 90)]), permit([(85, 100)]), TERMINAL_DENY))
    assert find_acl_anomalies(acl) == []


def test_shadowed_deny_reported():
    acl = Acl("acl_t", (
        permit([(80, 100)]),
        permit([(85, 90)], action="deny"),  # can never fire
        TERMINAL_DENY,
    ))
    reports = find_acl_anomalies(acl)
    assert [r.kind for r in reports] == [ACL_SHADOW]


def test_state_dimension_prevents_false_coverage():
    stateful = permit([(80, 80)], state=("ESTABLISHED",))
    stateless = permit([(80, 80)])
    # ESTABLISHED-only first: the stateless rule still matches NEW packets
    acl = Acl("acl_t", (stateful, stateless, TERMINAL_DENY))
    assert find_acl_anomalies(acl) == []
    # stateless first covers both states: the stateful rule is redundant
    acl2 = Acl("acl_t", (stateless, stateful, TERMINAL_DENY))
    assert [r.kind for r in find_acl_anomalies(acl2)] == [ACL_REDUNDANCY]


def test_generated_fixture_acls_are_anomaly_free(compiled_plant):
    for firewall in compiled_plant.firewalls():
        for acl in compiled_plant.acls[firewall]:
            assert find_acl_anomalies(acl) == []


def test_anomaly_detection_against_dense_grid_oracle():
    """Randomized ACLs: coverage classification matches a pointwise oracle.

    Rules are TCP or ICMP (types in dport, the AclRule encoding), and some
    copy an earlier rule with only the set of connection states changed.
    """
    import numpy as np

    rng = random.Random(2718)
    pool = [ipaddress.IPv4Network(f"10.9.{i}.0/24") for i in range(3)]
    samples = np.array([int(n.network_address) for n in pool])
    state_sets = ((), ("NEW",), ("ESTABLISHED",), ("NEW", "ESTABLISHED"))

    def rule_mask(rule: AclRule) -> np.ndarray:
        # dims: protocol {ICMP, TCP}, src sample, dst sample, sport 0..7,
        # dport (ICMP type) 0..7, state {N,E}
        mask = np.zeros((2, 3, 3, 8, 8, 2), dtype=bool)
        proto_ok = [rule.protocol == 1, rule.protocol == 6]
        src_ok = [any(a in n for n in rule.src)
                  for a in (ipaddress.IPv4Address(int(v)) for v in samples)]
        dst_ok = [any(a in n for n in rule.dst)
                  for a in (ipaddress.IPv4Address(int(v)) for v in samples)]
        states = [("NEW" in rule.state or not rule.state),
                  ("ESTABLISHED" in rule.state or not rule.state)]
        for pi, p_in in enumerate(proto_ok):
            for si, s_in in enumerate(src_ok):
                for di, d_in in enumerate(dst_ok):
                    if not (p_in and s_in and d_in):
                        continue
                    for sp_lo, sp_hi in rule.sport or (PortRange(0, 65535),):
                        for dp_lo, dp_hi in rule.dport or (PortRange(0, 65535),):
                            for st, st_in in enumerate(states):
                                if st_in:
                                    mask[pi, si, di,
                                         sp_lo:min(sp_hi, 7) + 1,
                                         dp_lo:min(dp_hi, 7) + 1, st] = True
        return mask

    kinds = set()
    for _ in range(160):
        rules = []
        for i in range(rng.randint(2, 5)):
            state = rng.choice(state_sets)
            if rules and rng.random() < 0.3:
                rules.append(rng.choice(rules)._replace(state=state))
                continue
            protocol = rng.choice((1, 6))
            sp = rng.randrange(8)
            dp = rng.randrange(8)
            rules.append(AclRule(
                action=rng.choice(("permit", "permit", "deny")),
                protocol=protocol,
                src=(pool[rng.randrange(3)],),
                dst=(pool[rng.randrange(3)],),
                sport=(PortRange(sp, rng.randrange(sp, 8)),) if protocol == 6 else (),
                dport=(PortRange(dp, rng.randrange(dp, 8)),),
                state=state,
            ))
        acl = Acl("acl_r", tuple(rules) + (TERMINAL_DENY,))
        reports = {r.rule_a: r.kind for r in find_acl_anomalies(acl)}
        kinds.update((rule.protocol, reports.get(f"acl_r[{i}]"))
                     for i, rule in enumerate(rules))

        masks = [rule_mask(r) for r in rules]
        for i, rule in enumerate(rules):
            earlier_permits = [masks[j] for j in range(i)
                               if rules[j].action == "permit"]
            earlier_all = masks[:i]
            covered_by_permits = (
                bool(earlier_permits)
                and not np.any(masks[i] & ~np.logical_or.reduce(earlier_permits)))
            covered_by_all = (
                bool(earlier_all)
                and not np.any(masks[i] & ~np.logical_or.reduce(earlier_all)))
            name = f"acl_r[{i}]"
            if rule.action == "permit" and covered_by_permits:
                assert reports.get(name) == ACL_REDUNDANCY
            elif covered_by_all:
                assert reports.get(name) == ACL_SHADOW
            else:
                assert name not in reports
    # both protocols met every classification
    assert kinds == {(p, k) for p in (1, 6) for k in (ACL_REDUNDANCY, ACL_SHADOW, None)}


FUZZ_NETS = tuple(ipaddress.IPv4Network(text) for text in (
    "0.0.0.0/0", "10.0.0.0/16", "10.0.1.0/24", "10.0.1.128/25", "10.0.2.0/24", "192.168.0.0/24"))
STATE_SETS = ((), ("NEW",), ("ESTABLISHED",), ("NEW", "ESTABLISHED"))


def random_fuzz_acl(rng: random.Random) -> Acl:
    """A short ACL of the shapes the dense-grid oracle never draws.

    Rules are ``ip`` (protocol None), ICMP, TCP, UDP or protocol 89, over
    nested and multi-CIDR address fields; ICMP types are empty, explicit
    0-255 or partial, ports empty, full or partial; some rules copy an
    earlier one with only the states changed, and most ACLs end in the
    terminal deny.
    """
    def ranges(bounds: tuple[int, ...]) -> tuple[PortRange, ...]:
        draw = rng.random()
        if draw < 0.25:
            return ()
        if draw < 0.4:
            return (PortRange(0, bounds[-1]),)
        return tuple(PortRange(*sorted(rng.sample(bounds, 2))) for _ in range(rng.randint(1, 2)))

    rules = []
    for _ in range(rng.randint(1, 6)):
        if rules and rng.random() < 0.35:
            rules.append(rng.choice(rules)._replace(state=rng.choice(STATE_SETS)))
            continue
        protocol = rng.choice((None, 1, 1, 6, 6, 17, 17, 89))
        ported = protocol in (6, 17)
        rules.append(AclRule(
            action=rng.choice(("permit", "permit", "deny")), protocol=protocol,
            src=tuple(rng.sample(FUZZ_NETS, rng.randint(1, 2))),
            dst=tuple(rng.sample(FUZZ_NETS, rng.randint(1, 2))),
            sport=ranges((0, 53, 1024, 65535)) if ported else (),
            dport=(ranges((0, 22, 80, 443, 65535)) if ported
                   else ranges((0, 3, 8, 255)) if protocol == 1 else ()),
            state=rng.choice(STATE_SETS)))
    if rng.random() < 0.7:
        rules.append(TERMINAL_DENY)
    return Acl("acl_f", tuple(rules))


def test_anomaly_detection_against_pairwise_box_oracle():
    rng = random.Random(1402)
    kinds = set()
    for _ in range(1500):
        acl = random_fuzz_acl(rng)
        reports = find_acl_anomalies(acl)
        assert reports == find_acl_anomalies_pairwise(acl), acl
        kinds.update((r.kind, acl.rules[int(r.rule_a.removeprefix("acl_f[")[:-1])].protocol) for r in reports)
    # every protocol, ip included, met both kinds of report
    assert kinds == {(k, p) for k in (ACL_REDUNDANCY, ACL_SHADOW) for p in (None, 1, 6, 17, 89)}


def with_copies(acl: Acl, after: set[int], deny: bool) -> tuple[Acl, dict[str, str]]:
    """``acl`` with a copy of each rule in ``after`` right behind it (as a
    deny when ``deny``), and the one report each copy must draw."""
    rules, expected = [], {}
    for i, rule in enumerate(acl.rules):
        rules.append(rule)
        if i in after:
            copy = rule._replace(action="deny") if deny else rule
            expected[f"{acl.name}[{len(rules)}]"] = (
                ACL_REDUNDANCY if copy.action == "permit" else ACL_SHADOW)
            rules.append(copy)
    return Acl(acl.name, tuple(rules)), expected


def test_copied_rules_of_compiled_acls_draw_exactly_one_report(compiled_plant, plant_topology):
    """A copy right behind a rule of an anomaly-free compiled ACL is the
    only anomaly: redundant as a permit, shadowed as a deny.  Plant ACLs
    get one copy at a time; bulk seed 1 ACLs a copy of every rule at once,
    which gives the same reports, since a copy decides nothing."""
    source = generated_policy_sources()
    bulk = compile_policy(parse_policy(source["bulk1"]), plant_topology, CompileOptions(
        best_practice=parse_policy(source["bulk1_best_practice"])))
    cases = []
    for policy, one_at_a_time in ((compiled_plant, True), (bulk, False)):
        for firewall in policy.firewalls():
            for acl in policy.acls[firewall]:
                assert find_acl_anomalies(acl) == []
                copied = range(len(acl.rules) - 1)  # not the terminal deny
                cases += [(acl, {i}) for i in copied] if one_at_a_time else [(acl, set(copied))]
    for acl, after in cases:
        for deny in (False, True):
            faulty, expected = with_copies(acl, after, deny)
            assert {r.rule_a: r.kind for r in find_acl_anomalies(faulty)} == expected


# ---------------------------------------------------------------------------
# relational model export

def test_alloy_export_is_byte_stable(plant_spec):
    flows = expand_rules(plant_spec)
    first = emit_alloy(plant_spec, flows)
    second = emit_alloy(plant_spec, list(reversed(flows)))
    assert first == second
    assert "abstract sig Service" in first
    assert "abstract sig PolicyRule" in first
    assert "one sig SecurityPolicy" in first
    assert "assert no_rule_overlaps" in first
