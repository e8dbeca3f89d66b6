import ipaddress
import random
from pathlib import Path

import pytest

from forestfw.cli import main
from forestfw.diagnostics import PolicyError
from forestfw.netgen import (
    AclRule,
    CompileOptions,
    compile_policy,
    enumerate_paths,
    hop_acls,
    hop_crossings,
)
from forestfw.policy_lang.syntax import FlowRule, PortRange, Service
from forestfw import sim
from forestfw.topo_model import (
    LOCAL_INTERFACE,
    Zone,
    ZoneConduitModel,
    build_zone_firewall_model,
    derive_zone_conduit,
    firewall_zones,
)
from forestfw.sim import (
    ESTABLISHED,
    NEW,
    Leak,
    Packet,
    ScanSpec,
    SimNetwork,
    default_scan_spec,
    inject,
    representative_packet,
    vet_negative,
    vet_positive,
)
from support import (
    brute_force_leaks,
    eval_acl,
    first_match_by_scan,
    from_network_policy,
    grid_model,
    inject_by_scan,
    packet_matches,
    pair_plan,
    plan_delivers,
    ring_model,
    rule_matches_packet,
    scan_packet,
    service_accepts,
    zone_of_address,
)


def addr(text: str) -> int:
    return int(ipaddress.IPv4Address(text))


SCADA_HOST = addr("10.0.0.17")
CORP_HOST = addr("10.0.0.1")


@pytest.fixture()
def net(compiled_plant) -> SimNetwork:
    return from_network_policy(compiled_plant)


def test_https_from_scada_to_corp_delivered(net):
    packet = Packet(SCADA_HOST, CORP_HOST, 6, 40000, 443, 0, NEW)
    result = inject(net, packet, "z3")
    assert result.delivered
    assert [hop.firewall for hop in result.trace] == ["R2", "R1"]
    assert all(hop.verdict == "permit" for hop in result.trace)


def test_unpermitted_port_dropped_at_first_firewall(net):
    packet = Packet(SCADA_HOST, CORP_HOST, 6, 40000, 8080, 0, NEW)
    result = inject(net, packet, "z3")
    assert not result.delivered
    assert result.trace[-1].firewall == "R2"
    assert result.trace[-1].verdict == "deny"


def test_removing_the_https_rule_blocks_delivery(compiled_plant):
    # fault injection: strip the scada->corp HTTPS permits out of every ACL
    net = from_network_policy(compiled_plant)
    filtered = {}
    for key, rules in net.acl_map.items():
        filtered[key] = tuple(
            r for r in rules
            if not (r.action == "permit" and r.protocol == 6
                    and r.dport == (PortRange(443, 443),)
                    and any(n.network_address == ipaddress.IPv4Address("10.0.0.16")
                            for n in r.src)))
    net.acl_map = filtered
    packet = Packet(SCADA_HOST, CORP_HOST, 6, 40000, 443, 0, NEW)
    result = inject(net, packet, "z3")
    assert not result.delivered


def test_established_without_prior_new_dropped(net):
    packet = Packet(CORP_HOST, SCADA_HOST, 6, 443, 40000, 0, ESTABLISHED)
    result = inject(net, packet, "z1")
    assert not result.delivered
    assert "no connection entry" in result.reason


def test_established_after_new_delivered(net):
    net.reset_connections()
    forward = Packet(SCADA_HOST, CORP_HOST, 6, 40000, 443, 0, NEW)
    assert inject(net, forward, "z3").delivered
    reverse = Packet(CORP_HOST, SCADA_HOST, 6, 443, 40000, 0, ESTABLISHED)
    assert inject(net, reverse, "z1").delivered


def test_destination_outside_every_zone_rejected(net):
    with pytest.raises(PolicyError, match="belongs to no zone"):
        inject(net, Packet(SCADA_HOST, addr("192.0.2.1"), 6, 1, 2), "z3")


def test_destination_zone_is_the_first_overlapping_zone_in_name_order():
    """inject's destination zone is the model's: of the zones whose CIDRs
    hold the address, the first in name order."""
    model = ZoneConduitModel()
    for name, cidrs in (("zb", "10.0.0.0/16"), ("zd", "10.0.4.128/25"),
                        ("za", "10.0.4.0/24,10.0.9.0/30"), ("zc", "10.0.0.0/8,192.0.2.0/28")):
        model.zones[name] = Zone(name, "regular", frozenset(),
                                 tuple(ipaddress.IPv4Network(c) for c in cidrs.split(",")))
    net = SimNetwork(model, {}, ())
    bounds = [int(edge) for zone in model.zones.values() for cidr in zone.cidrs
              for edge in (cidr.network_address, cidr.broadcast_address)]
    zones = set()
    for address in {a + delta for a in bounds for delta in (-1, 0, 1)}:
        zone = zone_of_address(model, address)
        assert net.zone_of_address(address) == zone, ipaddress.IPv4Address(address)
        zones.add(zone)
        if zone is None:
            with pytest.raises(PolicyError, match="belongs to no zone"):
                inject(net, Packet(0, address, 6, 1, 2), "zd")
        elif zone != "zd":  # no conduits: inject names the pair it cannot route
            result = inject(net, Packet(0, address, 6, 1, 2), "zd")
            assert result.reason == f"no valid path zd -> {zone}"
    assert zones == {"za", "zb", "zc", None}  # zd lies wholly inside za


def test_unknown_ingress_zone_rejected(net):
    with pytest.raises(PolicyError, match="unknown ingress zone"):
        inject(net, Packet(SCADA_HOST, CORP_HOST, 6, 1, 2), "nowhere")


def test_vet_positive_fixture_all_pass(net):
    results = vet_positive(net)
    assert len(results) == len(net.flows)
    assert all(r.outcome == 1 for r in results)


def test_vet_positive_reports_fault_injection(compiled_plant):
    net = from_network_policy(compiled_plant)
    # delete every oracle_sqlnet permit (dport 1521) from every ACL
    net.acl_map = {
        key: tuple(r for r in rules if r.dport != (PortRange(1521, 1521),))
        for key, rules in net.acl_map.items()
    }
    results = vet_positive(net)
    failed = {r.rule_name for r in results if r.outcome == 0}
    assert failed == {"corp_scada_oracle"}


def test_vet_negative_fixture_clean(net):
    scan = ScanSpec(ports=(PortRange(0, 1023), PortRange(8080, 8080),
                           PortRange(24500, 24600)))
    assert vet_negative(net, scan) == []


def test_vet_negative_catches_generic_permit(compiled_plant):
    net = from_network_policy(compiled_plant)
    generic = AclRule(
        action="permit", protocol=6,
        src=(ipaddress.IPv4Network("0.0.0.0/0"),),
        dst=(ipaddress.IPv4Network("0.0.0.0/0"),))
    net.acl_map = {key: (generic,) + rules for key, rules in net.acl_map.items()}
    leaks = vet_negative(net, ScanSpec(protocols=(6,), ports=(PortRange(0, 64),)))
    assert len(leaks) > 100


def test_scan_restricted_to_enabled_ports_is_clean(net):
    scan = ScanSpec(protocols=(6,), ports=(PortRange(443, 443),))
    assert vet_negative(net, scan) == []


def test_default_scan_spec_includes_referenced_ports(net):
    spec = default_scan_spec(net)
    values = set(spec.port_values())
    assert 0 in values and 1023 in values
    assert 1521 in values           # oracle_sqlnet
    assert 24500 in values and 24600 in values  # ftp_data
    assert 65535 not in values      # full ranges are not "referenced ports"


def test_representative_packet_is_lowest_corner(net):
    flow = next(f for f in net.flows if f.service.display_name == "ftp_data")
    packet = representative_packet(net, flow)
    assert packet.dport == 24500
    assert packet.sport == 0
    assert packet.state == NEW


def test_stateful_discipline_no_established_before_new(net):
    net.reset_connections()
    reverse = Packet(CORP_HOST, SCADA_HOST, 6, 443, 40001, 0, ESTABLISHED)
    assert not inject(net, reverse, "z1").delivered
    forward = Packet(SCADA_HOST, CORP_HOST, 6, 40001, 443, 0, NEW)
    assert inject(net, forward, "z3").delivered
    assert inject(net, reverse, "z1").delivered


def test_single_firewall_agrees_with_first_match_semantics():
    """inject() over a one-firewall chain equals the first match of its
    ACL, rule by rule, for TCP, UDP and ICMP packets, NEW and ESTABLISHED."""
    from forestfw.topo_model import load_topology
    from test_topo_model import CHAIN

    topo = load_topology(CHAIN)
    source = """
import system.services.iana_services;
import system.services.iana_icmp;
zone_group left { z1 }
zone_group right { z3 }
policy_rule a { left -> right : iana_services.https }
policy_rule b { left -> right : iana_services.dns_udp }
policy_rule c { left -> right : iana_icmp.icmp_echo }
policy_rule d { right -> left : iana_services.ssh }
reporting_rule rep { use_case=verification; }
rule_group g { a, b, c, d }
policy p { g; rep; }
"""
    from forestfw.policy_lang import parse_policy
    policy = compile_policy(parse_policy(source), topo)
    net = from_network_policy(policy)

    # z1-facing interface: forward rules of a, b, c and the returns of d
    acl = net.acl_map[("fw", "p0", "inbound")]
    assert {r.protocol for r in acl} == {1, 6, 17, None}
    assert any(r.state == (ESTABLISHED,) for r in acl)
    src, dst = addr("10.1.0.1"), addr("10.3.0.1")
    rng = random.Random(17)
    verdicts = set()
    for _ in range(600):
        protocol = rng.choice((1, 6, 17))
        state = rng.choice((NEW, ESTABLISHED))
        if protocol == 1:
            packet = Packet(src, dst, 1, 0, 0, rng.choice((0, 8, rng.randrange(256))), state)
        else:
            sport, dport = (rng.choice((22, 53, 443, rng.randrange(1024))) for _ in range(2))
            packet = Packet(src, dst, protocol, sport, dport, 0, state)
        net.reset_connections()
        if state == ESTABLISHED:
            # the connection an earlier NEW packet of the mirrored flow opened
            net.connections.add((protocol, dst, packet.dport, src, packet.sport))
        delivered = inject(net, packet, "z1").delivered
        assert delivered == (first_match_by_scan(acl, packet)[0] == "permit"), packet
        verdicts.add((protocol, state, delivered))
    assert len(verdicts) == 12  # each protocol and state met both verdicts


def test_accept_relation_equals_flow_relation_over_scan_space(net):
    """Delivered iff implied, for every zone pair and scanned header."""
    ports = [0, 21, 22, 25, 53, 80, 443, 514, 1023, 1521, 8080, 24500, 24600]
    zones = sorted(net.model.zones)
    for src in zones:
        for dst in zones:
            if src == dst:
                continue
            src_addr, dst_addr, paths, services = pair_plan(net, src, dst)
            if not paths:
                # unroutable pairs must also have no flows expecting delivery
                assert services == []
                continue
            for protocol in (1, 6, 17):
                for value in ports:
                    if protocol == 1 and value > 255:
                        continue
                    packet = scan_packet(src_addr, dst_addr, protocol, value)
                    delivered = plan_delivers(paths, packet)
                    implied = any(service_accepts(s, packet) for s in services)
                    assert delivered == implied, (src, dst, protocol, value)


# ---------------------------------------------------------------------------
# interval sweep vs. the per-packet scan

ANY = (ipaddress.IPv4Network("0.0.0.0/0"),)


def test_vet_negative_equals_per_packet_scan_on_plant(net):
    assert vet_negative(net) == brute_force_leaks(net) == []


@pytest.mark.parametrize("fault", [
    AclRule("permit", 6, ANY, ANY),
    AclRule("permit", 17, ANY, ANY, sport=(PortRange(40000, 50000),),
            dport=(PortRange(100, 900),)),
    AclRule("permit", 1, ANY, ANY, dport=(PortRange(3, 11),)),
])
def test_vet_negative_equals_per_packet_scan_on_faulty_plant(compiled_plant, fault):
    net = from_network_policy(compiled_plant)
    net.acl_map = {key: (fault,) + rules for key, rules in net.acl_map.items()}
    scan = ScanSpec(ports=(PortRange(0, 300), PortRange(1521, 1521),
                           PortRange(24500, 24600)))
    leaks = vet_negative(net, scan)
    assert leaks
    assert leaks == brute_force_leaks(net, scan)


def _random_ports(rng: random.Random) -> tuple[PortRange, ...]:
    choices = [(), (PortRange(49000, 49200),), (PortRange(65500, 65535),)]
    spans = []
    for _ in range(rng.randint(1, 2)):
        lo = rng.randrange(320)
        spans.append(PortRange(lo, rng.randrange(lo, 320)))
    choices.append(tuple(spans))
    return rng.choice(choices)


def _random_sports(rng: random.Random) -> tuple[PortRange, ...]:
    return rng.choice([(), (PortRange(53, 53),), (PortRange(0, 1023),),
                       (PortRange(49152, 49152),), (PortRange(1024, 65535),)])


def _random_rule(rng: random.Random, nets: list) -> AclRule:
    src, dst = rng.choice(nets), rng.choice(nets)
    kind = rng.choice(["tcp", "tcp_generic", "udp", "established", "deny",
                       "icmp", "ospf", "ip_deny"])
    if kind == "tcp":
        return AclRule("permit", 6, src, dst, sport=_random_sports(rng),
                       dport=_random_ports(rng), state=rng.choice([(), ("NEW", "ESTABLISHED")]))
    if kind == "tcp_generic":
        return AclRule("permit", 6, src, dst)
    if kind == "udp":
        return AclRule("permit", 17, src, dst, sport=_random_sports(rng),
                       dport=_random_ports(rng))
    if kind == "established":
        return AclRule("permit", rng.choice((6, 17)), src, dst,
                       dport=_random_ports(rng), state=("ESTABLISHED",))
    if kind == "deny":
        return AclRule("deny", rng.choice((1, 6, 17)), src, dst, dport=_random_ports(rng))
    if kind == "icmp":
        lo = rng.randrange(256)
        types = rng.choice([(), (PortRange(lo, rng.randrange(lo, 256)),)])
        return AclRule(rng.choice(("permit", "deny")), 1, src, dst, dport=types)
    if kind == "ospf":
        return AclRule("permit", 89, src, dst)
    return AclRule("deny", None, src, dst)


def _random_service(rng: random.Random, name: str) -> Service:
    protocol = rng.choice((1, 6, 17, 89))
    if protocol == 1:
        lo = rng.randrange(256)
        return Service(name, 1, icmp_types=rng.choice([(), (PortRange(lo, min(lo + 9, 255)),)]))
    if protocol == 89:
        return Service(name, 89)
    return Service(name, protocol, source_ports=_random_sports(rng),
                   dest_ports=_random_ports(rng))


@pytest.mark.parametrize("topology", ["plant", "ring"])
def test_vet_negative_equals_per_packet_scan_on_random_acls(compiled_plant, topology):
    """Random ACL maps: identical leaks, in identical order."""
    model = compiled_plant.model if topology == "plant" else ring_model()
    keys = [(fw, iface, "inbound") for fw, ifaces in sorted(model.firewall_interfaces.items())
            for iface in sorted(ifaces.values())]
    keys += [(fw, LOCAL_INTERFACE, d) for fw in sorted(model.firewall_interfaces)
             for d in ("inbound", "outbound")]
    zones = sorted(model.zones)
    nets = [ANY] + [(cidr,) for zone in model.zones.values() for cidr in zone.cidrs]
    scan = ScanSpec(protocols=(1, 6, 17, 89),
                    ports=(PortRange(0, 40), PortRange(250, 300), PortRange(443, 443),
                           PortRange(49150, 49160), PortRange(65530, 65535)))
    total = 0
    for seed in range(30):
        rng = random.Random(seed)
        acl_map = {key: tuple(_random_rule(rng, nets) for _ in range(rng.randint(0, 6)))
                   for key in keys}
        flows = []
        for i in range(rng.randint(0, 25)):
            # mostly between the regular zones, where most leaks are
            src, dst = rng.sample(["z1", "z2", "z3"] if rng.random() < 0.7 else zones, 2)
            flows.append(FlowRule(f"f{i}", src, dst, _random_service(rng, f"s{i}")))
        net = SimNetwork(model, acl_map, tuple(flows))
        leaks = vet_negative(net, scan)
        assert leaks == brute_force_leaks(net, scan), seed
        total += len(leaks)
    assert total > 0


def test_vet_negative_leaks_start_and_end_on_atom_edges():
    """Permits straddling a flow's dport bounds, and a deny inside one,
    leak exactly the values past the bounds, as the per-packet scan does."""
    def udp(action: str, lo: int, hi: int) -> AclRule:
        return AclRule(action, 17, ANY, ANY, dport=(PortRange(lo, hi),))

    # z1 -> z3 directly through fd, or through fa or fb, then fc
    acl_map = {("fd", "p0", "inbound"): (udp("deny", 240, 245), udp("permit", 150, 250)),
               ("fa", "p0", "inbound"): (udp("permit", 50, 120),),
               ("fb", "p0", "inbound"): (udp("permit", 40, 60),),
               ("fc", "p0", "inbound"): (udp("permit", 30, 95),)}
    app = Service("app", 17, dest_ports=(PortRange(100, 200),))
    net = SimNetwork(ring_model(), acl_map, (FlowRule("app", "z1", "z3", app),))
    scan = ScanSpec(protocols=(17,), ports=(PortRange(0, 300),))
    leaks = vet_negative(net, scan)
    assert leaks == brute_force_leaks(net, scan)
    to_z3 = [leak.port for leak in leaks if (leak.src_zone, leak.dst_zone) == ("z1", "z3")]
    assert to_z3 == [*range(40, 96), *range(201, 240), *range(246, 251)]


def test_flow_admits_scan_only_at_the_scan_sport():
    """A UDP flow whose source ports exclude SCAN_SPORT implies no scanned value."""
    permit = AclRule("permit", 17, ANY, ANY, dport=(PortRange(53, 53),))
    acl_map = {("fd", "p0", "inbound"): (permit,)}
    scan = ScanSpec(protocols=(17,), ports=(PortRange(50, 55),))

    def leaks(sports: PortRange) -> list[Leak]:
        dns = Service("dns", 17, source_ports=(sports,), dest_ports=(PortRange(53, 53),))
        net = SimNetwork(ring_model(), acl_map, (FlowRule("dns", "z1", "z3", dns),))
        return vet_negative(net, scan)

    assert leaks(PortRange(53, 53)) == [Leak("z1", "z3", 17, 53)]
    assert leaks(PortRange(1024, 65535)) == []


def test_full_port_scan_of_plant_is_clean(net):
    assert vet_negative(net, ScanSpec(ports=(PortRange(0, 65535),))) == []


def test_rule_matches_packet_equals_oracle_matcher():
    rng = random.Random(5)
    nets = [ANY, (ipaddress.IPv4Network("10.0.0.0/29"),), ()]
    for _ in range(2000):
        rule = _random_rule(rng, nets)
        packet = Packet(rng.choice((1, 7, 300)), rng.choice((2, 9)), rng.choice((1, 6, 17, 89)),
                        rng.choice((53, 49152, 60000)), rng.randrange(320), rng.randrange(256),
                        rng.choice((NEW, ESTABLISHED)))
        assert rule_matches_packet(rule, packet) == packet_matches(rule, packet), (rule, packet)


def test_rule_matches_packet_wildcards():
    anynet = (ipaddress.IPv4Network("0.0.0.0/0"),)
    deny_all = AclRule(action="deny", protocol=None, src=anynet, dst=anynet)
    for protocol in (1, 6, 17, 89):
        assert rule_matches_packet(deny_all, Packet(1, 2, protocol, 3, 4, 5, NEW))
    stateful = AclRule(action="permit", protocol=6, src=anynet, dst=anynet,
                       state=("ESTABLISHED",))
    assert not rule_matches_packet(stateful, Packet(1, 2, 6, 3, 4, 0, NEW))
    assert rule_matches_packet(stateful, Packet(1, 2, 6, 3, 4, 0, ESTABLISHED))


# ---------------------------------------------------------------------------
# match tables vs. the rule-at-a-time matcher

RING_NETS = [
    ANY,
    (ipaddress.IPv4Network("10.1.0.0/24"), ipaddress.IPv4Network("10.1.8.0/30")),
    (ipaddress.IPv4Network("10.1.8.0/30"),),
    (ipaddress.IPv4Network("10.2.0.0/24"),),
    (ipaddress.IPv4Network("10.2.0.128/25"), ipaddress.IPv4Network("10.3.0.0/24")),
    (ipaddress.IPv4Network("10.3.0.0/24"),),
    (ipaddress.IPv4Network("10.3.0.0/30"), ipaddress.IPv4Network("10.1.0.0/24")),
]


def _random_acl_rule(rng: random.Random) -> AclRule:
    """Any protocol including ``ip``, any state set, narrowed sports."""
    protocol = rng.choice((1, 6, 17, 89, None))
    ports = {}
    if protocol in (6, 17):
        ports = {"sport": _random_sports(rng), "dport": _random_ports(rng)}
    elif protocol == 1 and rng.random() < 0.7:
        lo = rng.randrange(256)
        ports = {"dport": (PortRange(lo, rng.randrange(lo, 256)),)}
    return AclRule(rng.choice(("permit", "permit", "deny")), protocol,
                   rng.choice(RING_NETS), rng.choice(RING_NETS),
                   state=rng.choice(((), (NEW,), (ESTABLISHED,), (NEW, ESTABLISHED))),
                   comment=rng.choice(("", "web", "dns")), origin_service=f"s{rng.randrange(4)}",
                   **ports)


def _random_packet(rng: random.Random, model, src_zone: str, dst_zone: str) -> Packet:
    def address(zone: str) -> int:
        cidr = rng.choice(model.zones[zone].cidrs)
        low, high = int(cidr.network_address), int(cidr.broadcast_address)
        return rng.choice((low, high, rng.randint(low, high)))

    protocol = rng.choice((1, 6, 17, 89))
    sport = rng.choice((53, 49152, 60000, rng.randrange(65536)))
    return Packet(address(src_zone), address(dst_zone), protocol, sport,
                  rng.choice((443, 65535, rng.randrange(320))), rng.randrange(256),
                  rng.choice((NEW, ESTABLISHED)))


def test_eval_acl_equals_rule_at_a_time_first_match():
    model = ring_model()
    verdicts = set()
    for seed in range(200):
        rng = random.Random(seed)
        rules = tuple(_random_acl_rule(rng) for _ in range(rng.randint(0, 8)))
        for _ in range(20):
            src, dst = rng.sample(sorted(model.zones), 2)
            packet = _random_packet(rng, model, src, dst)
            decision = eval_acl(rules, packet)
            assert decision == first_match_by_scan(rules, packet), (seed, rules, packet)
            verdicts.add((packet.protocol, packet.state, decision[0]))
    assert len(verdicts) == 16  # every protocol and state met both verdicts


def test_inject_equals_rule_at_a_time_walk_on_random_acls():
    """Random ACL maps on the ring: same delivery and same hop trace."""
    model = ring_model()
    keys = [(fw, iface, "inbound") for fw, ifaces in sorted(model.firewall_interfaces.items())
            for iface in sorted(ifaces.values())]
    zones = sorted(model.zones)
    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        acl_map = {key: tuple(_random_acl_rule(rng) for _ in range(rng.randint(0, 10)))
                   for key in keys}
        net = SimNetwork(model, acl_map, ())
        for _ in range(40):
            src, dst = rng.sample(zones, 2)
            packet = _random_packet(rng, model, src, dst)
            net.reset_connections()
            if packet.state == ESTABLISHED:
                net.connections.add((packet.protocol, packet.dst_addr, packet.dport,
                                     packet.src_addr, packet.sport))
            result = inject(net, packet, src)
            assert (result.delivered, result.trace) == inject_by_scan(net, packet, src), seed
            outcomes.add((result.delivered, len(result.trace)))
    assert {True, False} <= {delivered for delivered, _ in outcomes}
    assert max(hops for _, hops in outcomes) >= 2


def test_replacing_acl_map_after_inject_changes_the_next_verdict(compiled_plant):
    net = from_network_policy(compiled_plant)
    packet = Packet(SCADA_HOST, CORP_HOST, 6, 40000, 443, 0, NEW)
    assert inject(net, packet, "z3").delivered
    original = net.acl_map
    deny_all = {key: (AclRule("deny", None, ANY, ANY),) for key in original}
    net.acl_map = deny_all
    result = inject(net, packet, "z3")
    assert not result.delivered
    assert result.trace[0].rule == "[0] deny (terminal)"
    net.acl_map = original
    assert inject(net, packet, "z3").delivered
    # rebinding one key of the same dict is seen too
    key = ("R2", result.trace[0].interface, "inbound")
    assert key in original
    net.acl_map[key] = deny_all[key]
    assert not inject(net, packet, "z3").delivered


def test_inject_enumerates_each_pair_once(compiled_plant, monkeypatch):
    """Positive vetting enumerates the paths of each (src, dst, established)
    once, however many packets cross the pair."""
    calls = []
    enumerate_paths = sim.enumerate_paths

    def counted(model, src, dst, established=False, **kwargs):
        calls.append((src, dst, established))
        return enumerate_paths(model, src, dst, established, **kwargs)

    monkeypatch.setattr(sim, "enumerate_paths", counted)
    net = from_network_policy(compiled_plant)
    first = vet_positive(net)
    assert all(result.outcome for result in first)
    assert vet_positive(net) == first  # the second run reads only the cache
    assert len(calls) == len(set(calls)) == len(net.route_cache)
    assert len(calls) < len(net.flows)


def compile_plant(fixture_dir, out) -> None:
    """``compile --ospf`` of the fixed plant against its best practice into ``out``."""
    assert main(["compile", "--policy", str(fixture_dir / "scada_plant_fixed.policyml"),
                 "--topology", str(fixture_dir / "topology.graphml"),
                 "--best-practice", str(fixture_dir / "bestpractice" / "scada_isa.policyml"),
                 "--ospf", "--out", str(out)]) == 0


def test_plant_vetting_passes_match_the_golden_file(fixture_dir, tmp_path, capsys):
    """Every positive-vetting line of the plant, hop trace included, is the
    frozen one; the leak lines are left out, since vetting the full header
    space (ROADMAP item 1) will change them."""
    compile_plant(fixture_dir, tmp_path / "plant")
    capsys.readouterr()
    main(["simulate", "--out", str(tmp_path / "plant")])
    passes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("PASS ")]
    golden = Path(__file__).parent / "golden" / "plant_vetting.txt"
    assert passes == golden.read_text(encoding="utf-8").splitlines()


def test_simulate_enumerates_each_pair_once(fixture_dir, tmp_path, monkeypatch, capsys):
    """Negative vetting reads the routes positive vetting cached: one
    ``simulate`` searches the paths of each (src, dst, established) once,
    and of every ordered zone pair without the established flag."""
    out = tmp_path / "plant"
    compile_plant(fixture_dir, out)
    calls = []
    enumerate_paths = sim.enumerate_paths

    def counted(model, src, dst, established=False, **kwargs):
        calls.append((src, dst, established))
        return enumerate_paths(model, src, dst, established, **kwargs)

    monkeypatch.setattr(sim, "enumerate_paths", counted)
    assert main(["simulate", "--out", str(out)]) == 0
    assert "26/26 passed; negative vetting: 0 leak(s)" in capsys.readouterr().out
    assert len(calls) == len(set(calls))
    zones = sorted(sim.load_compiled(out).model.zones)
    assert {(src, dst) for src, dst, established in calls if not established} == {
        (src, dst) for src in zones for dst in zones if src != dst}
    assert any(established for _, _, established in calls)


def test_vet_negative_looks_each_hop_table_up_once_per_pair(monkeypatch):
    """Routes of one pair that share a hop key look its table up once."""
    net = SimNetwork(grid_model(2, 3), {}, ())
    distinct = occurrences = 0
    for src in sorted(net.model.zones):
        for dst in sorted(net.model.zones):
            if src != dst:
                keys = [key for route in net.routes(src, dst, False)
                        for hop in route for key in hop]
                distinct += len(set(keys))
                occurrences += len(keys)
    assert distinct < occurrences
    looked_up = []
    match_table = SimNetwork.match_table

    def counting(self, key):
        looked_up.append(key)
        return match_table(self, key)

    monkeypatch.setattr(SimNetwork, "match_table", counting)
    assert vet_negative(net) == []
    assert len(looked_up) == distinct


@pytest.mark.parametrize("which", ["plant", "grid2x3"])
def test_network_routes_equal_routes_without_a_shared_index(which, plant_topology):
    """The routes a network reads from its one path index are those
    ``hop_acls`` gives each hop of the paths a throwaway index finds, for
    every ordered zone pair and both states."""
    model = (derive_zone_conduit(build_zone_firewall_model(plant_topology))
             if which == "plant" else grid_model(2, 3))
    net = SimNetwork(model, {}, ())
    fw_zones = firewall_zones(model)
    routed = 0
    for src in sorted(model.zones):
        for dst in sorted(model.zones):
            if src == dst:
                continue
            for established in (False, True):
                paths = enumerate_paths(model, src, dst, established)
                routes = net.routes(src, dst, established)
                assert routes == [tuple(hop_acls(hop_crossings(model, x, y, fw_zones))
                                        for x, y in zip(path, path[1:]))
                                  for path in paths], (src, dst, established)
                routed += bool(routes)
    assert net.path_index() is net.path_index()
    assert routed > len(model.zones)
