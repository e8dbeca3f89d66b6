"""Whole-pipeline differential test: ``compile`` then ``simulate``'s
reader against the policy itself.

Seeded random policies of a few rules, over TCP, UDP and ICMP services
with ports and types below 64 and both ``->`` and ``<->``, are compiled
by ``cli.main`` onto the fixture topology and a 2x3 firewall grid, and
the written directory is loaded with ``sim.load_compiled``.  Then one
NEW packet is injected for every ordered zone pair, pair of CIDRs of
the two zones (their first addresses, then their last), protocol (1,
6, 17 and one that nothing names) and (sport, value) atom that the
flows and the rows of the ACLs on the pair's routes cut.  Each verdict
is compared with ``service_accepts`` over the pair's flows: no implied
packet may be refused, and a delivered packet that no flow implies must
lie inside a UDP flow's stateless mirror, the return rule compile
writes for it.
"""

import random

import pytest

from forestfw import sim
from forestfw.cli import main
from forestfw.header_space import NEW, Packet
from forestfw.topo_model import build_zone_firewall_model, derive_zone_conduit, load_topology
from conftest import FIXTURES
from support import grid_topology, service_accepts

UNNAMED_PROTOCOL = 47  # GRE: no service, rule or scan names it
PORT_LIMIT = 64  # every drawn port and ICMP type lies below it


def random_policy(rng: random.Random, zones: list[str]) -> str:
    """2-5 rules between random zones of ``zones``, whose Firewall-Zones
    are named ``fwz<n>``.  Each rule has its own service, whose
    destination ports (or ICMP type) no other service shares, so the
    policy has no overlaps by construction."""
    count = rng.randint(2, 5)
    ports = rng.sample(range(1, PORT_LIMIT), 2 * count)
    icmp_types = rng.sample(range(PORT_LIMIT), count)
    lines, names = [], []
    for i in range(count):
        protocol = rng.choice(("tcp", "udp", "icmp"))
        if protocol == "icmp":
            attrs = f"icmp.type={icmp_types[i]};"
        else:
            lo, hi = sorted(ports[2 * i: 2 * i + 2])
            # a range within the rule's own two ports, or one of them
            dest = rng.choice((f"{lo}", f"{hi}", f"{lo}-{hi}")) if hi - lo < 8 else f"{lo}"
            attrs = f"{protocol}.dest_port={dest};"
            if rng.random() < 0.5:
                sport = rng.randrange(PORT_LIMIT)
                attrs += f" {protocol}.source_port={sport}-{rng.randrange(sport, PORT_LIMIT)};"
        # a Firewall-Zone is only a destination: new traffic of the
        # firewall itself reaches only the zones it faces
        src = rng.choice([zone for zone in zones if not zone.startswith("fwz")])
        dst = rng.choice([zone for zone in zones if zone != src])
        operator = "->" if dst.startswith("fwz") else rng.choice(("->", "<->"))
        lines.append(f"service s{i} {{ protocol={protocol}; {attrs} }}\n"
                     f"policy_rule r{i} {{ {src} {operator} {dst} : s{i} }}\n")
        names.append(f"r{i}")
    return "".join(lines) + (f"rule_group g {{ {', '.join(names)} }}\n"
                             "reporting_rule v { use_case=verification; }\npolicy p { g; v; }\n")


def _atoms(ranges, top: int) -> list[int]:
    """The lowest point of each atom that ``ranges`` cut 0..``top`` into."""
    cuts = {0}
    for lo, hi in ranges:
        cuts.update((lo, hi + 1))
    return sorted(cut for cut in cuts if cut <= top)


def _header_points(rules, services) -> list[tuple[int, int, int, int]]:
    """(protocol, sport, dport, ICMP type) of each packet injected
    between two addresses: one unnamed-protocol packet, and the lowest
    point of each atom that the rules able to match a protocol and the
    services cut its (sport, value) plane into."""
    points = [(UNNAMED_PROTOCOL, 0, 0, 0)]
    icmp = [rule for rule in rules if rule.protocol in (None, 1)]
    points += [(1, 0, 0, value) for value in _atoms(
        [*(r for rule in icmp for r in rule.dport), *(r for s in services for r in s.icmp_types)],
        255)]
    for protocol in (6, 17):
        rows = [rule for rule in rules if rule.protocol in (None, protocol)]
        sports = _atoms([*(r for rule in rows for r in rule.sport),
                         *(r for s in services for r in s.source_ports)], 65535)
        values = _atoms([*(r for rule in rows for r in rule.dport),
                         *(r for s in services for r in s.dest_ports)], 65535)
        points += [(protocol, sport, value, 0) for sport in sports for value in values]
    return points


def _address_pairs(net: sim.SimNetwork, src_zone: str, dst_zone: str) -> list[tuple[int, int]]:
    """For each CIDR of the one zone and each of the other, their first
    addresses and their last addresses."""
    return [(int(getattr(src, end)), int(getattr(dst, end)))
            for src in net.model.zones[src_zone].cidrs for dst in net.model.zones[dst_zone].cidrs
            for end in ("network_address", "broadcast_address")]


def _in_udp_mirror(net: sim.SimNetwork, packet: Packet, src_zone: str, dst_zone: str) -> bool:
    """Whether a UDP flow from ``dst_zone`` to ``src_zone`` admits the
    packet's reverse, as its stateless return rule does."""
    reverse = Packet(packet.dst_addr, packet.src_addr, 17, packet.dport, packet.sport, 0, NEW)
    return packet.protocol == 17 and any(
        service_accepts(flow.service, reverse) for flow in net.flows
        if (flow.src_zone, flow.dst_zone) == (dst_zone, src_zone))


# seeds per topology: the grid has 19 zones to the plant's 7
SEEDS = {"plant": range(1, 11), "grid2x3": range(1, 3)}


@pytest.mark.parametrize("topology, seed", [
    (topology, seed) for topology, seeds in SEEDS.items() for seed in seeds])
def test_compiled_network_delivers_exactly_what_the_policy_implies(topology, seed, tmp_path,
                                                                    capsys):
    document = (FIXTURES.joinpath("topology.graphml").read_text(encoding="utf-8")
                if topology == "plant" else grid_topology(2, 3))
    zones = sorted(derive_zone_conduit(build_zone_firewall_model(load_topology(document))).zones)
    policy = random_policy(random.Random(f"{topology}-{seed}"), zones)
    (tmp_path / "topology.graphml").write_text(document, encoding="utf-8")
    (tmp_path / "policy.policyml").write_text(policy, encoding="utf-8")
    out = tmp_path / "compiled"
    code = main(["compile", "--policy", str(tmp_path / "policy.policyml"),
                 "--topology", str(tmp_path / "topology.graphml"), "--out", str(out)])
    assert code == 0, (policy, capsys.readouterr())
    net = sim.load_compiled(out)

    refused, excess = [], []
    for src_zone in sorted(net.model.zones):
        for dst_zone in sorted(net.model.zones):
            if src_zone == dst_zone:
                continue
            services = [flow.service for flow in net.flows
                        if (flow.src_zone, flow.dst_zone) == (src_zone, dst_zone)]
            # only the rows of the ACLs on the pair's routes decide its
            # packets, so only they and the flows cut its atoms
            keys = {key for route in net.routes(src_zone, dst_zone)
                    for hop in route for key in hop}
            points = _header_points([rule for key in keys for rule in net.acl_map.get(key, ())],
                                    [flow.service for flow in net.flows])
            net.reset_connections()
            for src, dst in _address_pairs(net, src_zone, dst_zone):
                for protocol, sport, dport, icmp_type in points:
                    packet = Packet(src, dst, protocol, sport, dport, icmp_type, NEW)
                    delivered = sim.inject(net, packet, src_zone).delivered
                    implied = any(service_accepts(s, packet) for s in services)
                    if implied and not delivered:
                        refused.append((src_zone, dst_zone, packet))
                    elif (delivered and not implied
                          and not _in_udp_mirror(net, packet, src_zone, dst_zone)):
                        excess.append((src_zone, dst_zone, packet))
    assert not refused, (policy, refused[:5])
    assert not excess, (policy, excess[:5])
