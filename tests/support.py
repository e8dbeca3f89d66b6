"""Shared test helpers: random inputs, topologies and brute-force oracles.

The oracles stay deliberately independent of the library's own set
algebra: accept sets are materialized as dense numpy grids and compared
pointwise, negative vetting is replayed one packet at a time, path
selection is checked against the exhaustive enumerate-then-filter search,
the lexer against a character-at-a-time tokenizer, the parser against a
printer of canonical source that must parse back, the overlap check
against an all-pairs comparison, the canonical grid algebra against
strip sweeps and merge-pass subtraction, the ACL anomaly check against
pairwise 7-D box subtraction, the renderers against their form before the
per-compile rule text cache, the compile back end against ACL assembly
keyed per bucket entry and device lines formatted from keywords, and the
match table's row-bitset lookups against its former linear walk over
interval sets.
"""

from __future__ import annotations

import importlib.util
import ipaddress
import itertools
import json
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from forestfw import intervals, render
from forestfw.canonical import CanonicalSlice, subtract_each
from forestfw.checker import (
    ACL_REDUNDANCY,
    ACL_SHADOW,
    HIGH_LEVEL_OVERLAP,
    OverlapReport,
    OverlapWitness,
    service_intersection,
)
from forestfw.diagnostics import PolicyError
from forestfw.header_space import MatchTable, bit_indexes
from forestfw.intervals import IntervalSet
from forestfw.netgen import (
    ANY_NET,
    AclRule,
    NetworkPolicy,
    enumerate_paths,
    hop_acls,
    hop_crossings,
)
from forestfw.policy_lang.lexer import KEYWORDS, Source, kind_of, scan, value_of
from forestfw.policy_lang.syntax import (
    PROTOCOL_NAMES,
    PROTOCOL_NUMBERS,
    FlowRule,
    PolicySpec,
    PortRange,
    Service,
    Value,
    VBlock,
    VInt,
    VList,
    VName,
    VRange,
    VString,
)
from forestfw.render import NEUTRAL_HEADER, TERMINAL_DENY_LINE
from forestfw.sim import (
    ESTABLISHED,
    NEW,
    SCAN_SPORT,
    Leak,
    Packet,
    ScanSpec,
    SimNetwork,
    TraceHop,
    _zone_rep_addr,
    default_scan_spec,
)
from forestfw.topo_model import (
    LOCAL_INTERFACE,
    Zone,
    ZoneConduitModel,
    build_zone_firewall_model,
    derive_zone_conduit,
    firewall_zones,
    load_topology,
)

GRID_PORTS = 256  # oracle grids cover ports/types 0..255
PORTLESS = 47  # GRE: a protocol without ports, all or nothing on the grids


def random_range(rng: random.Random, upper: int) -> PortRange:
    lo = rng.randrange(upper)
    hi = rng.randrange(lo, upper)
    return PortRange(lo, hi)


def random_service(rng: random.Random, name: str, protocol: int | None = None) -> Service:
    if protocol is None:
        protocol = rng.choice((1, 6, 17))
    if protocol == 1:
        types = tuple(random_range(rng, GRID_PORTS) for _ in range(rng.randint(1, 2)))
        return Service(name, 1, icmp_types=types)
    sports = tuple(random_range(rng, GRID_PORTS) for _ in range(rng.randint(1, 2)))
    dports = tuple(random_range(rng, GRID_PORTS) for _ in range(rng.randint(1, 2)))
    return Service(name, protocol, source_ports=sports, dest_ports=dports)


def random_service_set(rng: random.Random, max_services: int = 5) -> list[Service]:
    return [random_service(rng, f"svc{i}") for i in range(rng.randint(1, max_services))]


def random_mixed_service_set(rng: random.Random, max_services: int = 5) -> list[Service]:
    """Services of ICMP (any type one time in four), TCP, UDP and ``PORTLESS``."""
    services = []
    for i in range(rng.randint(1, max_services)):
        protocol = rng.choice((1, 6, 17, PORTLESS))
        if protocol == PORTLESS or (protocol == 1 and rng.random() < 0.25):
            services.append(Service(f"svc{i}", protocol))
        else:
            services.append(random_service(rng, f"svc{i}", protocol))
    return services


def split_cover(rng: random.Random, services: list[Service]) -> list[Service]:
    """An equivalent service set with different rectangle structure."""
    out = []
    for i, svc in enumerate(services):
        if svc.protocol in (6, 17) and rng.random() < 0.8:
            lo, hi = svc.dest_ports[0]
            if hi > lo:
                mid = rng.randrange(lo, hi)
                out.append(Service(f"{svc.name}a{i}", svc.protocol,
                                   source_ports=svc.source_ports,
                                   dest_ports=(PortRange(lo, mid),) + svc.dest_ports[1:]))
                out.append(Service(f"{svc.name}b{i}", svc.protocol,
                                   source_ports=svc.source_ports,
                                   dest_ports=(PortRange(mid + 1, hi),)))
                continue
        out.append(svc)
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# dense accept-set oracle

def _empty_masks() -> dict:
    return {
        6: np.zeros((GRID_PORTS, GRID_PORTS), dtype=bool),
        17: np.zeros((GRID_PORTS, GRID_PORTS), dtype=bool),
        1: np.zeros(GRID_PORTS, dtype=bool),
        PORTLESS: np.zeros(1, dtype=bool),
    }


def accept_masks(services) -> dict:
    """Dense accept grids: (sport, dport) planes per TCP/UDP, a type row
    for ICMP and one cell for ``PORTLESS``."""
    masks = _empty_masks()
    for svc in services:
        if svc.protocol == PORTLESS:
            masks[PORTLESS][0] = True
        elif svc.protocol == 1:
            types = svc.icmp_types or (PortRange(0, 255),)
            for lo, hi in types:
                masks[1][lo:min(hi, GRID_PORTS - 1) + 1] = True
        elif svc.protocol in (6, 17):
            for slo, shi in svc.source_ports or (PortRange(0, 65535),):
                for dlo, dhi in svc.dest_ports or (PortRange(0, 65535),):
                    masks[svc.protocol][slo:min(shi, GRID_PORTS - 1) + 1,
                                        dlo:min(dhi, GRID_PORTS - 1) + 1] = True
    return masks


def masks_equal(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[k], b[k]) for k in a)


def masks_subset(a: dict, b: dict) -> bool:
    return all(not np.any(a[k] & ~b[k]) for k in a)


# ---------------------------------------------------------------------------
# the canonical form of one service set, and equivalence and inclusion,
# from the best-practice subtraction

@dataclass(frozen=True)
class CanonicalPolicy:
    slices: tuple[CanonicalSlice, ...]

    def is_empty(self) -> bool:
        return not self.slices


def canonical_subtract(p: Iterable[Service], q: Iterable[Service]) -> list[CanonicalSlice]:
    """The canonical slices of what ``p`` accepts and ``q`` does not."""
    return subtract_each([p], q)[0]


def canonicalize(services: Iterable[Service]) -> CanonicalPolicy:
    """The unique canonical form of a whitelist service set: equal input
    sets, in any order, give structurally identical output."""
    return CanonicalPolicy(tuple(canonical_subtract(services, ())))


def equivalent(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff both service sets accept exactly the same packets."""
    return canonicalize(p) == canonicalize(q)


def includes(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff every packet accepted by ``p`` is accepted by ``q``."""
    return not canonical_subtract(p, q)


def canonical_masks(policy: CanonicalPolicy) -> dict:
    """Accept grids rebuilt from canonical strips (for cover-exactness)."""
    masks = _empty_masks()
    for sl in policy.slices:
        if sl.protocol == PORTLESS:
            assert sl.strips == (((0, 65535), ((0, 65535),)),)  # the full port plane
            masks[PORTLESS][0] = True
            continue
        if sl.protocol == 1:
            for (lo, hi), sports in sl.strips:
                assert sports == ((0, 65535),)  # ICMP types carry every source port
                masks[1][lo:min(hi, GRID_PORTS - 1) + 1] = True
            continue
        for (dlo, dhi), sports in sl.strips:
            for slo, shi in sports:
                masks[sl.protocol][slo:min(shi, GRID_PORTS - 1) + 1,
                                   dlo:min(dhi, GRID_PORTS - 1) + 1] = True
    return masks


# ---------------------------------------------------------------------------
# strip oracles of the canonical grid algebra

def partition_strips(rects) -> tuple:
    """Cut the union of (value-set, sport-set) rectangles into maximal
    value strips: the sweep the canonical form used before its grid.

    A sweep over the sorted value boundaries adds each rectangle where one
    of its value intervals starts and drops it after the interval ends, so
    each elementary strip carries the union of the sport intervals of the
    rectangles active on it; contiguous strips with equal sport sets merge.
    """
    events: dict[int, list[tuple[int, int]]] = {}  # boundary -> (rectangle, +1 | -1)
    for i, (values, _) in enumerate(rects):
        for lo, hi in values:
            events.setdefault(lo, []).append((i, 1))
            events.setdefault(hi + 1, []).append((i, -1))
    coords = sorted(events)

    active: dict[int, int] = {}  # rectangle -> its value intervals open here
    strips: list = []
    for start, end in zip(coords, coords[1:]):
        for i, delta in events[start]:
            count = active.get(i, 0) + delta
            if count:
                active[i] = count
            else:
                del active[i]
        _add_strip(strips, start, end - 1,
                   intervals.normalize(iv for i in active for iv in rects[i][1]))
    return tuple(strips)


def _add_strip(strips: list, lo: int, hi: int, sports: IntervalSet) -> None:
    """Append a strip in value order, merged into a touching predecessor
    with equal sport sets; a strip without sports is dropped."""
    if not sports:
        return
    if strips and strips[-1][0][1] + 1 == lo and strips[-1][1] == sports:
        strips[-1] = ((strips[-1][0][0], hi), sports)
    else:
        strips.append(((lo, hi), sports))


def subtract_strips(p: tuple, q: tuple) -> tuple:
    """The part of strips ``p`` that strips ``q`` does not cover: one merge
    pass over both lists, each sorted and disjoint by value, as the
    canonical difference was computed before its grid."""
    out: list = []
    j = 0
    for (lo, hi), sports in p:
        position = lo
        while position <= hi:
            while j < len(q) and q[j][0][1] < position:
                j += 1
            if j < len(q) and q[j][0][0] <= position:
                end = min(hi, q[j][0][1])
                _add_strip(out, position, end, intervals.subtract(sports, q[j][1]))
            else:
                end = hi if j == len(q) else min(hi, q[j][0][0] - 1)
                _add_strip(out, position, end, sports)
            position = end + 1
    return tuple(out)


def partition_strips_by_scan(rects) -> tuple:
    """The union of rectangles as maximal strips, with every rectangle
    tested against every elementary dport strip."""
    bounds: set[int] = set()
    for dports, _ in rects:
        for lo, hi in dports:
            bounds.add(lo)
            bounds.add(hi + 1)
    coords = sorted(bounds)

    strips = []
    for start, end in zip(coords, coords[1:]):
        strip = (start, end - 1)
        covered = ()
        for dports, sports in rects:
            if intervals.contains(dports, start):
                covered = intervals.union(covered, sports)
        if not covered:
            continue
        if strips and strips[-1][0][1] + 1 == start and strips[-1][1] == covered:
            strips[-1] = ((strips[-1][0][0], strip[1]), covered)
        else:
            strips.append((strip, covered))
    return tuple(strips)


# ---------------------------------------------------------------------------
# exhaustive evaluation grids for match-rule strategies

def rule_grid_points(limit: int = 16) -> list[Packet]:
    """An exhaustive grid: TCP/UDP port planes plus an ICMP type row."""
    points = []
    for protocol in (6, 17):
        for sport in range(limit):
            for dport in range(limit):
                points.append(Packet(protocol=protocol, sport=sport, dport=dport))
    for icmp_type in range(limit):
        points.append(Packet(protocol=1, sport=0, dport=0, icmp_type=icmp_type))
    return points


def random_accept_rules(rng: random.Random, limit: int = 16,
                        max_rules: int = 4) -> list[AclRule]:
    """Permit rules between ``any`` addresses over the ``rule_grid_points``
    ranges: ICMP types (carried in ``dport``), or TCP/UDP port ranges."""
    rules = []
    for i in range(rng.randint(1, max_rules)):
        protocol = rng.choice((1, 6, 17))
        fields = {}
        if protocol == 1:
            lo = rng.randrange(limit)
            fields["dport"] = (PortRange(lo, rng.randrange(lo, limit)),)
        else:
            slo = rng.randrange(limit)
            fields["sport"] = (PortRange(slo, rng.randrange(slo, limit)),)
            dlo = rng.randrange(limit)
            fields["dport"] = (PortRange(dlo, rng.randrange(dlo, limit)),)
        rules.append(AclRule("permit", protocol, (ANY_NET,), (ANY_NET,),
                             comment=f"r{i}", **fields))
    return rules


def whitelist_reading(rules):
    """The order-free whitelist reading of permit rules: a point is
    permitted iff some rule matches it."""
    assert all(rule.action == "permit" for rule in rules)
    return lambda point: ("permit" if any(packet_matches(r, point) for r in rules)
                          else "deny")


# ---------------------------------------------------------------------------
# the match table's former linear walk, the oracle of its row-bitset index

def matching(table: MatchTable, packet: Packet, sweep: bool = False) -> list[int]:
    """The indexes of the rows of ``table`` that match ``packet``, in ACL
    order, from its row lookup.  With ``sweep`` the value (dport, or ICMP
    type) is left out."""
    value = None if sweep else packet.icmp_type if packet.protocol == 1 else packet.dport
    return list(bit_indexes(table.lookup(packet.protocol, packet.state, packet.src_addr,
                                         packet.dst_addr, packet.sport, value)))


def matching_by_walk(table: MatchTable, packet: Packet, sweep: bool = False) -> list[int]:
    """The indexes of the rows of ``table`` that match ``packet``, in ACL
    order: a walk over the rows admitting its protocol and state,
    comparing addresses and ports by interval lookups.  With ``sweep`` the
    dport (ICMP type) is not compared."""
    protocol = packet.protocol
    ported = protocol in (6, 17)
    value = None
    if not sweep and (ported or protocol == 1):
        value = packet.icmp_type if protocol == 1 else packet.dport
    contains = intervals.contains
    return [i for i, (rule, match) in enumerate(zip(table.rules, table.rows))
            if (rule.protocol is None or rule.protocol == protocol)
            and (not rule.state or packet.state in rule.state)
            and contains(match.src, packet.src_addr)
            and contains(match.dst, packet.dst_addr)
            and (not ported or match.sport is None or contains(match.sport, packet.sport))
            and (value is None or match.values is None or contains(match.values, value))]


def permitted_by_walk(table: MatchTable, point: Packet, universe: IntervalSet) -> IntervalSet:
    """The swept values (dport, or ICMP type) of ``universe`` the ACL
    permits, every other field taken from ``point``: each matching row,
    in first-match order, decides the values no earlier row decided."""
    permitted: IntervalSet = ()
    undecided = universe
    swept = point.protocol in (1, 6, 17)
    for i in matching_by_walk(table, point, sweep=True):
        values = table.rows[i].values
        if swept and values is not None:
            decided = intervals.intersect(undecided, values)
        else:
            decided = undecided
        if not decided:
            continue
        if table.rules[i].action == "permit":
            permitted = intervals.union(permitted, decided)
        undecided = intervals.subtract(undecided, decided)
        if not undecided:
            break
    return permitted


# ---------------------------------------------------------------------------
# per-packet negative-vetting oracle

def from_network_policy(policy: NetworkPolicy) -> SimNetwork:
    """The simulated network of a compile result held in memory."""
    acl_map = {}
    for a in policy.assignments:
        acl = policy.acl_by_name(a.firewall, a.acl)
        acl_map[(a.firewall, a.interface, a.direction)] = acl.rules
    return SimNetwork(policy.model, acl_map, policy.flows)


def _in_ranges(value: int, ranges) -> bool:
    return not ranges or any(lo <= value <= hi for lo, hi in ranges)


def _addr_in(addr: int, nets) -> bool:
    return any(int(n.network_address) <= addr <= int(n.broadcast_address) for n in nets)


def packet_matches(rule, packet: Packet) -> bool:
    """One ACL rule against one packet (the ICMP type rides in ``rule.dport``)."""
    if rule.protocol is not None and rule.protocol != packet.protocol:
        return False
    if rule.state and packet.state not in rule.state:
        return False
    if not _addr_in(packet.src_addr, rule.src) or not _addr_in(packet.dst_addr, rule.dst):
        return False
    if packet.protocol == 1:
        return _in_ranges(packet.icmp_type, rule.dport)
    if packet.protocol in (6, 17):
        return _in_ranges(packet.sport, rule.sport) and _in_ranges(packet.dport, rule.dport)
    return True


def rule_matches_packet(rule: AclRule, packet: Packet) -> bool:
    """One rule against one packet, through the ACL engine."""
    return matching(MatchTable((rule,)), packet) == [0]


def eval_acl(rules: tuple[AclRule, ...], packet: Packet) -> tuple[str, str]:
    """The ACL engine's first-match decision plus a description of the deciding rule."""
    return MatchTable(rules).decide(packet)


def first_match_by_scan(rules, packet: Packet) -> tuple[str, str]:
    """``eval_acl``'s answer, one ``packet_matches`` call per rule."""
    for i, rule in enumerate(rules):
        if packet_matches(rule, packet):
            return rule.action, f"[{i}] {rule.action} {rule.comment or rule.origin_service}"
    return "deny", "implicit deny (no match)"


def inject_by_scan(net: SimNetwork, packet: Packet, ingress_zone: str) -> tuple:
    """``(delivered, trace)`` of ``sim.inject`` for a packet between two
    zones, assuming an ESTABLISHED packet's connection is open: the
    first path on which every hop has a firewall whose first match, in
    ``first_match_by_scan``, permits."""
    dst_zone = zone_of_address(net.model, packet.dst_addr)
    fw_zones = firewall_zones(net.model)
    trace: tuple = ()
    for path in enumerate_paths(net.model, ingress_zone, dst_zone,
                                packet.state == ESTABLISHED):
        trace = ()
        for x, y in zip(path, path[1:]):
            for key in hop_acls(hop_crossings(net.model, x, y, fw_zones)):
                action, text = first_match_by_scan(net.acl_map.get(key, ()), packet)
                hop = TraceHop(key[0], key[1], action, text)
                if action == "permit":
                    break
            trace += (hop,)
            if hop.verdict != "permit":
                break
        else:
            return True, trace
    return False, trace


def zone_of_address(model: ZoneConduitModel, addr: int | str) -> str | None:
    """The first zone in name order whose CIDRs hold ``addr``, by a scan
    of every CIDR: the oracle of ``SimNetwork.zone_of_address``."""
    ip = ipaddress.IPv4Address(addr)
    for zone in sorted(model.zones.values(), key=lambda z: z.name):
        if any(ip in cidr for cidr in zone.cidrs):
            return zone.name
    return None


def service_accepts(svc: Service, packet: Packet) -> bool:
    """Whether ``svc`` admits ``packet``, read from its port fields as
    written, not from ``service_plane``: an unwritten field admits every
    value, and a reversed range none."""
    if svc.protocol != packet.protocol:
        return False
    if svc.protocol == 1:
        return _in_ranges(packet.icmp_type, svc.icmp_types)
    if svc.protocol in (6, 17):
        return (_in_ranges(packet.sport, svc.source_ports)
                and _in_ranges(packet.dport, svc.dest_ports))
    return True


def pair_plan(net: SimNetwork, src_zone: str, dst_zone: str):
    """Representative addresses, per-path hop ACLs (address-filtered) and
    the flow services of one ordered zone pair."""
    src_addr = _zone_rep_addr(net.model.zones[src_zone])
    dst_addr = _zone_rep_addr(net.model.zones[dst_zone])
    fw_zones = firewall_zones(net.model)
    paths = []
    for path in enumerate_paths(net.model, src_zone, dst_zone):
        hops = []
        for x, y in zip(path, path[1:]):
            hops.append([[r for r in net.acl_map.get(key, ())
                          if _addr_in(src_addr, r.src) and _addr_in(dst_addr, r.dst)]
                         for key in hop_acls(hop_crossings(net.model, x, y, fw_zones))])
        paths.append(hops)
    services = [f.service for f in net.flows
                if f.src_zone == src_zone and f.dst_zone == dst_zone]
    return src_addr, dst_addr, paths, services


def plan_delivers(paths, packet: Packet) -> bool:
    """Some path on which every hop has a firewall whose first match permits."""
    def acl_permits(rules) -> bool:
        return next((r.action for r in rules if packet_matches(r, packet)),
                    "deny") == "permit"

    return any(all(any(acl_permits(rules) for rules in hop) for hop in hops)
               for hops in paths)


def scan_packet(src_addr: int, dst_addr: int, protocol: int, value: int) -> Packet:
    return Packet(src_addr, dst_addr, protocol, SCAN_SPORT,
                  0 if protocol == 1 else value, value if protocol == 1 else 0, NEW)


def brute_force_leaks(net: SimNetwork, scan: ScanSpec | None = None) -> list[Leak]:
    """Negative vetting one scan packet at a time."""
    scan = scan or default_scan_spec(net)
    values = list(scan.port_values())
    leaks = []
    zones = sorted(net.model.zones)
    for src_zone in zones:
        for dst_zone in zones:
            if src_zone == dst_zone:
                continue
            src_addr, dst_addr, paths, services = pair_plan(net, src_zone, dst_zone)
            if not paths:
                continue
            for protocol in scan.protocols:
                for value in values:
                    if protocol == 1 and value > 255:
                        continue
                    packet = scan_packet(src_addr, dst_addr, protocol, value)
                    if (plan_delivers(paths, packet)
                            and not any(service_accepts(s, packet) for s in services)):
                        leaks.append(Leak(src_zone, dst_zone, protocol, value))
    return leaks


# ---------------------------------------------------------------------------
# topologies

# two parallel firewalls between z1 and z2, and a ring z1-z2-z3: pairs
# have several paths, and one conduit has two firewalls
RING = """<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="kind" for="node" attr.name="kind" attr.type="string"/>
  <key id="zone" for="node" attr.name="zone" attr.type="string"/>
  <key id="cidr" for="node" attr.name="cidr" attr.type="string"/>
  <graph edgedefault="undirected">
    <node id="s1"><data key="kind">subnet</data><data key="zone">z1</data>
      <data key="cidr">10.1.0.0/24,10.1.8.0/30</data></node>
    <node id="s2"><data key="kind">subnet</data><data key="zone">z2</data>
      <data key="cidr">10.2.0.0/24</data></node>
    <node id="s3"><data key="kind">subnet</data><data key="zone">z3</data>
      <data key="cidr">10.3.0.0/24</data></node>
    <node id="fa"><data key="kind">firewall</data><data key="cidr">10.255.0.1/32</data></node>
    <node id="fb"><data key="kind">firewall</data><data key="cidr">10.255.0.2/32</data></node>
    <node id="fc"><data key="kind">firewall</data><data key="cidr">10.255.0.3/32</data></node>
    <node id="fd"><data key="kind">firewall</data><data key="cidr">10.255.0.4/32</data></node>
    <edge source="s1" target="fa"/><edge source="fa" target="s2"/>
    <edge source="s1" target="fb"/><edge source="fb" target="s2"/>
    <edge source="s2" target="fc"/><edge source="fc" target="s3"/>
    <edge source="s1" target="fd"/><edge source="fd" target="s3"/>
  </graph>
</graphml>
"""


def ring_model() -> ZoneConduitModel:
    return derive_zone_conduit(build_zone_firewall_model(load_topology(RING)))


def grid_topology(rows: int, cols: int) -> str:
    """A rows x cols grid of firewalls, as the benchmark generator builds it.

    Firewall (r, c) guards the labelled zone ``z_r<r>c<c>`` on eth0 and
    shares an unlabelled transit subnet (an Abstract-Zone) with each
    horizontal and vertical neighbour.
    """
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    nodes, edges = [], []
    next_iface = {cell: 1 for cell in cells}

    def node(name: str, kind: str, cidr: str, zone: str = "") -> None:
        label = f'<data key="zone">{zone}</data>' if zone else ""
        nodes.append(f'<node id="{name}"><data key="kind">{kind}</data>{label}'
                     f'<data key="cidr">{cidr}</data></node>')

    def edge(fw: str, subnet: str, iface: str) -> None:
        edges.append(f'<edge source="{fw}" target="{subnet}">'
                     f'<data key="if_a">{iface}</data></edge>')

    for r, c in cells:
        node(f"fw_r{r}c{c}", "firewall", f"10.255.{r}.{c}/32")
        node(f"net_r{r}c{c}", "subnet", f"10.{r}.{c}.0/24", zone=f"z_r{r}c{c}")
        edge(f"fw_r{r}c{c}", f"net_r{r}c{c}", "eth0")
    transit = 0
    for r, c in cells:
        for nr, nc in ((r, c + 1), (r + 1, c)):
            if nr >= rows or nc >= cols:
                continue
            name = f"transit_r{r}c{c}_r{nr}c{nc}"
            node(name, "subnet", f"172.16.{transit >> 6}.{(transit & 63) * 4}/30")
            transit += 1
            for cell in ((r, c), (nr, nc)):
                edge(f"fw_r{cell[0]}c{cell[1]}", name, f"eth{next_iface[cell]}")
                next_iface[cell] += 1
    return ("<graphml xmlns=\"http://graphml.graphdrawing.org/xmlns\">"
            '<key id="kind" for="node" attr.name="kind" attr.type="string"/>'
            '<key id="zone" for="node" attr.name="zone" attr.type="string"/>'
            '<key id="cidr" for="node" attr.name="cidr" attr.type="string"/>'
            '<key id="if_a" for="edge" attr.name="if_a" attr.type="string"/>'
            '<graph edgedefault="undirected">' + "".join(nodes) + "".join(edges)
            + "</graph></graphml>")


def grid_model(rows: int, cols: int) -> ZoneConduitModel:
    return derive_zone_conduit(build_zone_firewall_model(load_topology(grid_topology(rows, cols))))


# ---------------------------------------------------------------------------
# exhaustive path-selection oracle

def enumerate_paths_exhaustive(model: ZoneConduitModel, src: str, dst: str,
                               established: bool = False) -> list[list[str]]:
    """Every simple zone path by DFS, sorted, then filtered by realizability.

    The same exclusions as ``netgen.enumerate_paths``, decided the slow
    way: a path survives if some choice of one realizing firewall per hop
    crosses no firewall interface twice.  Exponential in the number of
    transit zones.
    """
    if not established and model.zones[src].kind == "firewall":
        firewall = next(iter(model.zones[src].members))
        if dst not in model.firewall_interfaces.get(firewall, {}):
            return []

    # each zone's conduit peers in name order, read from the conduits alone
    neighbours: dict[str, list[str]] = {zone: [] for zone in model.zones}
    for a, b in model.conduits:
        neighbours[a].append(b)
        neighbours[b].append(a)
    paths: list[list[str]] = []

    def dfs(current: str, path: list[str]) -> None:
        if current == dst:
            paths.append(list(path))
            return
        for nxt in sorted(neighbours[current]):
            if nxt in path:
                continue
            if nxt != dst and model.zones[nxt].kind == "firewall":
                continue
            path.append(nxt)
            dfs(nxt, path)
            path.pop()

    dfs(src, [src])
    return [p for p in sorted(paths) if realizable_without_loops(model, p)]


def _crossings(model: ZoneConduitModel, hop: tuple[str, str], firewall: str) -> tuple:
    x, y = hop
    fwz = firewall_zones(model)[firewall]
    entry = LOCAL_INTERFACE if x == fwz else model.firewall_interfaces[firewall][x]
    exit_ = LOCAL_INTERFACE if y == fwz else model.firewall_interfaces[firewall][y]
    return ((firewall, entry), (firewall, exit_))


def realizable_without_loops(model: ZoneConduitModel, path: list[str]) -> bool:
    """Some choice of firewall per hop crosses no interface twice."""
    hops = list(zip(path, path[1:]))
    conduits = []
    for a, b in hops:
        conduit = model.conduit_between(a, b)
        if conduit is None or not conduit.firewalls:
            return False
        conduits.append(conduit)
    for combo in itertools.product(*(sorted(c.firewalls) for c in conduits)):
        seen: set = set()
        ok = True
        for hop, firewall in zip(hops, combo):
            for crossing in _crossings(model, hop, firewall):
                if crossing in seen:
                    ok = False
                    break
                seen.add(crossing)
            if not ok:
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# the lexer's tokens with their kinds, values and offsets

class Token(NamedTuple):
    kind: str  # "kw", "ident", "int", "string", "punct", "eof"
    value: str  # a string's text without its quotes
    offset: int  # characters of source before the token


def tokenize(text: str, file: str = "<policy>") -> list[Token]:
    """The tokens ``scan`` reads from policy source, each with its offset."""
    source = Source(text, file)
    return [Token(kind_of(tok), value_of(tok), source.offset(k))
            for k, tok in enumerate(scan(source))]


# ---------------------------------------------------------------------------
# where a spec's names are declared, and the parser's round-trip oracle: a
# printer of canonical policy source that parses back to an equal spec

# the spec table of each declaration kind; the global policy has none
_DECL_TABLES = (("service", "services"), ("service_group", "service_groups"),
                ("port_group", "port_groups"), ("zone_group", "zone_groups"),
                ("policy_rule", "rules"), ("rule_group", "rule_groups"),
                ("reporting_rule", "reporting_rules"))


def declaration_order(spec: PolicySpec) -> list[tuple[str, str]]:
    """``(kind, name)`` of the main file's declarations in source order,
    read from ``spec.name_tokens``."""
    main = sorted((tok, name) for name, (source, tok) in spec.name_tokens.items()
                  if source.text is spec.source)
    return [(next((kind for kind, table in _DECL_TABLES if name in getattr(spec, table)),
                  "policy"), name) for _, name in main]


def declaration_positions(spec: PolicySpec) -> dict[str, tuple[int, int]]:
    """The line and column of every declared name, in its declaring file."""
    return {name: source.line_col(tok) for name, (source, tok) in spec.name_tokens.items()}


def _value_source(value: Value) -> str:
    if isinstance(value, VInt):
        return str(value.n)
    if isinstance(value, VRange):
        return f"{value.lo}-{value.hi}"
    if isinstance(value, VName):
        return value.name
    if isinstance(value, VString):
        return f'"{value.text}"'
    if isinstance(value, VList):
        return ",".join(_value_source(v) for v in value.items)
    if isinstance(value, VBlock):
        inner = "; ".join(
            f"{k}={_value_source(v)}" if k else _value_source(v) for k, v in value.items
        )
        return "{" + inner + "}"
    raise TypeError(f"unprintable value {value!r}")


def pretty_print(spec: PolicySpec) -> str:
    """Emit canonical policy source that parses back to an equal spec."""
    lines: list[str] = []
    for dotted in spec.imports:
        lines.append(f"import {dotted};")
    if spec.imports:
        lines.append("")
    if spec.declared_model is not None:
        lines.append(f'load_zone_conduit_model "{spec.declared_model}"')
        lines.append("")
    for kind, name in declaration_order(spec):
        if kind == "service":
            attrs = " ".join(f"{k}={_value_source(v)};" for k, v in spec.raw_attrs[name])
            lines.append(f"service {name} {{ {attrs} }}")
        elif kind == "service_group":
            lines.append(f"service_group {name} {{ {spec.service_groups[name].expr.to_source()} }}")
        elif kind == "port_group":
            ranges = ", ".join(str(r) for r in spec.port_groups[name].ranges)
            lines.append(f"port_group {name} {{ {ranges} }}")
        elif kind == "zone_group":
            lines.append(f"zone_group {name} {{ {spec.zone_groups[name].expr.to_source()} }}")
        elif kind == "policy_rule":
            rule = spec.rules[name]
            lines.append(
                f"policy_rule {name} {{ {rule.left} {rule.operator} {rule.right} : "
                f"{rule.service_expr.to_source()} }}"
            )
        elif kind == "rule_group":
            lines.append(f"rule_group {name} {{ {', '.join(spec.rule_groups[name])} }}")
        elif kind == "reporting_rule":
            attrs = " ".join(f"{k}={_value_source(v)};" for k, v in spec.raw_attrs[name])
            lines.append(f"reporting_rule {name} {{ {attrs} }}")
        elif kind == "policy":
            gp = spec.global_policy
            assert gp is not None and gp.name == name
            lines.append(f"policy {name} {{ {gp.rule_group}; {gp.reporting_rule}; }}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# character-at-a-time tokenizer oracle

_PUNCT = ("<->", "->", "{", "}", ";", ",", ":", "=", ".", "^", "\\", "-")


class CharToken(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


def tokenize_by_char(text: str, file: str = "<policy>"
                     ) -> tuple[list[CharToken], PolicyError | None]:
    """The tokens before the first lexical error, and that error (or None).

    Moves one character at a time, tracking line and column as it goes.
    A number is a run of ``str.isdigit`` characters, so non-ASCII digits
    come out as ``int`` tokens here; ``tokenize`` rejects them.
    """
    tokens: list[CharToken] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    try:
        while i < n:
            ch = text[i]
            if ch in " \t\r\n":
                advance(1)
                continue
            if text.startswith("//", i):
                while i < n and text[i] != "\n":
                    advance(1)
                continue
            if ch == '"' or text.startswith("``", i):
                start_line, start_col = line, col
                closer = '"' if ch == '"' else "''"
                advance(1 if ch == '"' else 2)
                buf = []
                while i < n and not text.startswith(closer, i):
                    if text[i] == "\n":
                        raise PolicyError("unterminated string", file, start_line, start_col)
                    buf.append(text[i])
                    advance(1)
                if i >= n:
                    raise PolicyError("unterminated string", file, start_line, start_col)
                advance(len(closer))
                tokens.append(CharToken("string", "".join(buf), start_line, start_col))
                continue
            if ch.isdigit():
                start_line, start_col = line, col
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(CharToken("int", text[i:j], start_line, start_col))
                advance(j - i)
                continue
            if ch.isalpha() or ch == "_":
                start_line, start_col = line, col
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                tokens.append(CharToken("kw" if word in KEYWORDS else "ident", word,
                                        start_line, start_col))
                advance(j - i)
                continue
            for punct in _PUNCT:
                if text.startswith(punct, i):
                    tokens.append(CharToken("punct", punct, line, col))
                    advance(len(punct))
                    break
            else:
                raise PolicyError(f"unexpected character {ch!r}", file, line, col)
    except PolicyError as err:
        return tokens, err
    tokens.append(CharToken("eof", "", line, col))
    return tokens, None


# ---------------------------------------------------------------------------
# all-pairs overlap oracle

def find_rule_overlaps_all_pairs(flows) -> list[OverlapReport]:
    """Rule overlaps by comparing every pair of flows on each conduit."""
    by_conduit: dict[tuple[str, str], list[FlowRule]] = {}
    for flow in flows:
        by_conduit.setdefault((flow.src_zone, flow.dst_zone), []).append(flow)

    found: dict[tuple[str, str], dict[tuple, OverlapWitness]] = {}
    for (src, dst), members in sorted(by_conduit.items()):
        for i, fa in enumerate(members):
            for fb in members[i + 1:]:
                if fa.rule_name == fb.rule_name:
                    continue
                shared = service_intersection(fa.service, fb.service)
                if shared is None:
                    continue
                pair = tuple(sorted((fa.rule_name, fb.rule_name)))
                witness = OverlapWitness(src, dst, shared)
                found.setdefault(pair, {})[(src, dst) + shared.value_key()] = witness

    reports = []
    for (rule_a, rule_b) in sorted(found):
        witnesses = tuple(sorted(found[(rule_a, rule_b)].values(),
                                 key=lambda w: (w.src_zone, w.dst_zone, w.service.name)))
        reports.append(OverlapReport(HIGH_LEVEL_OVERLAP, rule_a, rule_b, witnesses))
    return reports


# ---------------------------------------------------------------------------
# pairwise box oracle for the ACL anomaly check: each rule's region is
# split into simple 7-D boxes and box-subtracted against every earlier
# rule's region, as the check did before the strip walk

_FULL_PORT = ((0, 65535),)
_FULL_BYTE = ((0, 255),)  # protocol numbers and ICMP types


def _address_set(nets) -> tuple:
    return intervals.normalize(
        (int(n.network_address), int(n.broadcast_address)) for n in nets)


def rule_box(rule) -> tuple:
    """A compiled rule's region as seven range sets: protocol, src, dst,
    sport, dport, ICMP type, state (0 NEW, 1 ESTABLISHED).  An empty field
    is full; an ICMP rule's ``dport`` holds its types and its dport stays
    full; a rule of another protocol has every ICMP type."""
    values = intervals.normalize(rule.dport)
    dport, icmp = values or _FULL_PORT, _FULL_BYTE
    if rule.protocol == 1:
        dport, icmp = _FULL_PORT, values or _FULL_BYTE
    states = {NEW: 0, ESTABLISHED: 1}
    return (
        _FULL_BYTE if rule.protocol is None else ((rule.protocol, rule.protocol),),
        _address_set(rule.src),
        _address_set(rule.dst),
        intervals.normalize(rule.sport) or _FULL_PORT,
        dport,
        icmp,
        intervals.normalize((states[s], states[s]) for s in rule.state) or ((0, 1),),
    )


def _boxes(region) -> list[tuple]:
    boxes: list[tuple] = [()]
    for dim in region:
        boxes = [box + (iv,) for box in boxes for iv in dim]
    return boxes


def _subtract_box(box: tuple, region: tuple) -> list[tuple]:
    """Disjoint pieces of a simple box not covered by a region's range sets."""
    covered_part = []
    for iv, dim in zip(box, region):
        shared = intervals.intersect((iv,), dim)
        if not shared:
            return [box]
        covered_part.append(shared)

    pieces: list[tuple] = []
    prefixes: list[tuple] = [()]  # boxes over dims [0..d) restricted to the covered part
    for d, (iv, dim) in enumerate(zip(box, region)):
        outside = intervals.subtract((iv,), dim)
        for prefix in prefixes:
            for out_iv in outside:
                pieces.append(prefix + (out_iv,) + box[d + 1:])
        prefixes = [p + (c,) for p in prefixes for c in covered_part[d]]
    return pieces


def _covered_by_boxes(region, coverers) -> bool:
    """Is ``region`` fully covered by the union of the ``coverers``?"""
    boxes = _boxes(region)
    for coverer in coverers:
        boxes = [piece for box in boxes for piece in _subtract_box(box, coverer)]
        if not boxes:
            return True
    return not boxes


def find_acl_anomalies_pairwise(acl) -> list[OverlapReport]:
    """Redundant and shadowed rules, each rule's region tested for
    coverage by the union of the earlier permits, then of all earlier rules."""
    reports: list[OverlapReport] = []
    rules = acl.rules
    regions = [rule_box(rule) for rule in rules]
    for i, rule in enumerate(rules):
        if i == len(rules) - 1 and rule.action == "deny":
            break
        earlier_permits = [regions[j] for j in range(i) if rules[j].action == "permit"]
        provenance = f"{acl.name}[{i}]"
        if (rule.action == "permit" and earlier_permits
                and _covered_by_boxes(regions[i], earlier_permits)):
            reports.append(OverlapReport(
                ACL_REDUNDANCY, provenance, f"{acl.name}[0..{i - 1}] permits",
                detail=f" ({rule.comment})" if rule.comment else ""))
            continue
        if i > 0 and _covered_by_boxes(regions[i], regions[:i]):
            reports.append(OverlapReport(
                ACL_SHADOW, provenance, f"{acl.name}[0..{i - 1}]",
                detail=f" ({rule.comment})" if rule.comment else ""))
    return reports


# ---------------------------------------------------------------------------
# renderer oracle: the renderers as they were before the per-compile rule
# text cache, changed only where the ASA dialect was wrong.  The ASA rule
# writes the source port operator after the source address and the
# destination operator after the destination address, logs every deny
# when the policy logs denies, and writes one entry per ICMP type, as the
# iptables dialect does.

class _OracleMemo(dict):
    def __init__(self, compute) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _oracle_ports_text(ranges) -> str:
    if not ranges:
        return ""
    parts = [str(r.lo) if r.lo == r.hi else f"'{r.lo}-{r.hi}'" for r in ranges]
    return "[" + ", ".join(parts) + "]"


def _oracle_addr_text(nets) -> str:
    if len(nets) == 1 and nets[0].prefixlen == 0:
        return "any"
    return ",".join(str(n) for n in nets)


def _oracle_proto_text(protocol) -> str:
    if protocol is None:
        return "ip"
    return PROTOCOL_NAMES.get(protocol, str(protocol))


def _oracle_rule_line(rule: AclRule, addrs) -> str:
    if (rule.action == "deny" and rule.protocol is None and rule.src == rule.dst == (ANY_NET,)
            and not (rule.sport or rule.dport or rule.state)):
        return TERMINAL_DENY_LINE
    fields = [rule.action, _oracle_proto_text(rule.protocol), "from", addrs[rule.src],
              "to", addrs[rule.dst], "sport", _oracle_ports_text(rule.sport),
              "dport", _oracle_ports_text(rule.dport), "state", ",".join(rule.state)]
    line = "~".join(fields)
    if rule.log:
        line += "~log"
    return line


def _oracle_acl_text(acl, addrs) -> str:
    lines = [NEUTRAL_HEADER + acl.name]
    last_comment = None
    for rule in acl.rules:
        if rule.comment and rule.comment != last_comment:
            lines.append(f"  remark~{rule.comment}")
        if rule.comment:
            last_comment = rule.comment
        lines.append("  " + _oracle_rule_line(rule, addrs))
    return "\n".join(lines) + "\n"


def render_rule_neutral(rule: AclRule) -> str:
    """One rule's neutral line, as the renderer writes it."""
    cache = render.RenderCache()
    return cache.rule(rule).neutral(cache)


def oracle_render_neutral_file(policy, firewall: str) -> str:
    addrs = _OracleMemo(_oracle_addr_text)
    return "\n".join(_oracle_acl_text(acl, addrs) for acl in policy.acls[firewall])


def _oracle_template(vendor_id: str) -> dict[str, str]:
    """The packaged template's sections, read as the old loader read them."""
    path = Path(render.__file__).parent / "templates" / f"{vendor_id}.tmpl"
    sections: dict[str, str] = {}
    current = None
    buf: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            if current is not None:
                sections[current] = "\n".join(buf).strip("\n")
            current = line[1:-1]
            buf = []
        else:
            buf.append(line)
    if current is not None:
        sections[current] = "\n".join(buf).strip("\n")
    return sections


def _oracle_iptables_matches(rule: AclRule, addrs) -> list[str]:
    base = ""
    if rule.protocol is not None:
        base += f" -p {_oracle_proto_text(rule.protocol)}"
    src = addrs[rule.src]
    dst = addrs[rule.dst]
    if src != "any":
        base += f" -s {src}"
    if dst != "any":
        base += f" -d {dst}"
    state = f" -m state --state {','.join(rule.state)}" if rule.state else ""

    def port_flag(flag: str, r: PortRange) -> str:
        return f" {flag} {r.lo}" if r.lo == r.hi else f" {flag} {r.lo}:{r.hi}"

    variants: list[str] = []
    if rule.protocol in (6, 17):
        sports = rule.sport or (PortRange(0, 65535),)
        dports = rule.dport or (PortRange(0, 65535),)
        for sp in sports:
            for dp in dports:
                piece = base
                if sp != PortRange(0, 65535):
                    piece += port_flag("--sport", sp)
                if dp != PortRange(0, 65535):
                    piece += port_flag("--dport", dp)
                variants.append(piece + state)
    elif rule.protocol == 1 and rule.dport:
        for lo, hi in rule.dport:
            for icmp_type in range(lo, hi + 1):
                variants.append(base + f" --icmp-type {icmp_type}" + state)
    else:
        variants.append(base + state)
    return variants


def _oracle_provenance(rule: AclRule) -> str:
    if not rule.origin_rule:
        return ""
    what = rule.service_comment or rule.origin_service
    return f"{rule.origin_rule}: {what}"


def _oracle_render_iptables(policy, firewall: str, template: dict[str, str],
                            assignments) -> str:
    out = [template["header"].format(firewall=firewall)]
    addrs = _OracleMemo(_oracle_addr_text)
    for a in assignments:
        out.append(template["chain_decl"].format(acl=a.acl))
    for a in assignments:
        if a.interface == LOCAL_INTERFACE:
            section = "bind_input" if a.direction == "inbound" else "bind_output"
            out.append(template[section].format(acl=a.acl))
        else:
            out.append(template["bind_forward"].format(interface=a.interface, acl=a.acl))
    for a in assignments:
        acl = policy.acl_by_name(firewall, a.acl)
        last_comment = None
        for rule in acl.rules:
            if rule.comment and rule.comment != last_comment:
                out.append(template["remark"].format(text=rule.comment))
                last_comment = rule.comment
            provenance = _oracle_provenance(rule)
            if provenance:
                out.append(template["remark"].format(text=provenance))
            target = "ACCEPT" if rule.action == "permit" else "DROP"
            log = rule.log or (rule.action == "deny" and policy.log_denies)
            for match in _oracle_iptables_matches(rule, addrs):
                if log:
                    out.append(template["log_rule"].format(acl=a.acl, match=match,
                                                           prefix=f"{a.acl}: "))
                out.append(template["rule"].format(acl=a.acl, match=match, target=target))
    out.append(template["footer"].format())
    return "\n".join(out) + "\n"


def _oracle_asa_ports(rule: AclRule) -> list[tuple[str, str]]:
    """(source, destination) operator pairs."""
    def operator(r: PortRange) -> str:
        if r == PortRange(0, 65535):
            return ""
        return f" range {r.lo} {r.hi}" if r.lo != r.hi else f" eq {r.lo}"

    if rule.protocol in (6, 17):
        sports = rule.sport or (PortRange(0, 65535),)
        dports = rule.dport or (PortRange(0, 65535),)
        return [(operator(sp), operator(dp)) for sp in sports for dp in dports]
    if rule.protocol == 1 and rule.dport:
        return [("", f" {icmp_type}") for lo, hi in rule.dport for icmp_type in range(lo, hi + 1)]
    return [("", "")]


def _oracle_render_asa(policy, firewall: str, template: dict[str, str], assignments) -> str:
    out = [template["header"].format(firewall=firewall)]
    addrs = _OracleMemo(_oracle_addr_text)
    for a in assignments:
        acl = policy.acl_by_name(firewall, a.acl)
        last_comment = None
        for rule in acl.rules:
            if rule.comment and rule.comment != last_comment:
                out.append(template["remark"].format(acl=a.acl, text=rule.comment))
                last_comment = rule.comment
            provenance = _oracle_provenance(rule)
            if provenance:
                out.append(template["remark"].format(acl=a.acl, text=provenance))
            log = rule.log or (rule.action == "deny" and policy.log_denies)
            for sport, dport in _oracle_asa_ports(rule):
                out.append(template["rule"].format(
                    acl=a.acl, action=rule.action, proto=_oracle_proto_text(rule.protocol),
                    src=addrs[rule.src], sport=sport, dst=addrs[rule.dst], dport=dport,
                    log=" log" if log else ""))
    for a in assignments:
        direction = "in" if a.direction == "inbound" else "out"
        out.append(template["bind"].format(acl=a.acl, direction=direction,
                                           interface=a.interface))
    out.append(template["footer"].format())
    return "\n".join(out) + "\n"


def oracle_render_device(policy, firewall: str, vendor_id: str) -> str:
    """One firewall's iptables_like or asa_like config, by the oracle."""
    template = _oracle_template(vendor_id)
    assignments = [a for a in policy.assignments if a.firewall == firewall]
    if vendor_id == "iptables_like":
        return _oracle_render_iptables(policy, firewall, template, assignments)
    return _oracle_render_asa(policy, firewall, template, assignments)


def oracle_manifest_json(policy) -> str:
    """The manifest as the pure-Python JSON encoder wrote it."""
    return json.dumps(render.build_manifest(policy), indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# compile back end oracle: ACL assembly and the device renderers as they
# were before rule keys were computed once per rule and template sections
# bound once per ACL.  Assembly keys every bucket entry again, hashing its
# networks; each device line is one ``str.format(**kwargs)`` call on the
# checked section body.

def _oracle_rule_sort_key(rule: AclRule) -> tuple:
    def net_key(net):
        return (int(net.network_address), net.prefixlen)

    return (
        rule.origin_rule,
        rule.origin_service,
        rule.flow_dir,
        tuple(net_key(n) for n in rule.src),
        tuple(net_key(n) for n in rule.dst),
        rule.protocol if rule.protocol is not None else 256,
        rule.dport,
        rule.sport,
        rule.state,
    )


def oracle_assemble(rules) -> list[AclRule]:
    """Deterministic order, duplicates (by match effect) dropped."""
    out: list[AclRule] = []
    seen: set = set()
    for rule in sorted(rules, key=_oracle_rule_sort_key):
        key = rule.match_key()
        if key in seen:
            continue
        seen.add(key)
        out.append(rule)
    return out


def _kwargs_formats(template) -> dict:
    return {name: body.format for name, body in template.sections.items()}


def kwargs_render_iptables(policy, firewall: str, template, assignments, cache) -> str:
    """``render._render_iptables`` formatting every line from keywords, and
    counting the config's non-comment lines in ``cache`` by a rescan of its
    text."""
    formats = _kwargs_formats(template)
    remark, rule_line, log_line = formats["remark"], formats["rule"], formats["log_rule"]
    out = [formats["header"](firewall=firewall)]
    for a in assignments:
        out.append(formats["chain_decl"](acl=a.acl))
    for a in assignments:
        if a.interface == LOCAL_INTERFACE:
            section = "bind_input" if a.direction == "inbound" else "bind_output"
            out.append(formats[section](acl=a.acl))
        else:
            out.append(formats["bind_forward"](interface=a.interface, acl=a.acl))
    for a in assignments:
        acl = policy.acl_by_name(firewall, a.acl)
        prefix = f"{a.acl}: "
        last_comment = None
        for rule in acl.rules:
            if rule.comment and rule.comment != last_comment:
                out.append(remark(text=rule.comment))
                last_comment = rule.comment
            text = cache.rule(rule)
            if text.provenance:
                out.append(remark(text=text.provenance))
            target = "ACCEPT" if rule.action == "permit" else "DROP"
            for match in text.iptables(cache):
                if text.log:
                    out.append(log_line(acl=a.acl, match=match, prefix=prefix))
                out.append(rule_line(acl=a.acl, match=match, target=target))
    out.append(formats["footer"]())
    config = "\n".join(out) + "\n"
    cache.iptables_loc += sum(1 for line in config.splitlines()
                              if line.strip() and not line.strip().startswith("#"))
    return config


def kwargs_render_asa(policy, firewall: str, template, assignments, cache) -> str:
    """``render._render_asa`` formatting every line from keywords."""
    formats = _kwargs_formats(template)
    remark, rule_line = formats["remark"], formats["rule"]
    out = [formats["header"](firewall=firewall)]
    for a in assignments:
        acl = policy.acl_by_name(firewall, a.acl)
        last_comment = None
        for rule in acl.rules:
            if rule.comment and rule.comment != last_comment:
                out.append(remark(acl=a.acl, text=rule.comment))
                last_comment = rule.comment
            text = cache.rule(rule)
            if text.provenance:
                out.append(remark(acl=a.acl, text=text.provenance))
            log = " log" if text.log else ""
            for sport, dport in text.asa(cache):
                out.append(rule_line(acl=a.acl, action=rule.action, proto=text.proto,
                                     src=text.src, sport=sport, dst=text.dst, dport=dport,
                                     log=log))
    for a in assignments:
        direction = "in" if a.direction == "inbound" else "out"
        out.append(formats["bind"](acl=a.acl, direction=direction, interface=a.interface))
    out.append(formats["footer"]())
    return "\n".join(out) + "\n"


def kwargs_render_device(policy, firewall: str, vendor_id: str, templates_dir=None) -> str:
    """One firewall's iptables_like or asa_like config by the keyword
    renderers, from the packaged templates or those under ``templates_dir``."""
    template = render.load_template(vendor_id, templates_dir)
    assignments = [a for a in policy.assignments if a.firewall == firewall]
    renderer = kwargs_render_iptables if vendor_id == "iptables_like" else kwargs_render_asa
    return renderer(policy, firewall, template, assignments, render.RenderCache(policy.log_denies))


# ---------------------------------------------------------------------------
# zone disjointness by pairs

def zone_disjointness_by_pairs(zones: Iterable[Zone], file: str) -> None:
    """``topo_model._check_zone_disjointness`` decided the slow way: every
    pair of zones, their members, then every pair of their CIDRs with
    ``IPv4Network.overlaps``; the first conflict raises."""
    seen: list[Zone] = []
    for zone in zones:
        for other in seen:
            if zone.members & other.members:
                raise PolicyError(f"device in both zones {zone.name!r} and {other.name!r}",
                                  file)
            for a in zone.cidrs:
                for b in other.cidrs:
                    if a.overlaps(b):
                        raise PolicyError(
                            f"zone CIDRs overlap: {a} ({zone.name}) and {b} ({other.name})",
                            file)
        seen.append(zone)


# ---------------------------------------------------------------------------
# iptables-like reader

_IPT_BIND_FORWARD = re.compile(r"^-A FORWARD -i (\S+) -j (\S+)$")
_IPT_BIND_LOCAL = re.compile(r"^-A (INPUT|OUTPUT) -j (\S+)$")
_IPT_RULE = re.compile(r"^-A (\S+)(.*) -j (ACCEPT|DROP)$")


def parse_iptables_like(text: str) -> tuple[dict[str, list[AclRule]],
                                            list[tuple[str, str, str]]]:
    """Load the iptables-like rendering back into rules and bindings.

    Semantics-preserving, not structure-preserving: multi-range rules come
    back as one rule per range, which decides identically.  LOG lines and
    comments are skipped.  Bindings are (interface, direction, acl) with
    the local stages mapped from INPUT/OUTPUT.
    """
    acls: dict[str, list[AclRule]] = {}
    bindings: list[tuple[str, str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", ":", "*")) or line == "COMMIT":
            continue
        bind = _IPT_BIND_FORWARD.match(line)
        if bind:
            bindings.append((bind.group(1), "inbound", bind.group(2)))
            continue
        bind = _IPT_BIND_LOCAL.match(line)
        if bind:
            direction = "inbound" if bind.group(1) == "INPUT" else "outbound"
            bindings.append((LOCAL_INTERFACE, direction, bind.group(2)))
            continue
        rule_m = _IPT_RULE.match(line)
        if rule_m is None:
            if "-j LOG" in line:
                continue
            raise PolicyError(f"unrecognized iptables-like line: {line!r}")
        chain, match, target = rule_m.groups()
        acls.setdefault(chain, []).append(_iptables_rule(match, target))
    return acls, bindings


def _iptables_rule(match: str, target: str) -> AclRule:
    tokens = match.split()
    protocol: int | None = None
    src = (ANY_NET,)
    dst = (ANY_NET,)
    sport: tuple[PortRange, ...] = ()
    dport: tuple[PortRange, ...] = ()
    state: tuple[str, ...] = ()
    i = 0

    def port_of(text: str) -> PortRange:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return PortRange(int(lo), int(hi))
        return PortRange(int(text), int(text))

    while i < len(tokens):
        flag = tokens[i]
        if flag == "-p":
            name = tokens[i + 1]
            protocol = PROTOCOL_NUMBERS[name] if name in PROTOCOL_NUMBERS else int(name)
            i += 2
        elif flag == "-s":
            src = render._parse_addr(tokens[i + 1])
            i += 2
        elif flag == "-d":
            dst = render._parse_addr(tokens[i + 1])
            i += 2
        elif flag == "--sport":
            sport = (port_of(tokens[i + 1]),)
            i += 2
        elif flag == "--dport":
            dport = (port_of(tokens[i + 1]),)
            i += 2
        elif flag == "--icmp-type":
            dport = (PortRange(int(tokens[i + 1]), int(tokens[i + 1])),)
            i += 2
        elif flag == "-m" and i + 1 < len(tokens) and tokens[i + 1] == "state":
            i += 2
        elif flag == "--state":
            state = tuple(tokens[i + 1].split(","))
            i += 2
        else:
            raise PolicyError(f"unrecognized iptables-like match flag {flag!r}")
    return AclRule(
        action="permit" if target == "ACCEPT" else "deny",
        protocol=protocol, src=src, dst=dst, sport=sport, dport=dport, state=state)


# ---------------------------------------------------------------------------
# generated benchmark inputs

def _perfbench_gen():
    """The benchmark's seeded grid and bulk generators (``perfbench/gen.py``)."""
    if "perfbench_gen" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["perfbench_gen"]


def generated_policy_sources() -> dict[str, str]:
    """Policy texts of bulk seeds 1-3 (with their best-practice files) and
    of the 2x2, 2x3, 2x4, 3x2 and 3x3 grids (seed 1), by name."""
    gen = _perfbench_gen()
    sources = {}
    for seed in (1, 2, 3):
        bulk = gen.bulk(seed)
        sources[f"bulk{seed}"] = bulk.policy
        sources[f"bulk{seed}_best_practice"] = bulk.best_practice
    for rows, cols in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        sources[f"grid{rows}x{cols}"] = gen.grid(rows, cols, 1).policy
    return sources


__all__ = [
    "GRID_PORTS",
    "PORTLESS",
    "RING",
    "accept_masks",
    "brute_force_leaks",
    "canonical_masks",
    "declaration_order",
    "declaration_positions",
    "enumerate_paths_exhaustive",
    "find_acl_anomalies_pairwise",
    "find_rule_overlaps_all_pairs",
    "first_match_by_scan",
    "generated_policy_sources",
    "grid_model",
    "grid_topology",
    "inject_by_scan",
    "kwargs_render_asa",
    "kwargs_render_device",
    "kwargs_render_iptables",
    "masks_equal",
    "masks_subset",
    "matching",
    "oracle_assemble",
    "oracle_manifest_json",
    "oracle_render_device",
    "oracle_render_neutral_file",
    "packet_matches",
    "parse_iptables_like",
    "pair_plan",
    "partition_strips",
    "partition_strips_by_scan",
    "plan_delivers",
    "pretty_print",
    "random_accept_rules",
    "random_mixed_service_set",
    "random_range",
    "random_service",
    "random_service_set",
    "realizable_without_loops",
    "ring_model",
    "rule_box",
    "rule_grid_points",
    "scan_packet",
    "service_accepts",
    "split_cover",
    "subtract_strips",
    "tokenize_by_char",
    "whitelist_reading",
    "zone_disjointness_by_pairs",
    "zone_of_address",
]
