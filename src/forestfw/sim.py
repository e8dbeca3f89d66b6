"""In-process packet-filter simulator.

:func:`load_compiled` reads a compile output directory back: the model
derived from its topology copy as compile derives it, the ACLs
``netgen.acl_names`` names for that model, the manifest's flows, and the
neutral files' rules.  The simulator walks packets along routes: conduit
paths whose hops carry the ACLs ``netgen.hop_acls`` assigns them, as
compile does.  Each network builds one
:class:`forestfw.netgen.PathIndex` of its model, on first use, and every
path search and route of the network walks it.  It evaluates
each traversed firewall's ACL first-match, with a connection table gating
ESTABLISHED traffic.  Packets are :class:`forestfw.header_space.Packet`
header points.  Neutral files of equal text are decoded once, and each
distinct ACL is encoded once into a
:class:`forestfw.header_space.MatchTable`, the ACL engine.  Positive
vetting injects one representative packet per expanded flow (plus the
TCP return leg), decided at each hop by the table's lookup, and expects
delivery.  Negative vetting scans every ordered zone pair and reports
any delivery not implied by the policy: the same lookup without the
value, then the table's walk over the value atoms of one
:class:`forestfw.header_space.Grid`, printed back as values.  The scan
is not exhaustive: it fixes the lowest address of each zone's first
CIDR, source port 49152 and state NEW, and varies only the dport (or
ICMP type) over the scan ports, for protocols 1, 6 and 17 by default.
Vetting the full header space is ROADMAP item 1.
"""

from __future__ import annotations

import ipaddress
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from forestfw import intervals
from forestfw.diagnostics import InputError, PolicyError, read_text
from forestfw.header_space import ESTABLISHED, NEW, Grid, MatchTable, Packet, address_intervals
from forestfw.netgen import AclRule, PathIndex, acl_names, enumerate_paths
from forestfw.policy_lang.syntax import (
    FULL_ICMP_SET,
    ICMP_TYPE_MAX,
    PORT_MAX,
    FlowRule,
    PortRange,
    Service,
    port_ranges,
    service_plane,
)
from forestfw.render import (
    MANIFEST_SCHEMA,
    SERVICE_RANGES,
    TOPOLOGY_FILE,
    neutral_field_memos,
    neutral_file,
    parse_neutral,
)
from forestfw.topo_model import (
    Zone,
    ZoneConduitModel,
    build_zone_firewall_model,
    derive_zone_conduit,
    load_topology,
)

# a zone path as the ACL keys ``(firewall, interface, direction)`` that
# filter each of its hops, per hop in firewall name order
Route = tuple[tuple[tuple[str, str, str], ...], ...]


class TraceHop(NamedTuple):
    firewall: str
    interface: str
    verdict: str
    rule: str


class InjectResult(NamedTuple):
    delivered: bool
    trace: tuple[TraceHop, ...]
    reason: str = ""


class VetResult(NamedTuple):
    """Per-flow outcome of positive vetting: 1 delivered, 0 failed."""

    rule_name: str
    service: str
    src_zone: str
    dst_zone: str
    outcome: int
    trace: tuple["TraceHop", ...] = ()
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.outcome else "FAIL"
        hops = ",".join(f"{hop.firewall}/{hop.interface}" for hop in self.trace)
        parts = [status, self.rule_name, f"{self.src_zone}->{self.dst_zone}",
                 self.service, hops or "-"]
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class Leak(NamedTuple):
    src_zone: str
    dst_zone: str
    protocol: int
    port: int  # dport, or ICMP type for protocol 1

    def line(self) -> str:
        dim = "icmp_type" if self.protocol == 1 else "dport"
        return (f"LEAK {self.src_zone}->{self.dst_zone} protocol={self.protocol} "
                f"{dim}={self.port}")


@dataclass
class SimNetwork:
    """A compiled network as the simulator walks it: the model, the ACL
    bound at each ``(firewall, interface, direction)`` key, the expanded
    flows and the connection table, with the caches built from them.  The
    model is fixed once the network is built: the routes, the path index
    and the zone spans are built from it on first use and never rebuilt."""

    model: ZoneConduitModel
    acl_map: dict[tuple[str, str, str], tuple[AclRule, ...]]
    flows: tuple[FlowRule, ...]
    connections: set[tuple] = field(default_factory=set)
    # routes per (src, dst, established)
    route_cache: dict[tuple[str, str, bool], list[Route]] = field(
        default_factory=dict, repr=False, compare=False)
    # one MatchTable per distinct rule tuple bound in acl_map, by the
    # tuple's id (the table keeps its rules, and so the id, alive)
    match_tables: dict[int, MatchTable] = field(
        default_factory=dict, repr=False, compare=False)
    # each rule and address or port field encoded once across the tables
    codes: dict = field(default_factory=dict, repr=False, compare=False)
    # sorted disjoint (lo, hi, zone) spans, built on first use
    zone_spans: list | None = field(default=None, repr=False, compare=False)
    # the model's path index, built on first use (``path_index``)
    index: PathIndex | None = field(default=None, repr=False, compare=False)

    def reset_connections(self) -> None:
        self.connections.clear()

    def routes(self, src: str, dst: str, established: bool = False) -> list[Route]:
        """The routes of the zone paths from ``src`` to ``dst``, in path
        order: each hop's ACLs as :func:`netgen.hop_acls` names them."""
        key = (src, dst, established)
        if key not in self.route_cache:
            index = self.path_index()
            hop_keys = index.hop_keys
            self.route_cache[key] = [
                tuple(hop_keys[hop] for hop in zip(path, path[1:]))
                for path in enumerate_paths(self.model, src, dst, established, index=index)]
        return self.route_cache[key]

    def path_index(self) -> PathIndex:
        if self.index is None:
            self.index = PathIndex(self.model)
        return self.index

    def match_table(self, key: tuple[str, str, str]) -> MatchTable:
        """The match table of the ACL bound at ``key``: one per rule tuple,
        so keys that share their rules, as equal ACLs decoded by
        :func:`load_compiled` do, share it, and a key bound to new rules
        gets theirs."""
        rules = self.acl_map.get(key, ())
        table = self.match_tables.get(id(rules))
        if table is None:
            table = self.match_tables[id(rules)] = MatchTable(rules, self.codes)
        return table

    def zone_of_address(self, addr: int) -> str | None:
        """The zone whose CIDRs hold ``addr``, by bisect; an address in
        overlapping CIDRs belongs to the first of their zones in name order."""
        spans = self.zone_spans
        if spans is None:
            spans, covered = [], ()
            for zone in sorted(self.model.zones.values(), key=lambda z: z.name):
                cidrs = address_intervals(zone.cidrs)
                spans += [(lo, hi, zone.name) for lo, hi in intervals.subtract(cidrs, covered)]
                covered = intervals.union(covered, cidrs)
            spans = self.zone_spans = sorted(spans)
        i = bisect_right(spans, addr, key=lambda span: span[0]) - 1
        return spans[i][2] if i >= 0 and addr <= spans[i][1] else None


def load_compiled(directory: Path | str) -> SimNetwork:
    """Rebuild the simulated network from a compile output directory.

    The model is derived from the topology copy as compile derives it,
    each ACL :func:`forestfw.netgen.acl_names` names for it is bound at
    its key, the flows come from the manifest, and the rules from each
    firewall's neutral file, each file read by
    :func:`forestfw.diagnostics.read_text`.  Each distinct file text is
    decoded once, each distinct rule line and remark and each distinct
    field text once across the files, and ACLs of equal rules share one
    rule tuple.  A file that is missing, unreadable, not UTF-8 or
    malformed, an error in the topology copy (bad compile output, not a
    policy finding), a manifest that breaks schema 3, or a neutral file
    without an ACL the model names raises :class:`InputError` naming the
    file.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    where = str(manifest_path)
    text = read_text(manifest_path)
    try:
        model, flows = _from_manifest(
            json.loads(text, object_pairs_hook=_unique_keys), directory)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed manifest: {exc.msg}", where, exc.lineno, exc.colno) from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputError(f"malformed manifest: {exc}", where) from exc

    acls_per_file: dict[str, dict[str, tuple[AclRule, ...]]] = {}
    acls_per_text: dict[str, dict[str, tuple[AclRule, ...]]] = {}
    acl_map: dict[tuple[str, str, str], tuple[AclRule, ...]] = {}
    decoded: dict[tuple[str, str], AclRule] = {}
    fields = neutral_field_memos()
    # one tuple per sequence of decoded rules, by their identities (``decoded``
    # keeps them alive): equal ACLs in files that differ, such as the
    # deny-only ones, share a tuple and so a match table
    interned: dict[tuple[int, ...], tuple[AclRule, ...]] = {}
    for key, acl_name in acl_names(model).items():
        path = directory / neutral_file(key[0])
        if key[0] not in acls_per_file:
            text = read_text(path)
            # files of equal text, as serial firewalls write, share their rules
            if text not in acls_per_text:
                acls_per_text[text] = {
                    acl.name: interned.setdefault(tuple(map(id, acl.rules)), acl.rules)
                    for acl in parse_neutral(text, str(path), decoded, fields)}
            acls_per_file[key[0]] = acls_per_text[text]
        if acl_name not in acls_per_file[key[0]]:
            raise InputError(f"no ACL {acl_name!r} for {' '.join(key)}", str(path))
        acl_map[key] = acls_per_file[key[0]][acl_name]
    return SimNetwork(model, acl_map, flows)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; ValueError if it holds a key twice."""
    entry = dict(pairs)
    if len(entry) < len(pairs):
        twice = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
        raise ValueError(f"key {json.dumps(twice)} appears twice in one object")
    return entry


def _fields(entry, keys: tuple[str, ...], what: str) -> tuple:
    """``entry``'s values at ``keys``; ValueError or AttributeError
    unless it is a JSON object of exactly those keys."""
    if entry.keys() != set(keys):
        raise ValueError(f"{what} has keys {', '.join(sorted(entry))}, "
                         f"not {', '.join(sorted(keys))}")
    return tuple(entry[key] for key in keys)


def _from_manifest(manifest: dict, directory: Path
                   ) -> tuple[ZoneConduitModel, tuple[FlowRule, ...]]:
    """The model derived from the topology copy in ``directory``, and the
    flows of its manifest."""
    # a manifest without a schema key was written before schema 2
    if manifest.get("schema", 1) != MANIFEST_SCHEMA:
        raise ValueError(f"schema {json.dumps(manifest.get('schema', 1))}, not "
                         f"{MANIFEST_SCHEMA}: compile the policy again")
    flow_entries, options, services, _ = _fields(
        manifest, ("flows", "options", "services", "schema"), "the manifest")
    option_keys = ("log_denies", "ospf")
    for key, value in zip(option_keys, _fields(options, option_keys, "options")):
        if type(value) is not bool:
            raise ValueError(f"option {key} is {json.dumps(value)}, not true or false")
    topology = directory / TOPOLOGY_FILE
    try:
        model = derive_zone_conduit(build_zone_firewall_model(
            load_topology(read_text(topology), str(topology))))
    except PolicyError as exc:  # a finding in the copy is bad compile output
        raise InputError(*exc.diagnostic[1:]) from exc

    catalog = {name: _service(name, entry) for name, entry in services.items()}
    flows = []
    for entry in flow_entries:
        rule, src_zone, dst_zone, service = _fields(
            entry, ("rule", "src_zone", "dst_zone", "service"), "a flow")
        for zone in (src_zone, dst_zone):
            if zone not in model.zones:
                raise ValueError(f"flow {rule!r} names unknown zone {zone!r}")
        if service not in catalog:
            raise ValueError(f"flow {rule!r} names unknown service {service!r}")
        flows.append(FlowRule(rule, src_zone, dst_zone, catalog[service]))
    return model, tuple(flows)


def _service(name: str, entry) -> Service:
    """The service of a manifest's ``services`` entry; ValueError unless
    its protocol and each bound of its ranges are integers in bounds and
    each range ascends."""
    protocol, *fields = _fields(entry, ("protocol", *SERVICE_RANGES), f"service {name!r}")
    if type(protocol) is not int or not 0 <= protocol <= 255:
        raise ValueError(f"service {name!r} has protocol {json.dumps(protocol)}, "
                         f"not an integer within 0-255")
    ranges = [tuple(PortRange(lo, hi) for lo, hi in pairs) for pairs in fields]
    for key, pairs, top in zip(SERVICE_RANGES, ranges, (PORT_MAX, PORT_MAX, ICMP_TYPE_MAX)):
        for lo, hi in pairs:
            if type(lo) is not int or type(hi) is not int or not 0 <= lo <= hi <= top:
                raise ValueError(f"service {name!r} has {key} {json.dumps([lo, hi])}, "
                                 f"not an ascending range of integers within 0-{top}")
    return Service(name, protocol, *ranges)


# ---------------------------------------------------------------------------
# injection

def inject(net: SimNetwork, packet: Packet, ingress_zone: str) -> InjectResult:
    """Walk a packet from its ingress zone toward its destination zone.

    Delivered iff some valid path accepts it at every traversed firewall.
    ESTABLISHED packets require a connection-table entry created by a
    previously delivered NEW packet of the mirrored flow.
    """
    if ingress_zone not in net.model.zones:
        raise PolicyError(f"unknown ingress zone {ingress_zone!r}")
    dst_zone = net.zone_of_address(packet.dst_addr)
    if dst_zone is None:
        raise PolicyError(f"destination address {ipaddress.IPv4Address(packet.dst_addr)} "
                          f"belongs to no zone")

    if packet.state == ESTABLISHED:
        mirror = (packet.protocol, packet.dst_addr, packet.dport,
                  packet.src_addr, packet.sport)
        if mirror not in net.connections:
            return InjectResult(False, (), "no connection entry for ESTABLISHED packet")

    if dst_zone == ingress_zone:
        return InjectResult(True, (), "intra-zone traffic is not filtered")

    routes = net.routes(ingress_zone, dst_zone, established=packet.state == ESTABLISHED)
    if not routes:
        return InjectResult(False, (), f"no valid path {ingress_zone} -> {dst_zone}")

    # each hop is traced by the first firewall that permits, else the last
    trace: list[TraceHop] = []
    for route in routes:
        trace = []
        for keys in route:
            for key in keys:
                action, rule_text = net.match_table(key).decide(packet)
                if action == "permit":
                    break
            trace.append(TraceHop(key[0], key[1], action, rule_text))
            if action != "permit":
                break
        else:
            if packet.state == NEW and packet.protocol == 6:
                net.connections.add((packet.protocol, packet.src_addr, packet.sport,
                                     packet.dst_addr, packet.dport))
            return InjectResult(True, tuple(trace))
    return InjectResult(False, tuple(trace), "denied in transit")


# ---------------------------------------------------------------------------
# vetting

def _zone_rep_addr(zone: Zone) -> int:
    if not zone.cidrs:
        raise PolicyError(f"zone {zone.name!r} has no addresses")
    return int(zone.cidrs[0].network_address)


def representative_packet(net: SimNetwork, flow: FlowRule) -> Packet:
    """Deterministic test packet: the lowest corner of the flow's plane."""
    svc = flow.service
    src = _zone_rep_addr(net.model.zones[flow.src_zone])
    dst = _zone_rep_addr(net.model.zones[flow.dst_zone])
    values, sports = service_plane(svc)
    if svc.protocol == 1:
        return Packet(src, dst, 1, 0, 0, values[0].lo, NEW)
    return Packet(src, dst, svc.protocol or 0, sports[0].lo, values[0].lo, 0, NEW)


def vet_positive(net: SimNetwork) -> list[VetResult]:
    """Inject every expanded flow's representative packet; expect delivery.

    TCP flows additionally require the reverse ESTABLISHED packet to pass
    once the forward NEW packet has been delivered.
    """
    results = []
    for flow in net.flows:
        net.reset_connections()
        packet = representative_packet(net, flow)
        forward = inject(net, packet, flow.src_zone)
        outcome = 1 if forward.delivered else 0
        detail = "" if forward.delivered else f"forward: {forward.reason or 'denied'}"
        trace = forward.trace
        if forward.delivered and flow.service.protocol == 6:
            reverse = Packet(packet.dst_addr, packet.src_addr, 6,
                             packet.dport, packet.sport, 0, ESTABLISHED)
            back = inject(net, reverse, flow.dst_zone)
            if not back.delivered:
                outcome = 0
                detail = f"return: {back.reason or 'denied'}"
                trace = forward.trace + back.trace
        results.append(VetResult(flow.rule_name, flow.service.name,
                                 flow.src_zone, flow.dst_zone, outcome,
                                 trace, detail))
    net.reset_connections()
    return results


class ScanSpec(NamedTuple):
    protocols: tuple[int, ...] = (1, 6, 17)
    ports: tuple[PortRange, ...] = (PortRange(0, 1023),)

    def port_values(self):
        for lo, hi in intervals.normalize(self.ports):
            yield from range(lo, hi + 1)


SCAN_SPORT = 49152  # fixed ephemeral source port for scan packets


def default_scan_spec(net: SimNetwork) -> ScanSpec:
    """Ports 0-1023 plus every explicitly declared port of the policy."""
    ranges: list[tuple[int, int]] = [(0, 1023)]
    full = (0, 65535)
    for flow in net.flows:
        for r in flow.service.dest_ports + flow.service.source_ports:
            if tuple(r) != full:
                ranges.append(tuple(r))
    return ScanSpec((1, 6, 17), port_ranges(ranges))


def _admitted_values(svc: Service) -> intervals.IntervalSet:
    """The swept values a service admits at sport SCAN_SPORT."""
    values, sports = service_plane(svc)
    return values if intervals.contains(sports, SCAN_SPORT) else ()


def vet_negative(net: SimNetwork, scan: ScanSpec | None = None) -> list[Leak]:
    """Report scanned deliveries the policy never implied.

    The scan is not exhaustive.  For each ordered zone pair it fixes the
    lowest address of each zone's first CIDR, source port SCAN_SPORT and
    state NEW, and varies the dport (ICMP type for protocol 1, types
    0-255 only) over the scan ports, for each scanned protocol.  The
    bounds of every bound rule's values, of the values each flow's
    :func:`~forestfw.policy_lang.syntax.service_plane` admits at that
    sport and of the scan ranges cut the value axis of one grid without
    sport cuts into atoms, and a set of atoms is an int.  Each hop ACL
    is decided once over the scanned atoms, by :meth:`MatchTable.walk`
    over the rows its lookup finds, each row's atoms built once per
    table; then a hop delivers the OR of its firewalls' permits, a path
    the AND of its hops, the pair the OR of its paths.  Leaks are the
    delivered values no flow of the pair admits, ordered by zone pair,
    protocol (scan order) and value.
    Each pair's routes come from :meth:`SimNetwork.routes`, so a pair
    that positive vetting already routed is not searched again.
    Vetting the full header space is ROADMAP item 1.
    """
    scan = scan or default_scan_spec(net)
    scanned = intervals.normalize(scan.ports)
    admitted = [((f.src_zone, f.dst_zone, f.service.protocol), _admitted_values(f.service))
                for f in net.flows]
    bound = dict.fromkeys(map(net.match_table, net.acl_map))
    grid = Grid([scanned, FULL_ICMP_SET, *(values for _, values in admitted if values),
                 *(row.values for table in bound for row in table.rows if row.values)])
    # each row's region: the values it admits, all of them where it has
    # none; the table of a key bound to no ACL has no rows, so no regions
    masks = {table: dict(enumerate(grid.mask(row.values) for row in table.rows))
             for table in bound}
    implied: dict[tuple[str, str, int | None], int] = {}
    for pair_protocol, values in admitted:
        implied[pair_protocol] = implied.get(pair_protocol, 0) | grid.mask(values)
    scanned_atoms = grid.mask(scanned)
    leaks: list[Leak] = []
    zones = sorted(net.model.zones)
    for src_zone in zones:
        for dst_zone in zones:
            if src_zone == dst_zone:
                continue
            routes = net.routes(src_zone, dst_zone)
            if not routes:
                continue
            src_addr = _zone_rep_addr(net.model.zones[src_zone])
            dst_addr = _zone_rep_addr(net.model.zones[dst_zone])
            tables = {key: net.match_table(key)
                      for key in dict.fromkeys(key for route in routes
                                               for keys in route for key in keys)}
            for protocol in scan.protocols:
                universe = (scanned_atoms & grid.mask(FULL_ICMP_SET) if protocol == 1
                            else scanned_atoms)
                if not universe:
                    continue
                # a table that several keys share is decided once
                permitted = {table: table.walk(
                    table.lookup(protocol, NEW, src_addr, dst_addr, SCAN_SPORT),
                    masks.get(table, {}), universe)[0] for table in dict.fromkeys(tables.values())}
                permits = {key: permitted[table] for key, table in tables.items()}
                delivered = 0
                for route in routes:
                    reach = universe
                    for keys in route:
                        hop = 0
                        for key in keys:
                            hop |= permits[key]
                        reach &= hop
                        if not reach:
                            break
                    delivered |= reach
                leaked = delivered & ~implied.get((src_zone, dst_zone, protocol), 0)
                leaks.extend(Leak(src_zone, dst_zone, protocol, value)
                             for (lo, hi), _ in grid.strips(leaked)
                             for value in range(lo, hi + 1))
    return leaks
