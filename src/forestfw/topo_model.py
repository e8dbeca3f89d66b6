"""Topology ingestion and Zone-Conduit model construction.

Topologies arrive as GraphML: nodes carry ``kind`` (host, subnet,
firewall, carrier), an optional ``zone`` label, and a comma-separated
``cidr`` list; edges carry optional ``if_a``/``if_b`` interface names.
The Zone-Firewall model groups devices into disjoint zones (labels become
regular zones, each firewall gets a dedicated Firewall-Zone, unlabeled
subnets between serial firewalls become Abstract-Zones, ``carrier`` nodes
become Carrier-Zones) and records which firewall interface faces each
zone.  Conduits then join zones separated by a single firewall, giving
the graph the compiler and simulator walk.
"""

from __future__ import annotations

import ipaddress
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple

from forestfw.diagnostics import InputError, PolicyError

DEVICE_KINDS = ("host", "subnet", "firewall", "carrier")
ZONE_KINDS = ("regular", "firewall", "abstract", "carrier")

LOCAL_INTERFACE = "local"  # the firewall's own input/output filtering stage


class Device(NamedTuple):
    name: str
    kind: str
    zone_label: str | None = None
    cidrs: tuple[ipaddress.IPv4Network, ...] = ()


class Link(NamedTuple):
    dev_a: str
    if_a: str
    dev_b: str
    if_b: str


@dataclass
class Topology:
    """A loaded topology: its devices by name and its links in document order."""

    devices: dict[str, Device] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    file: str = "<topology>"  # the file it was loaded from, for diagnostics
    document: str = ""  # the GraphML text it was loaded from, which compile copies


class Zone(NamedTuple):
    name: str
    kind: str
    members: frozenset[str]
    cidrs: tuple[ipaddress.IPv4Network, ...] = ()


class Conduit(NamedTuple):
    zones: tuple[str, str]  # sorted endpoint pair
    firewalls: frozenset[str]


@dataclass
class ZoneConduitModel:
    """Zones and the conduits between them, each conduit with the
    firewalls that realize it."""

    zones: dict[str, Zone] = field(default_factory=dict)
    conduits: dict[tuple[str, str], Conduit] = field(default_factory=dict)
    # firewall -> zone -> interface facing that zone; absent for declared models
    firewall_interfaces: dict[str, dict[str, str]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def conduit_between(self, a: str, b: str) -> Conduit | None:
        return self.conduits.get((a, b) if a < b else (b, a))


def firewall_zones(model: ZoneConduitModel) -> dict[str, str]:
    """Each firewall's own Firewall-Zone."""
    return {member: zone.name for zone in model.zones.values() if zone.kind == "firewall"
            for member in zone.members}


@dataclass
class ZoneFirewallModel:
    """The precursor of the Zone-Conduit model: zones plus, per firewall,
    the interface facing each adjacent zone."""

    zones: dict[str, Zone] = field(default_factory=dict)
    # firewall -> zone -> interface name facing that zone
    adjacency: dict[str, dict[str, str]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# GraphML ingestion

def _data_of(elem: ET.Element, keymap: dict[str, str], ns: str) -> dict[str, str]:
    out = {}
    for data in elem.findall(f"{ns}data"):
        key = data.get("key") or ""
        out[keymap.get(key, key)] = (data.text or "").strip()
    return out


def _read_graphml(document: str, file: str) -> tuple[ET.Element, dict[str, str], str]:
    """The ``<graph>`` of a GraphML document, its key-id -> attribute-name
    map and its namespace prefix; diagnostics name ``file``."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        line, col = exc.position
        raise InputError(f"malformed GraphML: {exc}", file, line, col) from exc
    ns = root.tag[: root.tag.index("}") + 1] if root.tag.startswith("{") else ""
    keymap = {}
    for key in root.findall(f"{ns}key"):
        key_id = key.get("id")
        if key_id:
            keymap[key_id] = key.get("attr.name") or key_id
    graph = root.find(f"{ns}graph")
    if graph is None:
        raise InputError("GraphML document has no <graph>", file)
    return graph, keymap, ns


def load_topology(document: str, file: str = "<topology>") -> Topology:
    """Parse a GraphML topology document; diagnostics name ``file``."""
    graph, keymap, ns = _read_graphml(document, file)

    topo = Topology(file=file, document=document)
    for node in graph.findall(f"{ns}node"):
        name = node.get("id") or ""
        data = _data_of(node, keymap, ns)
        kind = data.get("kind", "")
        if kind not in DEVICE_KINDS:
            raise PolicyError(f"device {name!r} has unknown kind {kind!r}", file)
        zone_label = data.get("zone") or None
        if kind == "firewall" and zone_label:
            raise PolicyError(
                f"firewall {name!r} carries a zone label; firewalls get "
                f"Firewall-Zones automatically", file)
        try:
            cidrs = tuple(
                ipaddress.IPv4Network(c.strip())
                for c in data.get("cidr", "").split(",") if c.strip()
            )
        except ValueError as exc:
            raise InputError(f"device {name!r} has a bad CIDR: {exc}", file) from exc
        if kind in ("subnet", "host", "carrier") and not cidrs:
            raise PolicyError(f"{kind} {name!r} carries no CIDR", file)
        if name in topo.devices:
            raise PolicyError(f"duplicate device {name!r}", file)
        topo.devices[name] = Device(name, kind, zone_label, cidrs)

    auto_port: dict[str, int] = {}
    used: dict[str, set[str]] = {}

    def interface(dev: str, explicit: str | None) -> str:
        if explicit:
            name = explicit
        else:
            auto_port[dev] = auto_port.get(dev, 0)
            name = f"p{auto_port[dev]}"
            auto_port[dev] += 1
        if name in used.setdefault(dev, set()):
            raise PolicyError(f"duplicate interface {name!r} on device {dev!r}", file)
        if name == LOCAL_INTERFACE and topo.devices[dev].kind == "firewall":
            raise PolicyError(f"interface {name!r} on firewall {dev!r}: the name is reserved "
                              f"for the firewall's local stage", file)
        used[dev].add(name)
        return name

    for edge in graph.findall(f"{ns}edge"):
        a, b = edge.get("source") or "", edge.get("target") or ""
        for dev in (a, b):
            if dev not in topo.devices:
                raise PolicyError(f"link references unknown device {dev!r}", file)
        data = _data_of(edge, keymap, ns)
        topo.links.append(Link(a, interface(a, data.get("if_a")),
                               b, interface(b, data.get("if_b"))))
    return topo


def load_declared_model(document: str,
                        file: str = "<declared-model>") -> ZoneConduitModel:
    """Parse a declared Zone-Conduit model: nodes are zones, edges conduits."""
    graph, keymap, ns = _read_graphml(document, file)

    model = ZoneConduitModel()
    for node in graph.findall(f"{ns}node"):
        name = node.get("id") or ""
        data = _data_of(node, keymap, ns)
        kind = data.get("kind", "regular")
        if kind not in ZONE_KINDS:
            raise PolicyError(f"zone {name!r} has unknown kind {kind!r}", file)
        model.zones[name] = Zone(name, kind, frozenset())
    for edge in graph.findall(f"{ns}edge"):
        a, b = edge.get("source") or "", edge.get("target") or ""
        for zone in (a, b):
            if zone not in model.zones:
                raise PolicyError(f"conduit references unknown zone {zone!r}", file)
        pair = tuple(sorted((a, b)))
        model.conduits[pair] = Conduit(pair, frozenset())
    return model


# ---------------------------------------------------------------------------
# model construction

def build_zone_firewall_model(topo: Topology) -> ZoneFirewallModel:
    """Group devices into disjoint zones and record firewall adjacencies."""
    model = ZoneFirewallModel()
    firewalls = [d for d in topo.devices.values() if d.kind == "firewall"]
    # (peer device, local interface) pairs per device, in link order
    peers: dict[str, list[tuple[str, str]]] = {}
    for link in topo.links:
        peers.setdefault(link.dev_a, []).append((link.dev_b, link.if_a))
        if link.dev_b != link.dev_a:
            peers.setdefault(link.dev_b, []).append((link.dev_a, link.if_b))

    # regular zones from labels (hosts may inherit their subnet's label)
    zone_members: dict[str, list[Device]] = {}
    labelled: dict[str, str] = {}
    for dev in topo.devices.values():
        if dev.kind in ("subnet", "host", "carrier") and dev.zone_label:
            zone_members.setdefault(dev.zone_label, []).append(dev)
            labelled[dev.name] = dev.zone_label
    for dev in topo.devices.values():
        if dev.kind == "host" and not dev.zone_label:
            subnet_labels = {
                labelled[peer]
                for peer, _ in peers.get(dev.name, ())
                if peer in labelled and topo.devices[peer].kind == "subnet"
            }
            if len(subnet_labels) != 1:
                raise PolicyError(
                    f"host {dev.name!r} has neither a zone label nor exactly one "
                    f"labelled subnet", topo.file)
            label = subnet_labels.pop()
            zone_members[label].append(dev)
            labelled[dev.name] = label

    for label in sorted(zone_members):
        members = zone_members[label]
        kind = "carrier" if any(d.kind == "carrier" for d in members) else "regular"
        cidrs = tuple(sorted((c for d in members for c in d.cidrs),
                             key=lambda n: (int(n.network_address), n.prefixlen)))
        model.zones[label] = Zone(label, kind, frozenset(d.name for d in members), cidrs)

    # unlabeled carrier nodes become their own Carrier-Zones
    carrier_n = 0
    for dev in topo.devices.values():
        if dev.kind == "carrier" and not dev.zone_label:
            carrier_n += 1
            name = f"cz{carrier_n}"
            _check_fresh(model, name, dev.name, topo.file)
            model.zones[name] = Zone(name, "carrier", frozenset({dev.name}), dev.cidrs)
            labelled[dev.name] = name

    # one Firewall-Zone per firewall, numbered in document order
    for i, fw in enumerate(firewalls, start=1):
        name = f"fwz{i}"
        _check_fresh(model, name, fw.name, topo.file)
        model.zones[name] = Zone(name, "firewall", frozenset({fw.name}), fw.cidrs)
        labelled[fw.name] = name

    # unlabeled subnets between serial firewalls become Abstract-Zones
    abstract_n = 0
    for dev in topo.devices.values():
        if dev.kind != "subnet" or dev.zone_label:
            continue
        adjacent_fws = {peer for peer, _ in peers.get(dev.name, ())
                        if topo.devices[peer].kind == "firewall"}
        if len(adjacent_fws) < 2:
            raise PolicyError(
                f"subnet {dev.name!r} has no zone label and does not lie between "
                f"two firewalls; cannot classify", topo.file)
        abstract_n += 1
        name = f"az{abstract_n}"
        _check_fresh(model, name, dev.name, topo.file)
        model.zones[name] = Zone(name, "abstract", frozenset({dev.name}), dev.cidrs)
        labelled[dev.name] = name

    _check_zone_disjointness(model.zones.values(), topo.file)

    # firewall adjacencies: which interface faces which zone
    for fw in firewalls:
        links = peers.get(fw.name, ())
        if not links:
            model.warnings.append(f"firewall {fw.name!r} has no links; it realizes no conduits")
        adjacency: dict[str, str] = {}
        for peer, iface in sorted(links, key=lambda p: (p[1], p[0])):
            zone = labelled.get(peer)
            if zone is None:
                raise PolicyError(f"device {peer!r} linked to firewall {fw.name!r} "
                                  f"belongs to no zone", topo.file)
            adjacency.setdefault(zone, iface)
        model.adjacency[fw.name] = adjacency
    return model


def _check_fresh(model: ZoneFirewallModel, name: str, device: str, file: str) -> None:
    if name in model.zones:
        raise PolicyError(
            f"zone label {name!r} collides with the generated zone for {device!r}", file)


def _check_zone_disjointness(zones: Iterable[Zone], file: str) -> None:
    """Raise unless no device and no address lies in two zones.

    Members go into one member -> zone map; a member already in it names
    the two zones.  CIDRs are swept once, sorted by first address, keeping
    the one that reaches highest so far; a CIDR of another zone that starts
    at or below its last address overlaps it.  That finds a conflict
    whenever there is one: at the first CIDR that overlaps an earlier CIDR
    of another zone, the highest-reaching CIDR covers its start, and it
    cannot be of the same zone without overlapping that earlier CIDR, an
    earlier conflict.  Of several conflicts, the first that a zone's
    sorted members or the sweep meets is named.
    """
    zones = list(zones)
    owner: dict[str, Zone] = {}
    for zone in zones:
        for member in sorted(zone.members):
            other = owner.setdefault(member, zone)
            if other is not zone:
                raise PolicyError(f"device in both zones {zone.name!r} and {other.name!r}",
                                  file)

    spans = sorted(((int(net.network_address), int(net.broadcast_address), i, net)
                    for i, zone in enumerate(zones) for net in zone.cidrs),
                   key=itemgetter(0, 1, 2))
    top: tuple | None = None  # (last address, zone position, CIDR) reaching highest
    for first, last, i, net in spans:
        if top is not None and top[1] != i and first <= top[0]:
            raise PolicyError(f"zone CIDRs overlap: {net} ({zones[i].name}) and "
                              f"{top[2]} ({zones[top[1]].name})", file)
        if top is None or last > top[0]:
            top = (last, i, net)


def derive_zone_conduit(zf: ZoneFirewallModel) -> ZoneConduitModel:
    """Define conduits on the Zone-Firewall model.

    Two zones adjacent through a single firewall share a conduit realized
    by every such firewall; each Firewall-Zone gets a conduit to each zone
    its firewall touches.
    """
    model = ZoneConduitModel(zones=dict(zf.zones), warnings=list(zf.warnings))
    model.firewall_interfaces = {fw: dict(adj) for fw, adj in zf.adjacency.items()}

    realizers: dict[tuple[str, str], set[str]] = {}
    fw_zones = firewall_zones(model)
    for fw, adjacency in zf.adjacency.items():
        fwz = fw_zones[fw]
        adjacent = sorted(adjacency)
        for i, a in enumerate(adjacent):
            realizers.setdefault((fwz, a) if fwz < a else (a, fwz), set()).add(fw)
            for b in adjacent[i + 1:]:  # a < b: adjacent is sorted
                realizers.setdefault((a, b), set()).add(fw)

    for pair in sorted(realizers):
        model.conduits[pair] = Conduit(pair, frozenset(realizers[pair]))
    return model


# ---------------------------------------------------------------------------
# cross-check and export

class ModelMismatch(NamedTuple):
    missing_zones: tuple[str, ...]
    extra_zones: tuple[str, ...]
    missing_conduits: tuple[tuple[str, str], ...]
    extra_conduits: tuple[tuple[str, str], ...]

    def __str__(self) -> str:
        parts = []
        if self.missing_zones:
            parts.append("zones missing from the declared model: "
                         + ", ".join(self.missing_zones))
        if self.extra_zones:
            parts.append("declared zones not derived from the topology: "
                         + ", ".join(self.extra_zones))
        if self.missing_conduits:
            parts.append("conduits missing from the declared model: "
                         + ", ".join(f"{a}-{b}" for a, b in self.missing_conduits))
        if self.extra_conduits:
            parts.append("declared conduits not derived from the topology: "
                         + ", ".join(f"{a}-{b}" for a, b in self.extra_conduits))
        return "; ".join(parts)


def crosscheck_model(derived: ZoneConduitModel,
                     declared: ZoneConduitModel) -> ModelMismatch | None:
    """None when zone and conduit sets agree; otherwise the differences."""
    derived_zones = set(derived.zones)
    declared_zones = set(declared.zones)
    derived_conduits = set(derived.conduits)
    declared_conduits = set(declared.conduits)
    if derived_zones == declared_zones and derived_conduits == declared_conduits:
        return None
    return ModelMismatch(
        missing_zones=tuple(sorted(derived_zones - declared_zones)),
        extra_zones=tuple(sorted(declared_zones - derived_zones)),
        missing_conduits=tuple(sorted(derived_conduits - declared_conduits)),
        extra_conduits=tuple(sorted(declared_conduits - derived_conduits)),
    )


_DOT_SHAPES = {"regular": "ellipse", "firewall": "box", "abstract": "diamond",
               "carrier": "hexagon"}


def export_graph(model: ZoneConduitModel, flavor: str) -> str:
    """Deterministic DOT rendering of the model.

    ``zone_conduit`` shows zones and conduits; ``zone_firewall`` shows
    non-firewall zones connected to the firewall boxes that face them, as
    the firewalls' interfaces record.
    """
    if flavor not in ("zone_firewall", "zone_conduit"):
        raise ValueError(f"unknown graph flavor {flavor!r}")
    lines = [f"graph {flavor} {{"]
    if flavor == "zone_conduit":
        for name in sorted(model.zones):
            zone = model.zones[name]
            lines.append(f'  "{name}" [kind="{zone.kind}" shape="{_DOT_SHAPES[zone.kind]}"];')
        for (a, b) in sorted(model.conduits):
            fws = ",".join(sorted(model.conduits[(a, b)].firewalls))
            label = f' [label="{fws}"]' if fws else ""
            lines.append(f'  "{a}" -- "{b}"{label};')
    else:
        edges = []
        for name in sorted(model.zones):
            zone = model.zones[name]
            if zone.kind == "firewall":
                fw = next(iter(zone.members))
                lines.append(f'  "{fw}" [kind="firewall" shape="box"];')
                edges += [(fw, peer) for peer in model.firewall_interfaces.get(fw, ())
                          if model.zones[peer].kind != "firewall"]
            else:
                lines.append(f'  "{name}" [kind="{zone.kind}" shape="{_DOT_SHAPES[zone.kind]}"];')
        for fw, peer in sorted(edges):
            lines.append(f'  "{fw}" -- "{peer}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
