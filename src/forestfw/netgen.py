"""Compilation of the expanded policy onto a topology.

Every flow is installed on every conduit of every valid path between its
zones (defence in depth), translated into vendor-neutral ACL rules by
substituting zone CIDRs, and supplemented with the return-path and
multicast rules stateful protocols and OSPF need.  Per firewall, rules
group into ACLs bound inbound on the interface where the traffic enters;
a firewall's own management traffic lands on its local input/output
filtering stage instead of a forwarding interface.  Every ACL ends in the
terminal deny-all and every generated ACL is bound to an interface.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

from forestfw.canonical import check_best_practice
from forestfw.checker import find_rule_overlaps
from forestfw.diagnostics import CompileError, Diagnostic, PolicyError, has_errors
from forestfw.header_space import ESTABLISHED, NEW
from forestfw.policy_lang.expand import expand_rules
from forestfw.policy_lang.parser import block_names
from forestfw.policy_lang.syntax import (
    FlowRule,
    PolicySpec,
    PortRange,
    service_plane,
)
from forestfw.policy_lang.validate import validate_spec
from forestfw.topo_model import (
    LOCAL_INTERFACE,
    Topology,
    ZoneConduitModel,
    build_zone_firewall_model,
    crosscheck_model,
    derive_zone_conduit,
    firewall_zones,
)

ANY_NET = ipaddress.IPv4Network("0.0.0.0/0")
OSPF_PROTOCOL = 89
OSPF_NEIGHBOUR_NETS = (ipaddress.IPv4Network("224.0.0.5/32"),
                       ipaddress.IPv4Network("224.0.0.6/32"))


class AclRule(NamedTuple):
    """A vendor-neutral five-tuple-plus-state rule.

    ``protocol`` None is the ``ip`` wildcard; the compiler emits it only
    on the terminal deny.  For ICMP rules the dport ranges carry the permitted
    ICMP types (empty = any); the simulator and renderers share that
    encoding.  Rules compare and hash by their first nine fields, ``action``
    to ``comment``; the four provenance fields after them do not count.
    """

    action: str  # "permit" | "deny"
    protocol: int | None
    src: tuple[ipaddress.IPv4Network, ...]
    dst: tuple[ipaddress.IPv4Network, ...]
    sport: tuple[PortRange, ...] = ()
    dport: tuple[PortRange, ...] = ()
    state: tuple[str, ...] = ()
    log: bool = False
    comment: str = ""
    origin_rule: str = ""
    origin_service: str = ""
    service_comment: str = ""
    flow_dir: str = "forward"  # forward | return | aux

    def __eq__(self, other: object) -> bool:
        if type(other) is not AclRule:
            return NotImplemented
        return self[:9] == other[:9]

    def __ne__(self, other: object) -> bool:
        # needed: tuple's own != would compare all thirteen fields
        if type(other) is not AclRule:
            return NotImplemented
        return self[:9] != other[:9]

    def __hash__(self) -> int:
        return hash(self[:9])

    def match_key(self) -> tuple:
        """``action`` to ``log``: the fields that decide what the rule matches."""
        return self[:8]


TERMINAL_DENY = AclRule(action="deny", protocol=None, src=(ANY_NET,), dst=(ANY_NET,))


class Acl(NamedTuple):
    name: str
    rules: tuple[AclRule, ...]


class InterfaceAssignment(NamedTuple):
    firewall: str
    interface: str
    direction: str  # "inbound" | "outbound"
    acl: str


@dataclass
class CompileOptions:
    """What ``compile`` adds to the policy: OSPF permits, a best-practice
    bound to check against and a declared model to cross-check."""

    ospf: bool = False
    best_practice: PolicySpec | None = None
    declared_model: ZoneConduitModel | None = None


@dataclass
class NetworkPolicy:
    """The compiled result: the model, flows, ACLs and their bindings."""

    model: ZoneConduitModel
    flows: tuple[FlowRule, ...]
    acls: dict[str, tuple[Acl, ...]]  # per firewall
    assignments: tuple[InterfaceAssignment, ...]
    options: CompileOptions
    spec: PolicySpec
    # verification reporting also logs terminal denies; the neutral format
    # renders the deny in its fixed form, so the flag lives here and the
    # device templates consume it
    log_denies: bool = False

    def acl_by_name(self, firewall: str, name: str) -> Acl:
        for acl in self.acls[firewall]:
            if acl.name == name:
                return acl
        raise KeyError(f"{firewall} has no ACL {name!r}")

    def firewalls(self) -> list[str]:
        return sorted(self.acls)


# ---------------------------------------------------------------------------
# path selection

class PathIndex:
    """A topology-derived model in the form the path search walks.

    ``bits`` gives each zone one bit, in name order, and ``firewall_bits``
    ORs the bits of the Firewall-Zones.  ``neighbours`` lists, per zone and
    in name order, ``(neighbour, bit, masks)`` for each conduit hop:
    ``masks`` holds one crossing set per firewall that realizes the hop, a
    bit mask over ``(firewall, interface)`` crossings; a firewall that
    would enter and leave by the same interface realizes nothing, and a
    hop no firewall realizes is left out.  ``hop_keys`` maps every
    directed hop to the :func:`hop_acls` of its crossings.

    ``compile_policy`` builds one per compile and ``SimNetwork`` one per
    network; :func:`enumerate_paths` builds a throwaway one when called
    without.  None is kept beyond the compile or network that built it.
    """

    __slots__ = ("model", "bits", "firewall_bits", "neighbours", "hop_keys")

    def __init__(self, model: ZoneConduitModel) -> None:
        # a model without conduits has no paths; one with conduits but no
        # firewall interfaces was declared, not derived, and cannot be walked
        if model.conduits and not model.firewall_interfaces:
            raise ValueError("path enumeration needs a topology-derived model")
        self.model = model
        self.bits = {name: 1 << i for i, name in enumerate(sorted(model.zones))}
        self.firewall_bits = 0
        for name, zone in model.zones.items():
            if zone.kind == "firewall":
                self.firewall_bits |= self.bits[name]
        self.neighbours: dict[str, list[tuple[str, int, tuple[int, ...]]]] = {
            name: [] for name in model.zones}
        self.hop_keys: dict[tuple[str, str], tuple[tuple[str, str, str], ...]] = {}
        fw_zones = firewall_zones(model)
        crossing_bits: dict[tuple[str, str], int] = {}

        def bit(crossing: tuple[str, str]) -> int:
            return 1 << crossing_bits.setdefault(crossing, len(crossing_bits))

        for a, b in model.conduits:
            crossings = hop_crossings(model, a, b, fw_zones)
            self.hop_keys[a, b] = hop_acls(crossings)
            # hop b -> a crosses each firewall as a -> b does, the other way round
            self.hop_keys[b, a] = hop_acls([(fw, exit_, entry)
                                            for fw, entry, exit_ in crossings])
            masks = tuple(bit((fw, entry)) | bit((fw, exit_))
                          for fw, entry, exit_ in crossings if entry != exit_)
            if masks:
                self.neighbours[a].append((b, self.bits[b], masks))
                self.neighbours[b].append((a, self.bits[a], masks))
        for peers in self.neighbours.values():
            peers.sort(key=itemgetter(0))


def enumerate_paths(model: ZoneConduitModel, src: str, dst: str,
                    established: bool = False, *,
                    index: PathIndex | None = None) -> list[list[str]]:
    """All practical zone paths from src to dst, lexicographically ordered.

    Excluded paths: any with a Firewall-Zone as interior node (firewalls
    do not forward their own zone's traffic onward), any whose realization
    would cross some firewall interface twice (loops around firewalls),
    and, for new traffic originating at a Firewall-Zone, any destination
    not directly adjacent to that firewall.  Return traffic of an
    established connection retraces a forward path backwards, so
    ``established`` lifts the origination restriction.

    The depth-first search walks ``index``, the model's :class:`PathIndex`
    (a throwaway one when None), visiting neighbours in name order, so
    paths come out in lexicographic order.  An int holds the bits of the
    zones a branch may not enter: those on the path and every
    Firewall-Zone but ``dst``.  Each branch carries its open realizations:
    the crossing sets, one per choice of realizing firewall on every hop
    so far, that cross no interface twice.  A branch is pruned at the
    first hop that leaves no realization open; crossings only accumulate,
    so nothing it could still reach would be valid.  The cost follows the
    number of valid paths, not the number of simple zone paths.
    ``compile_policy`` enumerates each zone pair once; the simulator turns
    the paths into routes, each hop's ACLs from the index's ``hop_keys``,
    and caches them per network (``SimNetwork.routes``).
    """
    if src == dst:
        raise ValueError("path endpoints must differ")
    if index is None:
        index = PathIndex(model)
    elif index.model is not model:
        raise ValueError("the path index belongs to another model")
    for zone in (src, dst):
        if zone not in model.zones:
            raise PolicyError(f"unknown zone {zone!r} in path query")

    if not established and model.zones[src].kind == "firewall":
        firewall = next(iter(model.zones[src].members))
        if dst not in model.firewall_interfaces.get(firewall, {}):
            return []

    neighbours = index.neighbours
    dst_bit = index.bits[dst]
    paths: list[list[str]] = []
    path = [src]

    def dfs(current: str, blocked: int, realizations: list[int]) -> None:
        for nxt, nxt_bit, masks in neighbours[current]:
            if nxt_bit & blocked:
                continue
            extended = []
            for crossed in masks:
                for realized in realizations:
                    if not realized & crossed:
                        extended.append(realized | crossed)
            if not extended:
                continue  # every realization would reuse an interface
            if nxt_bit == dst_bit:
                paths.append(path + [nxt])
                continue
            path.append(nxt)
            dfs(nxt, blocked | nxt_bit, extended)
            path.pop()

    # a Firewall-Zone can end a path but never be transited
    dfs(src, index.bits[src] | (index.firewall_bits & ~dst_bit), [0])
    return paths


def hop_crossings(model: ZoneConduitModel, x: str, y: str,
                  fw_zones: Mapping[str, str]) -> list[tuple[str, str, str]]:
    """``(firewall, entry, exit)`` per firewall realizing hop x -> y, in
    name order: the interfaces the packet enters and leaves it by, its
    local stage for the firewall's own zone (``fw_zones`` maps each
    firewall to that zone)."""
    faces = model.firewall_interfaces
    return [(fw, LOCAL_INTERFACE if x == fw_zones[fw] else faces[fw][x],
             LOCAL_INTERFACE if y == fw_zones[fw] else faces[fw][y])
            for fw in sorted(model.conduit_between(x, y).firewalls)]


def hop_acls(crossings: Iterable[tuple[str, str, str]]) -> tuple[tuple[str, str, str], ...]:
    """The ACLs ``(firewall, interface, direction)`` that filter a hop, one
    per :func:`hop_crossings` entry of it, in its order.

    Traffic a firewall originates is filtered on its local stage outbound,
    traffic addressed to it on its local stage inbound, and transit traffic
    inbound on the interface it enters by.
    """
    return tuple((fw, LOCAL_INTERFACE, "outbound") if entry == LOCAL_INTERFACE
                 else (fw, exit_ if exit_ == LOCAL_INTERFACE else entry, "inbound")
                 for fw, entry, exit_ in crossings)


def acl_names(model: ZoneConduitModel) -> dict[tuple[str, str, str], str]:
    """The name of every ACL compiled for ``model``, by the key
    ``(firewall, interface, direction)`` it is bound at: per firewall with
    interfaces, one inbound per interface and the local stage inbound and
    outbound, named ``acl_1``, ``acl_2``, ... in key order.  Every key
    :func:`hop_acls` names for a hop of ``model`` is one of these, as a
    firewall realizing a hop faces both its zones; so compile and the
    simulator both take the bindings from here, and none is recorded."""
    names = {}
    for firewall, faces in sorted(model.firewall_interfaces.items()):
        if not faces:
            continue  # disconnected firewall: no conduits, no ACLs
        keys = [(firewall, iface, "inbound") for iface in set(faces.values())]
        keys += [(firewall, LOCAL_INTERFACE, "inbound"), (firewall, LOCAL_INTERFACE, "outbound")]
        names.update((key, f"acl_{i}") for i, key in enumerate(sorted(keys), start=1))
    return names


# ---------------------------------------------------------------------------
# rule translation

def translate_rule(flow: FlowRule,
                   zone_cidrs: Mapping[str, Sequence[ipaddress.IPv4Network]],
                   log: bool = False, comment: str = "") -> list[AclRule]:
    """One permit per (src CIDR, dst CIDR) pair of the flow's zones, in the
    order ``zone_cidrs`` lists them (compile sorts them by address, then
    prefix length)."""
    src_cidrs = tuple(zone_cidrs.get(flow.src_zone, ()))
    dst_cidrs = tuple(zone_cidrs.get(flow.dst_zone, ()))
    if not src_cidrs:
        raise PolicyError(f"zone {flow.src_zone!r} has no addresses")
    if not dst_cidrs:
        raise PolicyError(f"zone {flow.dst_zone!r} has no addresses")
    svc = flow.service
    if svc.protocol is None:
        raise PolicyError(f"service {svc.name!r} has no concrete protocol")
    values, sports = service_plane(svc)
    if svc.protocol in (6, 17):
        sport, dport = sports, values
    elif svc.protocol == 1:
        sport, dport = (), values if svc.icmp_types else ()  # empty = any type
    else:
        sport = dport = ()
    rules = []
    for src in src_cidrs:
        for dst in dst_cidrs:
            rules.append(AclRule(
                action="permit", protocol=svc.protocol, src=(src,), dst=(dst,),
                sport=sport, dport=dport, log=log, comment=comment,
                origin_rule=flow.rule_name, origin_service=svc.name,
                service_comment=svc.comment,
            ))
    return rules


def _net_key(net: ipaddress.IPv4Network) -> tuple[int, int]:
    return (int(net.network_address), net.prefixlen)


def _mirror(rule: AclRule, comment: str) -> AclRule:
    return AclRule(
        action="permit", protocol=rule.protocol,
        src=rule.dst, dst=rule.src, sport=rule.dport, dport=rule.sport,
        state=(ESTABLISHED,) if rule.protocol == 6 else (),
        log=rule.log, comment=comment,
        origin_rule=rule.origin_rule, origin_service=rule.origin_service,
        service_comment=rule.service_comment,
        flow_dir="return",
    )


def ospf_supplementary_rules() -> list[AclRule]:
    """Multicast permits that let OSPF neighbour relationships form."""
    return [
        AclRule(action="permit", protocol=OSPF_PROTOCOL, src=(ANY_NET,), dst=(net,),
                comment="enable OSPF neighbour relationships", flow_dir="aux")
        for net in OSPF_NEIGHBOUR_NETS
    ]


def add_supplementary_rules(rules: Sequence[AclRule], flow: FlowRule) -> list[AclRule]:
    """Attach connection state and synthesize return-path rules.

    TCP forwards become stateful (NEW,ESTABLISHED) with a mirrored
    ESTABLISHED-only return; UDP gets a stateless mirror.  ICMP gets no
    synthetic return: echo replies must be enabled explicitly.
    """
    protocol = flow.service.protocol
    out: list[AclRule] = []
    returns: list[AclRule] = []
    for rule in rules:
        return_comment = rule.comment.replace("(forward path)", "(return path)")
        if protocol == 6:
            forward = AclRule(
                action=rule.action, protocol=rule.protocol, src=rule.src, dst=rule.dst,
                sport=rule.sport, dport=rule.dport,
                state=(NEW, ESTABLISHED),
                log=rule.log, comment=rule.comment,
                origin_rule=rule.origin_rule, origin_service=rule.origin_service,
                service_comment=rule.service_comment,
            )
            out.append(forward)
            returns.append(_mirror(forward, return_comment))
        elif protocol == 17:
            out.append(rule)
            returns.append(_mirror(rule, return_comment))
        else:
            out.append(rule)
    out.extend(returns)
    return out


# ---------------------------------------------------------------------------
# compilation

def _logged_rule_groups(spec: PolicySpec) -> frozenset[str]:
    """Rule groups whose permits get log flags, per verification reporting."""
    if spec.global_policy is None:
        return frozenset()
    reporting = spec.reporting_rules.get(spec.global_policy.reporting_rule)
    if reporting is None or reporting.use_case != "verification":
        return frozenset()
    named: set[str] = set()
    for key, value in reporting.attrs:
        if key == "granularity.policy":
            named.update(block_names(value, "rule_or_group"))
    return frozenset(named)


def _service_display(spec: PolicySpec, flow: FlowRule) -> str:
    rule = spec.rules.get(flow.rule_name)
    if rule is not None and not rule.service_expr.rest:  # a single name
        return rule.service_expr.first.rsplit(".", 1)[-1].upper()
    if rule is not None:
        return rule.service_expr.to_source().upper()
    return flow.service.display_name.upper()


def _flow_comment(spec: PolicySpec, flow: FlowRule) -> str:
    src = flow.src_ref or flow.src_zone
    dst = flow.dst_ref or flow.dst_zone
    return f"enable {src} to {dst} {_service_display(spec, flow)} traffic (forward path)"


def verify_policy(spec: PolicySpec, topo: Topology, options: CompileOptions
                  ) -> tuple[ZoneConduitModel | None, list[FlowRule] | None, list[Diagnostic]]:
    """The verification gate ``check`` and ``compile`` share: validation,
    the declared-model crosscheck and zone presence, each ending the gate
    on an error, then rule overlaps and best-practice bounds.

    Returns the derived model (None after a validation error), the flows
    (None unless the overlap stage ran) and the diagnostics in order.
    """
    diags: list[Diagnostic] = list(validate_spec(spec))
    if has_errors(diags):
        return None, None, diags

    def error(message: str) -> None:
        diags.append(Diagnostic("error", message, spec.file))

    model = derive_zone_conduit(build_zone_firewall_model(topo))
    diags.extend(Diagnostic("warning", warning, topo.file) for warning in model.warnings)
    if options.declared_model is not None:
        mismatch = crosscheck_model(model, options.declared_model)
        if mismatch is not None:
            error(f"security model mismatch: {mismatch}")
            return model, None, diags

    flows = expand_rules(spec)
    for flow in flows:
        for zone in (flow.src_zone, flow.dst_zone):
            if zone not in model.zones:
                error(f"rule {flow.rule_name!r} references zone {zone!r} "
                      f"not present in the derived model")
    if has_errors(diags):
        return model, None, diags

    # an overlap stands at its first rule's declaration; a best-practice
    # violation names a conduit, not a rule, and stays at the file
    for report in find_rule_overlaps(flows):
        diags.append(Diagnostic("error", str(report), *spec.position_of(report.rule_a)))
    if options.best_practice is not None:
        for violation in check_best_practice(flows, model.zones, options.best_practice):
            error(str(violation))
    return model, flows, diags


def compile_policy(spec: PolicySpec, topo: Topology,
                   options: CompileOptions | None = None) -> NetworkPolicy:
    """Compile a validated policy against a topology into ACLs.

    The verification gate (:func:`verify_policy`) and a flow with no
    valid path abort compilation with the aggregated diagnostics.
    """
    options = options or CompileOptions()
    model, flows, diags = verify_policy(spec, topo, options)
    if has_errors(diags):
        raise CompileError(diags)

    # each zone network's _net_key, computed once: the model holds the
    # networks, and so their ids, for the compile
    net_keys = {id(net): _net_key(net) for zone in model.zones.values() for net in zone.cidrs}
    zone_cidrs = {name: sorted(zone.cidrs, key=lambda net: net_keys[id(net)])
                  for name, zone in model.zones.items()}
    logged_groups = _logged_rule_groups(spec)
    logged_rules: set[str] = set()
    for group in logged_groups:
        logged_rules.update(spec.rule_groups.get(group, ()))
        if group in spec.rules:
            logged_rules.add(group)
    verification_logging = bool(logged_rules)

    index = PathIndex(model)
    # per zone pair, the (forward, return) ACL keys of every distinct hop of
    # its paths: a flow installs the same rules on a hop whichever path
    # crosses it, so visiting a hop again would only add duplicates
    # ``_assemble`` drops
    targets_cache: dict[tuple[str, str], list[tuple[tuple, tuple]]] = {}
    names = acl_names(model)
    # each ACL's rules as ``_keyed`` entries: a rule installed on several
    # ACLs is keyed once; every key a hop names is among ``names``
    buckets: dict[tuple[str, str, str], list[_Keyed]] = {key: [] for key in names}

    for flow in flows:
        pair = (flow.src_zone, flow.dst_zone)
        if pair not in targets_cache:
            paths = enumerate_paths(model, *pair, index=index)
            hops = dict.fromkeys(hop for path in paths for hop in zip(path, path[1:]))
            targets_cache[pair] = [keys for x, y in hops
                                   for keys in zip(index.hop_keys[x, y], index.hop_keys[y, x])]
        targets = targets_cache[pair]
        if not targets:
            diags.append(Diagnostic(
                "error", f"no valid path for flow {flow.rule_name!r}: "
                         f"{flow.src_zone} -> {flow.dst_zone} ({flow.service.name})",
                spec.file))
            continue

        log = flow.rule_name in logged_rules
        translated = translate_rule(flow, zone_cidrs, log=log,
                                    comment=_flow_comment(spec, flow))
        supplemented = add_supplementary_rules(translated, flow)
        forward = [_keyed(r, net_keys) for r in supplemented if r.flow_dir == "forward"]
        returns = [_keyed(r, net_keys) for r in supplemented if r.flow_dir == "return"]

        for forward_key, return_key in targets:
            buckets[forward_key].extend(forward)
            buckets[return_key].extend(returns)
    if has_errors(diags):
        raise CompileError(diags)

    ospf_rules = ospf_supplementary_rules() if options.ospf else []

    acls: dict[str, list[Acl]] = {}
    assignments: list[InterfaceAssignment] = []
    # one Acl per name, OSPF flag and bucket entries (the same objects in
    # the same order), shared by the firewalls whose buckets are equal, as
    # serial firewalls' are; keyed by the entries' ids, which the buckets
    # hold for the compile
    shared: dict[tuple, Acl] = {}
    for (firewall, iface, direction), name in names.items():
        entries = buckets[firewall, iface, direction]
        ospf = bool(ospf_rules) and iface != LOCAL_INTERFACE
        key = (name, ospf, *map(id, entries))
        acl = shared.get(key)
        if acl is None:
            rules = _assemble(entries)
            if ospf:
                rules.extend(ospf_rules)
            rules.append(TERMINAL_DENY)
            acl = shared[key] = Acl(name, tuple(rules))
        acls.setdefault(firewall, []).append(acl)
        assignments.append(InterfaceAssignment(firewall, iface, direction, name))

    return NetworkPolicy(
        model=model,
        flows=tuple(flows),
        acls={fw: tuple(acl_list) for fw, acl_list in acls.items()},
        assignments=tuple(assignments),
        options=options,
        spec=spec,
        log_denies=verification_logging,
    )


# (sort key, match key, rule)
_Keyed = tuple[tuple, tuple, AclRule]


def _keyed(rule: AclRule, net_keys: Mapping[int, tuple[int, int]]) -> _Keyed:
    """``(sort key, match key, rule)``: the order ``_assemble`` puts rules
    in, and their match effect with addresses as ``_net_key`` ints, which
    compare as the networks do and hash without building them again;
    ``net_keys`` holds each network's, by its id."""
    action, protocol, src, dst, sport, dport, state, log = rule.match_key()
    src = tuple([net_keys[id(n)] for n in src])
    dst = tuple([net_keys[id(n)] for n in dst])
    return ((rule.origin_rule, rule.origin_service, rule.flow_dir, src, dst,
             protocol if protocol is not None else 256, dport, sport, state),
            (action, protocol, src, dst, sport, dport, state, log),
            rule)


def _assemble(entries: Iterable[_Keyed]) -> list[AclRule]:
    """The rules of ``_keyed`` entries in deterministic order, duplicates
    (by match effect) dropped; the sort is stable, so of equal keys the
    first entry stays."""
    out: list[AclRule] = []
    seen: set = set()
    for _, key, rule in sorted(entries, key=itemgetter(0)):
        if key in seen:
            continue
        seen.add(key)
        out.append(rule)
    return out
