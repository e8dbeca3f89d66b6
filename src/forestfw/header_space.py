"""Executable semantics of packet-filter rules and their region algebra.

A :class:`Packet` is one point of the header space, connection state
included; the simulator injects it and the ACL engine evaluates it.  It
stands for the whole class of packets sharing its header values; rules
decide accept/deny per class, so evaluating one point per class is exact.
A :class:`Predicate` denotes a cross product of per-dimension range sets,
connection state included.  :class:`MatchTable` is the one ACL engine: it
encodes each compiled rule once as a row, evaluates the ACL first-match
over header points and swept values, and gives each rule's region.
Region subtraction lives in one place, the canonical strips of
:mod:`forestfw.canonical`; the ACL anomaly check walks a table's rows
over those strips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from forestfw import intervals
from forestfw.intervals import IntervalSet
from forestfw.policy_lang.syntax import (
    Service,
    effective_dports,
    effective_icmp_types,
    effective_sports,
)

if TYPE_CHECKING:  # netgen imports the checker, which imports this module
    from ipaddress import IPv4Network

    from forestfw.netgen import AclRule

ADDR_MAX = (1 << 32) - 1
FULL_ADDR: IntervalSet = ((0, ADDR_MAX),)
FULL_PORT: IntervalSet = ((0, 65535),)
FULL_PROTO: IntervalSet = ((0, 255),)
FULL_ICMP: IntervalSet = ((0, 255),)
FULL_STATE: IntervalSet = ((0, 1),)

NEW = "NEW"
ESTABLISHED = "ESTABLISHED"
# connection states as values of the state dimension, in value order
STATE_BITS = {NEW: 0, ESTABLISHED: 1}

# icmp_type is only meaningful when protocol == 1; elsewhere callers pin it
# to this sentinel so cross products stay well-defined.
ICMP_SENTINEL = 0


@dataclass(frozen=True)
class Packet:
    """One point in packet-header space; ``state`` names the connection state."""

    src_addr: int = 0
    dst_addr: int = 0
    protocol: int = 6
    sport: int = 0
    dport: int = 0
    icmp_type: int = ICMP_SENTINEL
    state: str = NEW


# the dimensions of a Predicate
_DIMS = ("protocol", "src", "dst", "sport", "dport", "icmp", "state")


@dataclass(frozen=True)
class Predicate:
    """A rectangle predicate: per-dimension sorted, disjoint range sets.

    Every dimension must be non-empty; an unconstrained dimension carries
    its full range.  ``state`` stays full unless set.
    """

    src: IntervalSet = FULL_ADDR
    dst: IntervalSet = FULL_ADDR
    protocol: IntervalSet = FULL_PROTO
    sport: IntervalSet = FULL_PORT
    dport: IntervalSet = FULL_PORT
    icmp: IntervalSet = FULL_ICMP
    state: IntervalSet = FULL_STATE

    def __post_init__(self) -> None:
        for dim in _DIMS:
            ranges = intervals.normalize(getattr(self, dim))
            if not ranges:
                raise ValueError(f"predicate dimension {dim!r} is empty")
            object.__setattr__(self, dim, ranges)

    def sample_point(self) -> Packet:
        """Lowest corner of the predicate; always matches it."""
        return Packet(
            src_addr=intervals.sample(self.src),
            dst_addr=intervals.sample(self.dst),
            protocol=intervals.sample(self.protocol),
            sport=intervals.sample(self.sport),
            dport=intervals.sample(self.dport),
            icmp_type=intervals.sample(self.icmp),
            state=list(STATE_BITS)[intervals.sample(self.state)],
        )


def matches(p: Predicate, x: Packet) -> bool:
    """True iff every dimension of ``x`` lies in the corresponding set."""
    return (
        intervals.contains(p.protocol, x.protocol)
        and intervals.contains(p.sport, x.sport)
        and intervals.contains(p.dport, x.dport)
        and intervals.contains(p.icmp, x.icmp_type)
        and intervals.contains(p.src, x.src_addr)
        and intervals.contains(p.dst, x.dst_addr)
        and intervals.contains(p.state, STATE_BITS[x.state])
    )


def service_predicate(svc: Service) -> Predicate:
    """The header-space rectangle a service stands for (zones excluded).

    For non-ICMP protocols the icmp dimension is pinned to the sentinel;
    for non-TCP/UDP protocols the port dimensions are unconstrained.
    """
    if svc.protocol is None:
        raise ValueError(f"service {svc.name!r} has no concrete protocol")
    proto: IntervalSet = ((svc.protocol, svc.protocol),)
    if svc.protocol == 1:
        return Predicate(
            protocol=proto,
            icmp=tuple(effective_icmp_types(svc)),
        )
    if svc.protocol in (6, 17):
        return Predicate(
            protocol=proto,
            sport=tuple(effective_sports(svc)),
            dport=tuple(effective_dports(svc)),
            icmp=((ICMP_SENTINEL, ICMP_SENTINEL),),
        )
    return Predicate(protocol=proto, icmp=((ICMP_SENTINEL, ICMP_SENTINEL),))


def address_intervals(networks: Iterable["IPv4Network"]) -> IntervalSet:
    """The integer addresses of IPv4 networks, as a normalized interval set."""
    spans = []
    for net in networks:
        lo = int(net.network_address)
        spans.append((lo, lo + (1 << (32 - net.prefixlen)) - 1))
    return intervals.normalize(spans)


# ---------------------------------------------------------------------------
# the ACL engine: first-match evaluation of compiled rules

class _RuleMatch(NamedTuple):
    """One ACL rule's match fields as integer interval sets.

    ``None`` matches every value; an empty address set matches none.
    """

    index: int  # position in the ACL
    src: IntervalSet
    dst: IntervalSet
    sport: IntervalSet | None
    values: IntervalSet | None  # dport, or ICMP type for protocol 1


class MatchTable:
    """First-match lookup over one ACL, each rule encoded once.

    The table answers header points (:meth:`decide`), one swept dimension
    (:meth:`permitted`) and regions (:meth:`region`) from the same
    ``rows``, one per rule in ACL order.
    The rules that admit a (protocol, state) are listed on the first
    packet that carries it, so a lookup compares only addresses and ports.
    """

    def __init__(self, rules: tuple["AclRule", ...]) -> None:
        self.rules = rules
        # an ACL's rules share their zones and ports: encode each field once
        nets: dict[tuple, IntervalSet] = {}
        ports: dict[tuple, IntervalSet | None] = {}
        self.rows: list[_RuleMatch] = []
        for i, rule in enumerate(rules):
            for field_nets in (rule.src, rule.dst):
                if field_nets not in nets:
                    nets[field_nets] = address_intervals(field_nets)
            for field_ports in (rule.sport, rule.dport):
                if field_ports not in ports:
                    ports[field_ports] = intervals.normalize(field_ports) if field_ports else None
            self.rows.append(_RuleMatch(i, nets[rule.src], nets[rule.dst],
                                        ports[rule.sport], ports[rule.dport]))
        self._heads: dict[tuple[int, str], list[_RuleMatch]] = {}

    def _head(self, protocol: int, state: str) -> list[_RuleMatch]:
        head = self._heads.get((protocol, state))
        if head is None:
            head = self._heads[(protocol, state)] = [
                match for rule, match in zip(self.rules, self.rows)
                if (rule.protocol is None or rule.protocol == protocol)
                and (not rule.state or state in rule.state)]
        return head

    def matching(self, packet: Packet, sweep: bool = False) -> Iterator[_RuleMatch]:
        """The rules that match ``packet``, in ACL order.

        With ``sweep`` the dport (ICMP type) is not compared; each rule
        yielded matches the values in its ``values``.
        """
        protocol = packet.protocol
        ported = protocol in (6, 17)
        value = None
        if not sweep and (ported or protocol == 1):
            value = packet.icmp_type if protocol == 1 else packet.dport
        contains = intervals.contains
        for match in self._head(protocol, packet.state):
            if (contains(match.src, packet.src_addr)
                    and contains(match.dst, packet.dst_addr)
                    and (not ported or match.sport is None
                         or contains(match.sport, packet.sport))
                    and (value is None or match.values is None
                         or contains(match.values, value))):
                yield match

    def decide(self, packet: Packet) -> tuple[str, str]:
        """First-match decision plus a description of the deciding rule."""
        match = next(self.matching(packet), None)
        if match is None:
            return "deny", "implicit deny (no match)"
        rule = self.rules[match.index]
        label = rule.comment or rule.origin_service
        if not label:
            # the compiler's fixed any-to-any ip deny, or a rule without a remark
            from forestfw.netgen import TERMINAL_DENY  # netgen imports this module
            label = ("(terminal)" if rule.match_key() == TERMINAL_DENY.match_key()
                     else "(no remark)")
        return rule.action, f"[{match.index}] {rule.action} {label}"

    def permitted(self, point: Packet, universe: IntervalSet) -> IntervalSet:
        """The swept values (dport, or ICMP type) of ``universe`` the ACL permits.

        Every other header field is taken from ``point``.  The rules are
        walked once in first-match order: each matching rule decides the
        values no earlier rule decided.
        """
        permitted: IntervalSet = ()
        undecided = universe
        swept = point.protocol in (1, 6, 17)
        for match in self.matching(point, sweep=True):
            if swept and match.values is not None:
                decided = intervals.intersect(undecided, match.values)
            else:
                decided = undecided
            if not decided:
                continue
            if self.rules[match.index].action == "permit":
                permitted = intervals.union(permitted, decided)
            undecided = intervals.subtract(undecided, decided)
            if not undecided:
                break
        return permitted

    def region(self, i: int) -> Predicate:
        """The header-space region rule ``i`` matches, read from its row.

        A ``None`` field is full, an ICMP rule's values go to the icmp
        dimension (``dport`` stays full), and the rule's ``state`` lists
        the connection states it admits.
        """
        rule, row = self.rules[i], self.rows[i]
        dport, icmp = row.values or FULL_PORT, FULL_ICMP
        if rule.protocol == 1:
            dport, icmp = FULL_PORT, row.values or FULL_ICMP
        return Predicate(
            protocol=FULL_PROTO if rule.protocol is None else ((rule.protocol, rule.protocol),),
            src=row.src,
            dst=row.dst,
            sport=row.sport or FULL_PORT,
            dport=dport,
            icmp=icmp,
            state=tuple((STATE_BITS[s], STATE_BITS[s]) for s in rule.state) or FULL_STATE,
        )


def rule_matches_packet(rule: "AclRule", packet: Packet) -> bool:
    return next(MatchTable((rule,)).matching(packet), None) is not None


def eval_acl(rules: tuple["AclRule", ...], packet: Packet) -> tuple[str, str]:
    """First-match decision plus a description of the deciding rule."""
    return MatchTable(rules).decide(packet)


def rule_region(rule: "AclRule") -> Predicate:
    """The header-space region a compiled ACL rule matches."""
    return MatchTable((rule,)).region(0)
