"""Executable semantics of packet-filter rules.

A :class:`Packet` is one point of the header space, connection state
included; the simulator injects it and the ACL engine evaluates it.  It
stands for the whole class of packets sharing its header values; rules
decide accept/deny per class, so evaluating one point per class is exact.
:class:`MatchTable` is the one ACL engine: it encodes each compiled rule
once as a row, with the ICMP type of protocol 1 on the same value axis
as the dport, and evaluates the ACL first-match over header points and
swept values.  Regions have one form, the canonical strips of
:mod:`forestfw.canonical` (per protocol, value x sport); the ACL anomaly
check walks a table's rows over those strips.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from forestfw import intervals
from forestfw.intervals import IntervalSet

if TYPE_CHECKING:  # netgen imports the checker, which imports this module
    from ipaddress import IPv4Network

    from forestfw.netgen import AclRule

ADDR_MAX = (1 << 32) - 1
FULL_ICMP: IntervalSet = ((0, 255),)

NEW = "NEW"
ESTABLISHED = "ESTABLISHED"
STATES = (NEW, ESTABLISHED)


@dataclass(frozen=True)
class Packet:
    """One point in packet-header space; ``state`` names the connection state."""

    src_addr: int = 0
    dst_addr: int = 0
    protocol: int = 6
    sport: int = 0
    dport: int = 0
    icmp_type: int = 0  # read only when protocol == 1
    state: str = NEW


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

    The table answers header points (:meth:`decide`) and one swept
    dimension (:meth:`permitted`) from the same ``rows``, one per rule in
    ACL order; the ACL anomaly check reads the rows directly.
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


def rule_matches_packet(rule: "AclRule", packet: Packet) -> bool:
    return next(MatchTable((rule,)).matching(packet), None) is not None


def eval_acl(rules: tuple["AclRule", ...], packet: Packet) -> tuple[str, str]:
    """First-match decision plus a description of the deciding rule."""
    return MatchTable(rules).decide(packet)

