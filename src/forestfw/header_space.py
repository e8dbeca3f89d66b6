"""Executable semantics of packet-filter rules and their region algebra.

A :class:`Packet` is one point of the header space, connection state
included; the simulator injects it and the rule algebra evaluates it.  It
stands for the whole class of packets sharing its header values; rules
decide accept/deny per class, so evaluating one point per class is exact.
A :class:`Predicate` denotes a cross product of per-dimension range sets,
connection state included.  Three combination strategies are provided:
first match, last match, and the order-free whitelist model the rest of
the system is built on.  :func:`covered` decides whether a union of
regions covers another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from forestfw import intervals
from forestfw.intervals import Interval, IntervalSet
from forestfw.policy_lang.syntax import (
    Service,
    effective_dports,
    effective_icmp_types,
    effective_sports,
)

if TYPE_CHECKING:  # netgen imports the checker, which imports this module
    from ipaddress import IPv4Network

    from forestfw.netgen import AclRule

ACCEPT = "accept"
DENY = "deny"

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


# the dimensions of a Predicate, in the order box subtraction splits them
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

    def intersect(self, other: "Predicate") -> "Predicate | None":
        """Dimension-wise intersection; None when any dimension empties."""
        dims = {}
        for dim in _DIMS:
            shared = intervals.intersect(getattr(self, dim), getattr(other, dim))
            if not shared:
                return None
            dims[dim] = shared
        return Predicate(**dims)

    def dims(self) -> tuple[IntervalSet, ...]:
        """The range sets in ``_DIMS`` order."""
        return (self.protocol, self.src, self.dst, self.sport, self.dport,
                self.icmp, self.state)

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


@dataclass(frozen=True)
class MatchRule:
    action: str  # ACCEPT or DENY
    predicate: Predicate
    origin: str = ""


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


def eval_first_match(rules: Sequence[MatchRule], x: Packet) -> str:
    """Decision of the first matching rule; implicit deny-all otherwise."""
    for rule in rules:
        if matches(rule.predicate, x):
            return rule.action
    return DENY


def eval_last_match(rules: Sequence[MatchRule], x: Packet) -> str:
    """Decision of the last matching rule; implicit deny-all otherwise."""
    decision = DENY
    matched = False
    for rule in rules:
        if matches(rule.predicate, x):
            decision = rule.action
            matched = True
    return decision if matched else DENY


def eval_whitelist(rules: Iterable[MatchRule], x: Packet) -> str:
    """Order-free evaluation of an accept-only rule set.

    Raises ValueError on a deny rule: the whitelist model has no deny form,
    and silently accepting one would hide a contract violation.
    """
    decision = DENY
    for rule in rules:
        if rule.action != ACCEPT:
            raise ValueError(f"deny rule {rule.origin!r} in whitelist evaluation")
        if decision == DENY and matches(rule.predicate, x):
            decision = ACCEPT
    return decision


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


def rule_region(rule: "AclRule") -> Predicate:
    """The header-space region a compiled ACL rule matches.

    Follows the ``AclRule`` encoding: an empty field matches anything, an
    ICMP rule's ``dport`` carries its types, which go to the icmp dimension
    (``dport`` stays full), and ``state`` lists the connection states the
    rule admits.
    """
    dport, icmp = tuple(rule.dport) or FULL_PORT, FULL_ICMP
    if rule.protocol == 1:
        dport, icmp = FULL_PORT, tuple(rule.dport) or FULL_ICMP
    return Predicate(
        protocol=FULL_PROTO if rule.protocol is None else ((rule.protocol, rule.protocol),),
        src=address_intervals(rule.src) or FULL_ADDR,
        dst=address_intervals(rule.dst) or FULL_ADDR,
        sport=tuple(rule.sport) or FULL_PORT,
        dport=dport,
        icmp=icmp,
        state=tuple((STATE_BITS[s], STATE_BITS[s]) for s in rule.state) or FULL_STATE,
    )


# a simple box: one interval per dimension, in _DIMS order
_Box = tuple[Interval, ...]


def _boxes(region: Predicate) -> list[_Box]:
    boxes: list[_Box] = [()]
    for dim in region.dims():
        boxes = [box + (iv,) for box in boxes for iv in dim]
    return boxes


def _subtract_box(box: _Box, region: tuple[IntervalSet, ...]) -> list[_Box]:
    """Disjoint pieces of a simple box not covered by a region's range sets."""
    covered_part: list[IntervalSet] = []
    for iv, dim in zip(box, region):
        shared = intervals.intersect((iv,), dim)
        if not shared:
            return [box]
        covered_part.append(shared)

    pieces: list[_Box] = []
    prefixes: list[_Box] = [()]  # boxes over dims [0..d) restricted to the covered part
    for d, (iv, dim) in enumerate(zip(box, region)):
        outside = intervals.subtract((iv,), dim)
        for prefix in prefixes:
            for out_iv in outside:
                pieces.append(prefix + (out_iv,) + box[d + 1:])
        prefixes = [p + (c,) for p in prefixes for c in covered_part[d]]
    return pieces


def covered(region: Predicate, coverers: Iterable[Predicate]) -> bool:
    """Is ``region`` fully covered by the union of the ``coverers``?"""
    boxes = _boxes(region)
    for coverer in coverers:
        dims = coverer.dims()
        next_boxes: list[_Box] = []
        for box in boxes:
            next_boxes.extend(_subtract_box(box, dims))
        boxes = next_boxes
        if not boxes:
            return True
    return not boxes
