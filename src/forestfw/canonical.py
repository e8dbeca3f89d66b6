"""Canonical policy form and the checks built on it.

A conduit-direction policy (a set of permitted services) maps to a unique
ordered set of non-overlapping rectangles.  Per protocol, each service is
its rectangle of the value (dport, or ICMP type) x source port plane, as
:func:`forestfw.policy_lang.syntax.service_plane` gives it.  The
rectangles are regions of one :class:`forestfw.header_space.Grid`, so a
policy is the OR of its rectangles' bitsets and a difference is
``p & ~q``.  The bitset prints as canonical strips: the region cut along
value boundaries, adjacent strips with identical source-port sets
merged, in increasing order.  Two policies accept the same packets iff
their canonical forms are structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from forestfw.diagnostics import PolicyError
from forestfw.header_space import Grid
from forestfw.intervals import Interval, IntervalSet
from forestfw.policy_lang.syntax import (
    PROTOCOL_NAMES,
    FlowRule,
    PolicySpec,
    Service,
    ServiceSet,
    service_plane,
)

Rectangle = tuple[IntervalSet, IntervalSet]  # (values, sports), as Grid.mask takes them


@dataclass(frozen=True)
class CanonicalSlice:
    """Strips for one protocol.

    Strips are ordered by increasing value (dport or ICMP type) interval,
    value intervals are disjoint, adjacent strips never carry identical
    sport sets, and sport sets are sorted, disjoint, and non-adjacent.
    """

    protocol: int
    strips: tuple[tuple[Interval, IntervalSet], ...]


@dataclass(frozen=True)
class CanonicalPolicy:
    slices: tuple[CanonicalSlice, ...]

    def is_empty(self) -> bool:
        return not self.slices


def _slice_rectangles(services: Iterable[Service]) -> dict[int, list[Rectangle]]:
    """Group the services' planes per protocol."""
    groups: dict[int, list[Rectangle]] = {}
    for svc in services:
        if svc.protocol is None:
            raise PolicyError(f"generic service {svc.name!r} cannot be canonicalized")
        groups.setdefault(svc.protocol, []).append(service_plane(svc))
    return groups


def _region_strips(rects: Sequence[Rectangle],
                   minus: Sequence[Rectangle] = ()) -> tuple[tuple[Interval, IntervalSet], ...]:
    """The maximal strips of the union of ``rects`` less the union of
    ``minus``, computed on one grid that both sides' bounds cut."""
    grid = Grid([values for values, _ in (*rects, *minus)],
                [sports for _, sports in (*rects, *minus)])
    region = 0
    for rect in rects:
        region |= grid.mask(*rect)
    for rect in minus:
        region &= ~grid.mask(*rect)
    return grid.strips(region)


def canonical_subtract(p: Iterable[Service], q: Iterable[Service]) -> list[CanonicalSlice]:
    """The canonical slices of what ``p`` accepts and ``q`` does not (the
    inclusion counterexample)."""
    kept, dropped = _slice_rectangles(p), _slice_rectangles(q)
    slices = []
    for protocol in sorted(kept):
        strips = _region_strips(kept[protocol], dropped.get(protocol, ()))
        if strips:
            slices.append(CanonicalSlice(protocol, strips))
    return slices


def canonicalize(services: Iterable[Service]) -> CanonicalPolicy:
    """Map a whitelist service set to its unique canonical form.

    Deterministic: equal input sets, in any order, produce structurally
    identical output.
    """
    return CanonicalPolicy(tuple(canonical_subtract(services, ())))


def equivalent(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff both service sets accept exactly the same packets."""
    return canonicalize(p) == canonicalize(q)


def includes(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff every packet accepted by ``p`` is accepted by ``q``."""
    return not canonical_subtract(p, q)


# ---------------------------------------------------------------------------
# best-practice compliance

@dataclass(frozen=True)
class BestPractice:
    """Protected zones plus per-direction permitted upper bounds."""

    protected: frozenset[str]
    inbound: ServiceSet
    outbound: ServiceSet


@dataclass(frozen=True)
class Violation:
    src_zone: str
    dst_zone: str
    direction: str  # "inbound" | "outbound"
    evidence: tuple[CanonicalSlice, ...]

    def __str__(self) -> str:
        parts = []
        for sl in self.evidence:
            proto = PROTOCOL_NAMES.get(sl.protocol, str(sl.protocol))
            for (lo, hi), _sports in sl.strips:
                values = str(lo) if lo == hi else f"{lo}-{hi}"
                if sl.protocol == 1:
                    parts.append(f"protocol 1 ({proto}) icmp type {values}")
                elif sl.protocol in (6, 17):
                    parts.append(f"protocol {sl.protocol} ({proto}) dport {values}")
                else:  # a protocol without ports is one full strip
                    parts.append(f"protocol {sl.protocol} ({proto})")
        detail = "; ".join(parts)
        return (
            f"best-practice violation on conduit {self.src_zone}->{self.dst_zone} "
            f"({self.direction} for the protected zone): {detail}"
        )


PROTECTED_GROUP = "protected_zone"


def load_best_practice(bp_spec: PolicySpec, zone_names: Iterable[str]) -> BestPractice:
    """Extract protected zones and direction bounds from a policy file.

    The document declares a ``protected_zone`` zone group plus rules whose
    protected side fixes the direction; the other side is a wildcard by
    convention.  Protected members must name zones of the loaded model.
    """
    group = bp_spec.zone_groups.get(PROTECTED_GROUP)
    if group is None:
        raise PolicyError(f"best-practice file declares no {PROTECTED_GROUP!r} zone group",
                          bp_spec.file)
    known = set(zone_names)
    unknown = sorted(group.zones - known)
    if unknown:
        raise PolicyError(
            f"best-practice file references unknown zone label(s): {', '.join(unknown)}",
            bp_spec.file)
    inbound = ServiceSet()
    outbound = ServiceSet()
    for rule in bp_spec.rules.values():
        sides = [(rule.left, rule.right)]
        if rule.operator == "<->":
            sides.append((rule.right, rule.left))
        for left, right in sides:
            if bp_spec.zone_set(right) & group.zones:
                inbound = inbound.union(rule.services)
            if bp_spec.zone_set(left) & group.zones:
                outbound = outbound.union(rule.services)
    return BestPractice(group.zones, inbound, outbound)


def check_best_practice(flows: Iterable[FlowRule], zone_names: Iterable[str],
                        bp_spec: PolicySpec) -> list[Violation]:
    """Inclusion checks for every conduit direction touching a protected zone.

    Flows are grouped per (peer zone, protected zone) direction; each group
    must be included in the matching upper bound.  Failures carry the
    offending canonical strips as concrete protocol/port evidence.
    """
    bp = load_best_practice(bp_spec, zone_names)
    grouped: dict[tuple[str, str, str], list[Service]] = {}
    for flow in flows:
        if flow.dst_zone in bp.protected:
            grouped.setdefault((flow.src_zone, flow.dst_zone, "inbound"), []).append(flow.service)
        if flow.src_zone in bp.protected:
            grouped.setdefault((flow.src_zone, flow.dst_zone, "outbound"), []).append(flow.service)

    violations: list[Violation] = []
    for (src, dst, direction) in sorted(grouped):
        leftovers = canonical_subtract(grouped[(src, dst, direction)],
                                       bp.inbound if direction == "inbound" else bp.outbound)
        if leftovers:
            violations.append(Violation(src, dst, direction, tuple(leftovers)))
    return violations
