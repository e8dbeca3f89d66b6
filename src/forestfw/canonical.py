"""Canonical policy form and the checks built on it.

This is the program's one region form.  A conduit-direction policy (a
set of permitted services) maps to a unique ordered set of
non-overlapping rectangles: per protocol, the (value x source port)
region is cut into strips along value boundaries, adjacent strips with
identical source-port sets are merged, and strips are emitted in
increasing order.  The value is the destination port, or the ICMP type
for protocol 1 (whose source ports are full); a protocol without ports
is one strip over the full port plane.  Two policies accept the same
packets iff their canonical forms are structurally equal, which turns
equivalence and inclusion into cheap structural comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from forestfw import intervals
from forestfw.diagnostics import PolicyError
from forestfw.intervals import Interval, IntervalSet
from forestfw.policy_lang.syntax import (
    PROTOCOL_NAMES,
    PolicySpec,
    Service,
    ServiceSet,
    effective_dports,
    effective_icmp_types,
    effective_sports,
)
from forestfw.policy_lang.syntax import FlowRule

FULL_PORTS: IntervalSet = ((0, 65535),)


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


def _slice_rectangles(services: Iterable[Service]) -> dict[int, list[tuple[IntervalSet, IntervalSet]]]:
    """Group services into (sport-set, value-set) rectangles per protocol."""
    groups: dict[int, list[tuple[IntervalSet, IntervalSet]]] = {}
    for svc in services:
        if svc.protocol is None:
            raise PolicyError(f"generic service {svc.name!r} cannot be canonicalized")
        if svc.protocol == 1:
            rect = (FULL_PORTS, effective_icmp_types(svc))
        elif svc.protocol in (6, 17):
            rect = (effective_sports(svc), effective_dports(svc))
        else:
            rect = (FULL_PORTS, FULL_PORTS)
        groups.setdefault(svc.protocol, []).append(rect)
    return groups


def _partition_strips(rects: Sequence[tuple[IntervalSet, IntervalSet]]) -> tuple[tuple[Interval, IntervalSet], ...]:
    """Cut the union of rectangles into maximal value strips.

    A sweep over the sorted value boundaries adds each rectangle where one
    of its value intervals starts and drops it after the interval ends, so
    each elementary strip carries the union of the sport intervals of the
    rectangles active on it; contiguous strips with equal sport sets merge.
    """
    events: dict[int, list[tuple[int, int]]] = {}  # boundary -> (rectangle, +1 | -1)
    for i, (_, dports) in enumerate(rects):
        for lo, hi in dports:
            events.setdefault(lo, []).append((i, 1))
            events.setdefault(hi + 1, []).append((i, -1))
    coords = sorted(events)

    active: dict[int, int] = {}  # rectangle -> its value intervals open here
    strips: list[tuple[Interval, IntervalSet]] = []
    for start, end in zip(coords, coords[1:]):
        for i, delta in events[start]:
            count = active.get(i, 0) + delta
            if count:
                active[i] = count
            else:
                del active[i]
        _add_strip(strips, start, end - 1,
                   intervals.normalize(iv for i in active for iv in rects[i][0]))
    return tuple(strips)


def _add_strip(strips: list[tuple[Interval, IntervalSet]], lo: int, hi: int,
               sports: IntervalSet) -> None:
    """Append a strip in value order, merged into a touching predecessor
    with equal sport sets; a strip without sports is dropped."""
    if not sports:
        return
    if strips and strips[-1][0][1] + 1 == lo and strips[-1][1] == sports:
        strips[-1] = ((strips[-1][0][0], hi), sports)
    else:
        strips.append(((lo, hi), sports))


def canonicalize(services: Iterable[Service]) -> CanonicalPolicy:
    """Map a whitelist service set to its unique canonical form.

    Deterministic: equal input sets, in any order, produce structurally
    identical output.
    """
    groups = _slice_rectangles(services)
    slices = []
    for protocol in sorted(groups):
        strips = _partition_strips(groups[protocol])
        if strips:
            slices.append(CanonicalSlice(protocol, strips))
    return CanonicalPolicy(tuple(slices))


def equivalent(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff both service sets accept exactly the same packets."""
    return canonicalize(p) == canonicalize(q)


def subtract_strips(p: tuple[tuple[Interval, IntervalSet], ...],
                    q: tuple[tuple[Interval, IntervalSet], ...]) -> tuple[tuple[Interval, IntervalSet], ...]:
    """The part of strips ``p`` that strips ``q`` does not cover.

    One merge pass over both lists, each sorted and disjoint by value;
    the result is canonical again.
    """
    out: list[tuple[Interval, IntervalSet]] = []
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


def canonical_subtract(p: CanonicalPolicy, q: CanonicalPolicy) -> list[CanonicalSlice]:
    """Strips of ``p`` not covered by ``q`` (the inclusion counterexample)."""
    q_slices = {s.protocol: s.strips for s in q.slices}
    leftovers: list[CanonicalSlice] = []
    for sl in p.slices:
        remaining = subtract_strips(sl.strips, q_slices.get(sl.protocol, ()))
        if remaining:
            leftovers.append(CanonicalSlice(sl.protocol, remaining))
    return leftovers


def includes(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff every packet accepted by ``p`` is accepted by ``q``."""
    return not canonical_subtract(canonicalize(p), canonicalize(q))


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

    bounds: dict[str, CanonicalPolicy] = {}  # each bound canonicalized once, when first needed
    violations: list[Violation] = []
    for (src, dst, direction) in sorted(grouped):
        services = canonicalize(grouped[(src, dst, direction)])
        if direction not in bounds:
            bounds[direction] = canonicalize(bp.inbound if direction == "inbound" else bp.outbound)
        leftovers = canonical_subtract(services, bounds[direction])
        if leftovers:
            violations.append(Violation(src, dst, direction, tuple(leftovers)))
    return violations
