"""Canonical policy form and the checks built on it.

A conduit-direction policy (a set of permitted services) maps to a unique
ordered set of non-overlapping rectangles: per (protocol, ICMP type)
group, the (source port x destination port) region is cut into horizontal
strips along destination-port boundaries, adjacent strips with identical
source-port sets are merged, and strips are emitted in increasing order.
Two policies accept the same packets iff their canonical forms are
structurally equal, which turns equivalence and inclusion into cheap
structural comparisons.
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
    """Strips for one (protocol, icmp_type) group.

    Strips are ordered by increasing dport interval, dport intervals are
    disjoint, adjacent strips never carry identical sport sets, and sport
    sets are sorted, disjoint, and non-adjacent.
    """

    protocol: int
    icmp_type: int | None
    strips: tuple[tuple[Interval, IntervalSet], ...]


@dataclass(frozen=True)
class CanonicalPolicy:
    slices: tuple[CanonicalSlice, ...]

    def is_empty(self) -> bool:
        return not self.slices


def _slice_rectangles(services: Iterable[Service]) -> dict[tuple[int, int | None], list[tuple[IntervalSet, IntervalSet]]]:
    """Group services into (sport-set, dport-set) rectangles per slice key."""
    groups: dict[tuple[int, int | None], list[tuple[IntervalSet, IntervalSet]]] = {}
    for svc in services:
        if svc.protocol is None:
            raise PolicyError(f"generic service {svc.name!r} cannot be canonicalized")
        if svc.protocol == 1:
            for lo, hi in intervals.normalize(effective_icmp_types(svc)):
                for icmp_type in range(lo, hi + 1):
                    groups.setdefault((1, icmp_type), []).append((FULL_PORTS, FULL_PORTS))
        elif svc.protocol in (6, 17):
            sports = intervals.normalize(effective_sports(svc))
            dports = intervals.normalize(effective_dports(svc))
            groups.setdefault((svc.protocol, None), []).append((sports, dports))
        else:
            groups.setdefault((svc.protocol, None), []).append((FULL_PORTS, FULL_PORTS))
    return groups


def _partition_strips(rects: Sequence[tuple[IntervalSet, IntervalSet]]) -> tuple[tuple[Interval, IntervalSet], ...]:
    """Cut the union of rectangles into maximal dport strips.

    A sweep over the sorted dport boundaries adds each rectangle where one
    of its dport intervals starts and drops it after the interval ends, so
    each elementary strip carries the union of the sport intervals of the
    rectangles active on it; contiguous strips with equal sport sets merge.
    """
    events: dict[int, list[tuple[int, int]]] = {}  # boundary -> (rectangle, +1 | -1)
    for i, (_, dports) in enumerate(rects):
        for lo, hi in dports:
            events.setdefault(lo, []).append((i, 1))
            events.setdefault(hi + 1, []).append((i, -1))
    coords = sorted(events)

    active: dict[int, int] = {}  # rectangle -> its dport intervals open here
    strips: list[tuple[Interval, IntervalSet]] = []
    for start, end in zip(coords, coords[1:]):
        for i, delta in events[start]:
            count = active.get(i, 0) + delta
            if count:
                active[i] = count
            else:
                del active[i]
        covered = intervals.normalize(iv for i in active for iv in rects[i][0])
        if not covered:
            continue
        if strips and strips[-1][0][1] + 1 == start and strips[-1][1] == covered:
            strips[-1] = ((strips[-1][0][0], end - 1), covered)
        else:
            strips.append(((start, end - 1), covered))
    return tuple(strips)


def canonicalize(services: Iterable[Service]) -> CanonicalPolicy:
    """Map a whitelist service set to its unique canonical form.

    Deterministic: equal input sets, in any order, produce structurally
    identical output.
    """
    groups = _slice_rectangles(services)
    slices = []
    for protocol, icmp_type in sorted(groups, key=lambda k: (k[0], -1 if k[1] is None else k[1])):
        strips = _partition_strips(groups[(protocol, icmp_type)])
        if strips:
            slices.append(CanonicalSlice(protocol, icmp_type, strips))
    return CanonicalPolicy(tuple(slices))


def equivalent(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff both service sets accept exactly the same packets."""
    return canonicalize(p) == canonicalize(q)


def _strips_cover(outer: tuple[tuple[Interval, IntervalSet], ...],
                  strip: Interval, sports: IntervalSet) -> bool:
    """Does ``outer`` cover dport interval ``strip`` with >= ``sports``?"""
    lo, hi = strip
    position = lo
    for (olo, ohi), osports in outer:
        if ohi < position:
            continue
        if olo > position:
            return False  # gap at `position`
        if not intervals.is_subset(sports, osports):
            return False
        position = ohi + 1
        if position > hi:
            return True
    return position > hi


def includes(p: Iterable[Service], q: Iterable[Service]) -> bool:
    """True iff every packet accepted by ``p`` is accepted by ``q``.

    Computed strip-wise on the canonical forms.
    """
    cp = canonicalize(p)
    cq = canonicalize(q)
    q_slices = {(s.protocol, s.icmp_type): s.strips for s in cq.slices}
    for sl in cp.slices:
        outer = q_slices.get((sl.protocol, sl.icmp_type))
        if outer is None:
            return False
        for strip, sports in sl.strips:
            if not _strips_cover(outer, strip, sports):
                return False
    return True


def canonical_subtract(p: CanonicalPolicy, q: CanonicalPolicy) -> list[CanonicalSlice]:
    """Strips of ``p`` not covered by ``q`` (the inclusion counterexample)."""
    q_slices = {(s.protocol, s.icmp_type): s.strips for s in q.slices}
    leftovers: list[CanonicalSlice] = []
    for sl in p.slices:
        outer = q_slices.get((sl.protocol, sl.icmp_type), ())
        remaining: list[tuple[Interval, IntervalSet]] = []
        for strip, sports in sl.strips:
            pieces: list[tuple[Interval, IntervalSet]] = [(strip, sports)]
            for (olo, ohi), osports in outer:
                next_pieces: list[tuple[Interval, IntervalSet]] = []
                for (plo, phi), psports in pieces:
                    if ohi < plo or olo > phi:
                        next_pieces.append(((plo, phi), psports))
                        continue
                    if plo < olo:
                        next_pieces.append(((plo, olo - 1), psports))
                    uncovered = intervals.subtract(psports, osports)
                    if uncovered:
                        next_pieces.append(((max(plo, olo), min(phi, ohi)), uncovered))
                    if phi > ohi:
                        next_pieces.append(((ohi + 1, phi), psports))
                pieces = next_pieces
            remaining.extend(pieces)
        if remaining:
            leftovers.append(CanonicalSlice(sl.protocol, sl.icmp_type, tuple(remaining)))
    return leftovers


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
            if sl.icmp_type is not None:
                parts.append(f"protocol {sl.protocol} ({proto}) icmp type {sl.icmp_type}")
                continue
            for (lo, hi), _sports in sl.strips:
                dport = str(lo) if lo == hi else f"{lo}-{hi}"
                parts.append(f"protocol {sl.protocol} ({proto}) dport {dport}")
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
        services = grouped[(src, dst, direction)]
        bound = bp.inbound if direction == "inbound" else bp.outbound
        if includes(services, bound):
            continue
        leftovers = canonical_subtract(canonicalize(services), canonicalize(bound))
        violations.append(Violation(src, dst, direction, tuple(leftovers)))
    return violations
