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

from typing import Iterable, NamedTuple, Sequence

from forestfw.diagnostics import PolicyError
from forestfw.header_space import Grid
from forestfw.intervals import Interval, IntervalSet
from forestfw.policy_lang.syntax import (
    FULL_RANGE_SET,
    PROTOCOL_NAMES,
    FlowRule,
    PolicySpec,
    PortRange,
    Service,
    ServiceSet,
    service_plane,
)

Rectangle = tuple[IntervalSet, IntervalSet]  # (values, sports), as Grid.mask takes them


class CanonicalSlice(NamedTuple):
    """Strips for one protocol.

    Strips are ordered by increasing value (dport or ICMP type) interval,
    value intervals are disjoint, adjacent strips never carry identical
    sport sets, and sport sets are sorted, disjoint, and non-adjacent.
    """

    protocol: int
    strips: tuple[tuple[Interval, IntervalSet], ...]


def _slice_rectangles(services: Iterable[Service]) -> dict[int, list[Rectangle]]:
    """Group the services' planes per protocol."""
    groups: dict[int, list[Rectangle]] = {}
    for svc in services:
        if svc.protocol is None:
            raise PolicyError(f"generic service {svc.name!r} cannot be canonicalized")
        groups.setdefault(svc.protocol, []).append(service_plane(svc))
    return groups


def _strips_less(groups: Sequence[Sequence[Rectangle]], minus: Sequence[Rectangle] = ()
                 ) -> list[tuple[tuple[Interval, IntervalSet], ...]]:
    """For each group of rectangles, the maximal strips of its union less
    the union of ``minus``, computed on one grid that ``minus`` and every
    group cut, with the mask of ``minus`` ORed once."""
    every = [rect for rects in (minus, *groups) for rect in rects]
    grid = Grid([values for values, _ in every], [sports for _, sports in every])
    dropped = 0
    for rect in minus:
        dropped |= grid.mask(*rect)
    out = []
    for rects in groups:
        region = 0
        for rect in rects:
            region |= grid.mask(*rect)
        out.append(grid.strips(region & ~dropped))
    return out


def subtract_each(groups: Sequence[Iterable[Service]], bound: Iterable[Service]
                  ) -> list[list[CanonicalSlice]]:
    """For each group of services, the canonical slices of what it accepts
    and ``bound`` does not (the inclusion counterexample), on one grid per
    protocol that the bound and every group of that protocol cut."""
    kept = [_slice_rectangles(group) for group in groups]
    dropped = _slice_rectangles(bound)
    out: list[list[CanonicalSlice]] = [[] for _ in kept]
    for protocol in sorted({protocol for rects in kept for protocol in rects}):
        members = [i for i, rects in enumerate(kept) if protocol in rects]
        strips = _strips_less([kept[i][protocol] for i in members], dropped.get(protocol, ()))
        for i, group_strips in zip(members, strips):
            if group_strips:
                out[i].append(CanonicalSlice(protocol, group_strips))
    return out


# ---------------------------------------------------------------------------
# best-practice compliance

class BestPractice(NamedTuple):
    """Protected zones plus per-direction permitted upper bounds."""

    protected: frozenset[str]
    inbound: ServiceSet
    outbound: ServiceSet


class Violation(NamedTuple):
    src_zone: str
    dst_zone: str
    direction: str  # "inbound" | "outbound"
    evidence: tuple[CanonicalSlice, ...]

    def __str__(self) -> str:
        parts = []
        for sl in self.evidence:
            proto = PROTOCOL_NAMES.get(sl.protocol, str(sl.protocol))
            for values, sports in sl.strips:
                if sl.protocol == 1:
                    parts.append(f"protocol 1 ({proto}) icmp type {PortRange(*values)}")
                elif sl.protocol in (6, 17):
                    # the source ports only when the strip narrows them
                    narrowed = "" if sports == FULL_RANGE_SET else \
                        " sport " + ",".join(str(PortRange(*r)) for r in sports)
                    parts.append(f"protocol {sl.protocol} ({proto}) dport "
                                 f"{PortRange(*values)}{narrowed}")
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
    must be included in the matching upper bound.  The groups of one bound
    are subtracted from it together, on one grid per protocol.  Failures
    carry the offending canonical strips as concrete protocol/port evidence.
    """
    bp = load_best_practice(bp_spec, zone_names)
    grouped: dict[tuple[str, str, str], list[Service]] = {}
    for flow in flows:
        if flow.dst_zone in bp.protected:
            grouped.setdefault((flow.src_zone, flow.dst_zone, "inbound"), []).append(flow.service)
        if flow.src_zone in bp.protected:
            grouped.setdefault((flow.src_zone, flow.dst_zone, "outbound"), []).append(flow.service)

    keys = sorted(grouped)
    leftovers: dict[tuple[str, str, str], list[CanonicalSlice]] = {}
    for direction, bound in (("inbound", bp.inbound), ("outbound", bp.outbound)):
        bounded = [key for key in keys if key[2] == direction]
        if bounded:
            leftovers.update(zip(bounded, subtract_each([grouped[key] for key in bounded], bound)))
    return [Violation(*key, tuple(leftovers[key])) for key in keys if leftovers[key]]
