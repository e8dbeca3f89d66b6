"""Semantic validation of a parsed policy.

Validation returns diagnostics rather than raising: an empty list means
the policy is clean.  Generic services (all-TCP, all-UDP, all-IP) are
errors by design; nothing downstream accepts a policy that still carries
them.
"""

from __future__ import annotations

from collections import Counter

from forestfw.diagnostics import Diagnostic
from forestfw.policy_lang.syntax import (
    FULL_RANGE_SET,
    PORT_ATTRS,
    PORT_MAX,
    ICMP_TYPE_MAX,
    PolicySpec,
    PortRange,
    Service,
    Value,
    VList,
    VName,
    service_plane,
)

# each range field of a service, its largest value and its name in messages
_RANGE_FIELDS = (("source_ports", PORT_MAX, "port"), ("dest_ports", PORT_MAX, "port"),
                 ("icmp_types", ICMP_TYPE_MAX, "ICMP type"))


def _is_generic(svc: Service) -> str | None:
    """Name of the prohibited generic form this service amounts to, if any:
    all-IP, or a TCP or UDP service whose normalized ranges span its whole
    value x source port plane (the parser fills unwritten ports in full)."""
    if svc.protocol is None:
        return "all-IP"
    if svc.protocol in (6, 17) and service_plane(svc) == (FULL_RANGE_SET, FULL_RANGE_SET):
        return "all-TCP" if svc.protocol == 6 else "all-UDP"
    return None


def _bad_port_group_range(lo: int, hi: int) -> bool:
    """Whether the port-group check reports the range ``lo``-``hi``."""
    return lo > hi or lo < 0 or hi > PORT_MAX


def _group_ranges(spec: PolicySpec, name: str) -> Counter[tuple[str, PortRange]]:
    """``(field, range)`` of every port-group range service ``name``'s
    attributes name, counted once per naming."""
    out: Counter[tuple[str, PortRange]] = Counter()

    def walk(field: str, value: Value) -> None:
        if isinstance(value, VName) and value.name in spec.port_groups:
            out.update((field, r) for r in spec.port_groups[value.name].ranges)
        elif isinstance(value, VList):
            for item in value.items:
                walk(field, item)

    for key, value in spec.raw_attrs.get(name, ()):
        if key in PORT_ATTRS:
            walk(PORT_ATTRS[key], value)
    return out


def validate_spec(spec: PolicySpec) -> list[Diagnostic]:
    """Check a parsed spec; diagnostics are the return value."""
    diags: list[Diagnostic] = []

    def add(severity: str, name: str, message: str) -> None:
        diags.append(Diagnostic(severity, message, *spec.position_of(name)))

    for name, svc in spec.services.items():
        generic = _is_generic(svc)
        if generic is not None:
            add("error", name, f"generic service {generic} prohibited ({name!r})")
        # a bad range of a port group is reported once, at the group
        from_groups: Counter[tuple[str, PortRange]] | None = None
        for field, upper, label in _RANGE_FIELDS:
            for r in getattr(svc, field):
                lo, hi = r
                if not (lo > hi or lo < 0 or hi > upper):
                    continue
                if _bad_port_group_range(lo, hi):
                    if from_groups is None:
                        from_groups = _group_ranges(spec, name)
                    if from_groups[field, r]:
                        from_groups[field, r] -= 1
                        continue
                if lo > hi:
                    add("error", name, f"empty {label} range {lo}-{hi} in service {name!r}")
                else:
                    add("error", name,
                        f"{label} range {lo}-{hi} outside 0-{upper} in service {name!r}")
        if svc.protocol not in (6, 17) and (svc.source_ports or svc.dest_ports):
            add("error", name, f"port attributes on non-TCP/UDP service {name!r}")
        if svc.protocol != 1 and svc.icmp_types:
            add("error", name, f"icmp.type attribute on non-ICMP service {name!r}")
        if svc.protocol is not None and not (0 <= svc.protocol <= 255):
            add("error", name, f"protocol number {svc.protocol} outside 0-255")

    for name, group in spec.port_groups.items():
        for lo, hi in group.ranges:
            if not _bad_port_group_range(lo, hi):
                continue
            if lo > hi:
                add("error", name, f"empty port range {lo}-{hi} in port group {name!r}")
            else:
                add("error", name, f"port range {lo}-{hi} outside 0-{PORT_MAX} "
                                   f"in port group {name!r}")

    # duplicate zone-group values waste reader attention; flag them
    by_value: dict[frozenset[str], str] = {}
    for name, group in spec.zone_groups.items():
        prior = by_value.get(group.zones)
        if prior is not None:
            add("warning", name,
                f"zone group {name!r} duplicates the members of {prior!r}")
        else:
            by_value[group.zones] = name

    for name, rule in spec.rules.items():
        left = spec.zone_set(rule.left)
        right = spec.zone_set(rule.right)
        shared = left & right
        if shared:
            add("error", name,
                f"rule {name!r} endpoints overlap on zone(s) {', '.join(sorted(shared))}")
        if not rule.services:
            add("error", name, f"rule {name!r} resolves to an empty service set")
        if not left or not right:
            add("error", name, f"rule {name!r} references an empty zone group")

    return diags
