"""Rule-overlap and ACL-anomaly detection with concrete counterexamples.

High-level overlaps are pairs of flows from distinct rules that permit a
shared service between the same zone pair; they are reported, never
auto-corrected, and each witness is the shared service itself: the
intersection of the two services' planes
(:func:`forestfw.policy_lang.syntax.service_plane`), axis by axis.
Network-level checks find redundant (fully covered by earlier permits)
and shadowed (never able to match) ACL rules with the simulator's ACL
engine, :class:`forestfw.header_space.MatchTable`: per distinct set of
rows that its lookup finds in a cell of protocol, state and address
atoms, its first-match walk over each rule's region, a bitset over the
value x sport atoms of one :class:`forestfw.header_space.Grid` per
protocol.  An optional export renders the policy as a small relational
model for external analysis.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from forestfw import intervals
from forestfw.header_space import (
    ADDR_MAX,
    STATES,
    Grid,
    MatchTable,
    bit_indexes,
    cuts,
    meeting_rows,
)
from forestfw.policy_lang.syntax import (
    FULL_ICMP_SET,
    FULL_RANGE_SET,
    PORT_MAX,
    FlowRule,
    PolicySpec,
    Service,
    port_ranges,
    service_plane,
)

if TYPE_CHECKING:  # avoid a runtime cycle with netgen
    from forestfw.netgen import Acl

HIGH_LEVEL_OVERLAP = "high_level_overlap"
ACL_REDUNDANCY = "acl_redundancy"
ACL_SHADOW = "acl_shadow"


class OverlapWitness(NamedTuple):
    src_zone: str
    dst_zone: str
    service: Service  # the non-empty intersection


class OverlapReport(NamedTuple):
    kind: str
    rule_a: str
    rule_b: str
    witnesses: tuple[OverlapWitness, ...] = ()
    detail: str = ""

    def __str__(self) -> str:
        if self.kind == HIGH_LEVEL_OVERLAP:
            parts = []
            for w in self.witnesses:
                svc = w.service
                dims = [f"ip_protocol={svc.protocol}"]
                if svc.protocol in (6, 17) and svc.dest_ports:
                    dims.append("dest_port=" + ",".join(str(r) for r in svc.dest_ports))
                if svc.protocol in (6, 17) and svc.source_ports not in ((), FULL_RANGE_SET):
                    dims.append("source_port=" + ",".join(str(r) for r in svc.source_ports))
                if svc.protocol == 1 and svc.icmp_types:
                    dims.append("icmp_type=" + ",".join(str(r) for r in svc.icmp_types))
                parts.append(f"{w.src_zone}->{w.dst_zone} {' '.join(dims)}")
            return (f"rule overlap: {self.rule_a} x {self.rule_b} "
                    f"({'; '.join(parts)})")
        return f"{self.kind}: {self.rule_a} covered by {self.rule_b}{self.detail}"


def service_intersection(a: Service, b: Service) -> Service | None:
    """Dimension-wise intersection of two services; None when empty."""
    if a.protocol is None or a.protocol != b.protocol:
        return None
    (values_a, sports_a), (values_b, sports_b) = service_plane(a), service_plane(b)
    values = intervals.intersect(values_a, values_b)
    sports = intervals.intersect(sports_a, sports_b)
    if not values or not sports:
        return None
    name = f"({a.display_name} ^ {b.display_name})"
    if a.protocol == 1:
        return Service(name, 1, icmp_types=port_ranges(values))
    if a.protocol in (6, 17):
        return Service(name, a.protocol,
                       source_ports=port_ranges(sports), dest_ports=port_ranges(values))
    return Service(name, a.protocol)


def find_rule_overlaps(flows: Sequence[FlowRule]) -> list[OverlapReport]:
    """Overlap reports, one per pair of distinct high-level rules.

    Flows expanded from the same rule never self-report.  Output order is
    lexicographic by rule-name pair; witnesses are aggregated and
    deduplicated by value.

    Candidates come from per-axis flow bitsets, so the cost follows the
    flows plus the true overlaps, not the pairs.  Per conduit, the flows
    are the rows of one :func:`meeting_rows` index per axis of their
    planes; a flow meets the flows that share an atom with it on the
    value axis AND on the sport axis, and of those, the later flows of
    its protocol and of other rules are exactly the pairs whose planes
    intersect.  A flow whose values meet no other flow's is passed over.
    Flows are visited in input order and their candidates in ascending
    order, the order of an all-pairs scan, which decides the name a
    witness found twice keeps.
    """
    by_conduit: dict[tuple[str, str], list[FlowRule]] = {}
    for flow in flows:
        by_conduit.setdefault((flow.src_zone, flow.dst_zone), []).append(flow)

    found: dict[tuple[str, str], dict[tuple, OverlapWitness]] = {}
    for (src, dst), members in sorted(by_conduit.items()):
        values, sports = zip(*(service_plane(flow.service) for flow in members))
        value_meets = meeting_rows(values, PORT_MAX)
        if not value_meets:
            continue
        sport_meets = meeting_rows(sports, PORT_MAX)
        of_protocol: dict[int | None, int] = {}  # the generic protocol meets no flow
        of_rule: dict[str, int] = {}
        for i, flow in enumerate(members):
            protocol = flow.service.protocol
            if protocol is not None:
                of_protocol[protocol] = of_protocol.get(protocol, 0) | 1 << i
            of_rule[flow.rule_name] = of_rule.get(flow.rule_name, 0) | 1 << i
        for i, value_meet in value_meets.items():
            fa = members[i]
            later = (value_meet & sport_meets.get(i, 0) & of_protocol.get(fa.service.protocol, 0)
                     & ~of_rule[fa.rule_name]) >> (i + 1)
            for k in bit_indexes(later):
                fb = members[i + 1 + k]
                # never None: the planes meet on both axes
                shared = service_intersection(fa.service, fb.service)
                pair = tuple(sorted((fa.rule_name, fb.rule_name)))
                witness = OverlapWitness(src, dst, shared)
                found.setdefault(pair, {})[(src, dst) + shared.value_key()] = witness

    reports = []
    for (rule_a, rule_b) in sorted(found):
        witnesses = tuple(sorted(found[(rule_a, rule_b)].values(),
                                 key=lambda w: (w.src_zone, w.dst_zone, w.service.name)))
        reports.append(OverlapReport(HIGH_LEVEL_OVERLAP, rule_a, rule_b, witnesses))
    return reports


# ---------------------------------------------------------------------------
# network-level anomaly detection

def find_acl_anomalies(acl: "Acl") -> list[OverlapReport]:
    """Redundant and shadowed rules in an ordered network-level ACL.

    The terminal deny-all is the backstop and never reported.  A permit
    fully covered by the union of earlier permits is a redundancy; any
    other rule that can never match is a shadow.

    Per protocol, each rule is one region of one :class:`Grid` of the
    value x sport plane, the value being the dport or ICMP type.  The
    rows that match each cell of protocol, state and address atoms come
    from :meth:`MatchTable.lookup`; one :meth:`MatchTable.walk` per
    distinct set of them finds the rows that decide some region, and one
    over its permits the permits that admit some.  A rule that decides
    nothing is shadowed; a permit that admits nothing is redundant.
    """
    rules = acl.rules[:-1] if acl.rules and acl.rules[-1].action == "deny" else acl.rules
    table = MatchTable(rules)
    rows = table.rows
    named = {r.protocol for r in rules if r.protocol is not None}
    protocols = sorted(named)
    if len(named) < 256 and any(r.protocol is None for r in rules):
        protocols.append(max(set(range(256)) - named))  # for every protocol no rule names
    # the rows of an address cell: its source atom's AND its destination atom's
    src_atoms, dst_atoms = (cuts((row[k] for row in rows), ADDR_MAX) for k in (0, 1))
    by_src = {table.lookup(src=src) for src in src_atoms}
    by_dst = {table.lookup(dst=dst) for dst in dst_atoms}
    cells = {src_rows & dst_rows for src_rows in by_src for dst_rows in by_dst}
    deciding = admitting = 0
    for protocol in protocols:
        applies = {i: rows[i] for i in bit_indexes(table.lookup(protocol))}
        values = FULL_ICMP_SET if protocol == 1 else FULL_RANGE_SET
        grid = Grid([values, *(row.values for row in applies.values() if row.values)],
                    [row.sport for row in applies.values() if row.sport])
        plane = grid.mask(values)
        masks = {i: grid.mask(row.values, row.sport) & plane for i, row in applies.items()}
        for matching in {table.lookup(protocol, state) & cell
                         for state in STATES for cell in cells}:
            deciding |= table.walk(matching, masks, plane)[1]
            admitting |= table.walk(matching & table.permits, masks, plane)[1]
    reports: list[OverlapReport] = []
    for i, rule in enumerate(rules):
        detail = f" ({rule.comment})" if rule.comment else ""
        if rule.action == "permit" and not admitting >> i & 1:
            reports.append(OverlapReport(ACL_REDUNDANCY, f"{acl.name}[{i}]",
                                         f"{acl.name}[0..{i - 1}] permits", detail=detail))
        elif not deciding >> i & 1:
            reports.append(OverlapReport(ACL_SHADOW, f"{acl.name}[{i}]",
                                         f"{acl.name}[0..{i - 1}]", detail=detail))
    return reports


# ---------------------------------------------------------------------------
# relational model export

_ALLOY_HEADER = """\
abstract sig Service {
   ip_protocol: some Int,
   source_port: set String,
   dest_port: set String,
   icmp_type: set Int }

abstract sig PolicyRule {
   zone1: one String,
   zone2: one String,
   operator: some Int,
   service: one Service }

one sig SecurityPolicy { rules: some PolicyRule }

fact {
 all r: PolicyRule | r in SecurityPolicy.rules
 SecurityPolicy.rules = PolicyRule
 all s: Service | some r: PolicyRule | s in r.service }
"""


def _atom(name: str) -> str:
    return name.replace(".", "_")


def emit_alloy(spec: PolicySpec, flows: Iterable[FlowRule]) -> str:
    """Byte-stable relational model of the expanded policy."""
    lines = [_ALLOY_HEADER]
    services: dict[str, Service] = {}
    flow_list = sorted(flows, key=lambda f: f.flow_key())
    for flow in flow_list:
        services.setdefault(flow.service.name, flow.service)

    for name in sorted(services):
        svc = services[name]
        lines.append(f"one sig svc_{_atom(name)} extends Service {{}} {{")
        lines.append(f" ip_protocol = {svc.protocol}")
        values, sports = service_plane(svc)
        ports = svc.protocol in (6, 17)
        lines.append(" source_port = " + (",".join(f'"{r}"' for r in sports) if ports else "none"))
        lines.append(" dest_port = " + (",".join(f'"{r}"' for r in values) if ports else "none"))
        if svc.protocol == 1:
            types = ",".join(str(lo) if lo == hi else f"{lo}+{hi}" for lo, hi in values)
            lines.append(f" icmp_type = {types}")
        else:
            lines.append(" icmp_type = none")
        lines.append("}")
        lines.append("")

    for i, flow in enumerate(flow_list):
        lines.append(f"one sig rule_{i}_{_atom(flow.rule_name)} extends PolicyRule {{}} {{")
        lines.append(f' zone1 = "{flow.src_zone}"')
        lines.append(f' zone2 = "{flow.dst_zone}"')
        lines.append(" operator = 1")
        lines.append(f" service = svc_{_atom(flow.service.name)}")
        lines.append("}")
        lines.append("")

    lines.append("assert no_rule_overlaps {")
    lines.append(" all disj a, b: PolicyRule |")
    lines.append("  a.zone1 != b.zone1 or a.zone2 != b.zone2 or a.service != b.service }")
    lines.append("")
    lines.append("check no_rule_overlaps")
    return "\n".join(lines) + "\n"
