"""Seeded input generators for the grid and bulk workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical documents.  Each one also returns the answers the
benchmark expects from the compiler, derived from the construction
alone (flow counts, firewall counts, verdicts), never from a compiler
run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GRAPHML_HEAD = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="kind" for="node" attr.name="kind" attr.type="string"/>
  <key id="zone" for="node" attr.name="zone" attr.type="string"/>
  <key id="cidr" for="node" attr.name="cidr" attr.type="string"/>
  <key id="if_a" for="edge" attr.name="if_a" attr.type="string"/>
  <key id="if_b" for="edge" attr.name="if_b" attr.type="string"/>
"""

GRID_ICMP_TYPES = (0, 8, 13, 14)

# zones of fixtures/topology.graphml that bulk rules connect; every
# ordered pair has exactly one path there
BULK_ZONES = ("z1", "z2", "z3")
BULK_PROTECTED = "z3"
BULK_FIREWALLS = 3  # R1, R2, GW


@dataclass(frozen=True)
class Expected:
    """Answers known from an input's construction."""

    flows: int
    firewalls: int
    zones: int  # of the derived zone-conduit model


@dataclass(frozen=True)
class GridInput:
    topology: str
    policy: str
    expected: Expected


@dataclass(frozen=True)
class BulkInput:
    policy: str
    best_practice: str
    expected: Expected


def grid_zone_count(rows: int, cols: int) -> int:
    """Zones a rows x cols grid derives to: one labelled zone and one
    Firewall-Zone per firewall, one Abstract-Zone per transit subnet."""
    transits = rows * (cols - 1) + (rows - 1) * cols
    return 2 * rows * cols + transits


def grid(rows: int, cols: int, seed: int) -> GridInput:
    """A rows x cols grid of firewalls.

    Firewall (r, c) guards one labelled zone subnet ``z_r<r>c<c>`` and
    shares a transit subnet with each horizontal and vertical neighbour.
    Each labelled zone gets one ``->`` flow to another labelled zone.  No
    two flows share a source zone, so no two flows share a zone pair and
    the policy has no overlaps by construction.

    The destinations come from a fixed pattern drawn once per grid size,
    mapped through a mirror symmetry of the grid drawn with the seed; the
    seed also draws each flow's ports.  Mirrored patterns are isomorphic,
    so every seed gives the same path counts and ACL sizes, and a spread
    between seeds measures the machine, not the draw.
    """
    pattern = random.Random(f"grid-pattern-{rows}x{cols}")
    rng = random.Random(f"grid-{rows}x{cols}-{seed}")
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    nodes: list[str] = []
    edges: list[str] = []
    next_iface = {cell: 1 for cell in cells}

    def node(name: str, kind: str, cidr: str, zone: str = "") -> None:
        label = f'\n      <data key="zone">{zone}</data>' if zone else ""
        nodes.append(f'    <node id="{name}">\n      <data key="kind">{kind}</data>{label}'
                     f'\n      <data key="cidr">{cidr}</data>\n    </node>\n')

    def edge(fw: str, subnet: str, iface: str) -> None:
        edges.append(f'    <edge source="{fw}" target="{subnet}">\n'
                     f'      <data key="if_a">{iface}</data>\n    </edge>\n')

    for r, c in cells:
        node(f"fw_r{r}c{c}", "firewall", f"10.255.{r}.{c}/32")
        node(f"net_r{r}c{c}", "subnet", f"10.{r}.{c}.0/24", zone=f"z_r{r}c{c}")
        edge(f"fw_r{r}c{c}", f"net_r{r}c{c}", "eth0")
    transit = 0
    for r, c in cells:
        for nr, nc in ((r, c + 1), (r + 1, c)):
            if nr >= rows or nc >= cols:
                continue
            name = f"transit_r{r}c{c}_r{nr}c{nc}"
            node(name, "subnet", f"172.16.{transit >> 6}.{(transit & 63) * 4}/30")
            transit += 1
            for cell in ((r, c), (nr, nc)):
                edge(f"fw_r{cell[0]}c{cell[1]}", name, f"eth{next_iface[cell]}")
                next_iface[cell] += 1
    topology = (GRAPHML_HEAD + f'  <graph id="grid_{rows}x{cols}" edgedefault="undirected">\n'
                + "".join(nodes) + "".join(edges) + "  </graph>\n</graphml>\n")

    lines = [f"// generated {rows}x{cols} firewall grid, seed {seed}\n"]
    for r, c in cells:
        lines.append(f"zone_group g_r{r}c{c} {{ z_r{r}c{c} }}\n")
    flip_rows, flip_cols = rng.random() < 0.5, rng.random() < 0.5

    def mirror(cell: tuple[int, int]) -> tuple[int, int]:
        return (rows - 1 - cell[0] if flip_rows else cell[0],
                cols - 1 - cell[1] if flip_cols else cell[1])

    flows = {}
    for index, cell in enumerate(cells):
        dst = pattern.choice([other for other in cells if other != cell])
        # ICMP flows get no return rule, so which flows are ICMP is fixed
        flows[mirror(cell)] = (mirror(dst), index % 3 == 2)
    rules = []
    for r, c in cells:
        (dr, dc), icmp = flows[(r, c)]
        if icmp:
            attr = f"protocol=icmp; icmp.type={rng.choice(GRID_ICMP_TYPES)};"
        else:
            protocol = rng.choice(("tcp", "udp"))
            attr = f"protocol={protocol}; {protocol}.dest_port={rng.randrange(1024, 49152)};"
        lines.append(f"service s_r{r}c{c} {{ {attr} }}\n")
        lines.append(f"policy_rule f_r{r}c{c} {{ g_r{r}c{c} -> g_r{dr}c{dc} : s_r{r}c{c} }}\n")
        rules.append(f"f_r{r}c{c}")
    lines.append(_policy_tail("grid_policy", rules))
    return GridInput(topology, "".join(lines),
                     Expected(flows=len(cells), firewalls=len(cells),
                              zones=grid_zone_count(rows, cols)))


def bulk(seed: int, rules: int = 150) -> BulkInput:
    """A policy of ``rules`` rules over the fixture topology's zones.

    Every rule has its own service.  TCP and UDP services take their
    destination ports from a port group of one to three ranges cut from a
    shuffled pool of disjoint blocks, and ICMP services take a distinct
    type each, so no two services intersect and the policy has no overlaps
    by construction.  The best-practice document protects z3 and bounds it
    by exactly the services the policy lets into and out of z3.

    The rules' shapes (zone pair, direction, protocol, range widths) are
    drawn once per rule count; the seed shuffles their order and draws
    the ports and ICMP types.  So every seed gives the same flow count,
    ACL size and scanned port count, and a spread between seeds measures
    the machine, not the draw.
    """
    shapes = random.Random(f"bulk-shapes-{rules}")
    rng = random.Random(f"bulk-{rules}-{seed}")
    blocks = list(range(1024, 1024 + 16 * 4 * rules, 16))  # 16-port blocks
    rng.shuffle(blocks)
    icmp_types = list(range(0, 256))
    rng.shuffle(icmp_types)

    lines = [f"// generated bulk policy, {rules} rules, seed {seed}\n"]
    bp = [f"// generated best-practice bounds for {BULK_PROTECTED}, seed {seed}\n",
          f"zone_group protected_zone {{ {BULK_PROTECTED} }}\n"]
    inbound: list[str] = []
    outbound: list[str] = []
    for zone in BULK_ZONES:
        lines.append(f"zone_group g_{zone} {{ {zone} }}\n")
    drawn = []
    for _ in range(rules):
        src, dst = shapes.sample(BULK_ZONES, 2)
        operator = "<->" if shapes.random() < 0.3 else "->"
        protocol = shapes.choices(("tcp", "udp", "icmp"), weights=(50, 35, 15))[0]
        widths = [shapes.randint(1, 8) for _ in range(shapes.randint(1, 3))]
        drawn.append((src, dst, operator, protocol, widths))
    rng.shuffle(drawn)
    names = []
    flows = 0
    for i, (src, dst, operator, protocol, widths) in enumerate(drawn):
        if protocol == "icmp":
            icmp_type = icmp_types.pop()
        else:
            ranges = []
            for width in widths:
                lo = blocks.pop() + rng.randrange(8)
                ranges.append(str(lo) if width == 1 else f"{lo}-{lo + width - 1}")

        def service(prefix: str) -> str:
            if protocol == "icmp":
                return f"service {prefix}s{i} {{ protocol=icmp; icmp.type={icmp_type}; }}\n"
            return (f"port_group {prefix}p{i} {{ {', '.join(ranges)} }}\n"
                    f"service {prefix}s{i} {{ protocol={protocol}; "
                    f"{protocol}.dest_port={prefix}p{i}; }}\n")

        lines.append(service(""))
        lines.append(f"policy_rule r{i} {{ g_{src} {operator} g_{dst} : s{i} }}\n")
        names.append(f"r{i}")
        flows += 2 if operator == "<->" else 1

        touches_in = dst == BULK_PROTECTED or (operator == "<->" and src == BULK_PROTECTED)
        touches_out = src == BULK_PROTECTED or (operator == "<->" and dst == BULK_PROTECTED)
        if touches_in or touches_out:
            bp.append(service("bp_"))
        if touches_in:
            inbound.append(f"bp_s{i}")
        if touches_out:
            outbound.append(f"bp_s{i}")
    lines.append(_policy_tail("bulk_policy", names))
    bp.append(f"service_group inbound_allowed {{ {', '.join(inbound)} }}\n")
    bp.append(f"service_group outbound_allowed {{ {', '.join(outbound)} }}\n")
    bp.append("policy_rule inbound_bound { any_zone -> protected_zone : inbound_allowed }\n")
    bp.append("policy_rule outbound_bound { protected_zone -> any_zone : outbound_allowed }\n")
    bp.append("rule_group best_practice { inbound_bound, outbound_bound }\n")
    return BulkInput("".join(lines), "".join(bp),
                     Expected(flows=flows, firewalls=BULK_FIREWALLS, zones=7))


def _policy_tail(group: str, rules: list[str]) -> str:
    return (f"rule_group {group} {{ {', '.join(rules)} }}\n"
            f"reporting_rule verify_rules {{ use_case=verification;\n"
            f"  granularity.policy={{rule_or_group={{{group}}}}}; }}\n"
            f"policy generated_policy {{ {group}; verify_rules; }}\n")
