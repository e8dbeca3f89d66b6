"""Deterministic text rendering of a compiled policy.

The vendor-neutral format is the reference representation: one ``INFO``
header per ACL, ``remark~`` comment lines, and ``~``-separated rule lines
ending in the fixed terminal ``deny~ip~from~any~to~any~sport~~dport~~state~``.
It round-trips exactly through :func:`parse_neutral`.  Device targets
(an iptables-like and an ASA-like dialect) are rendered from template
files with substitution slots and carry rule provenance as comments.
"""

from __future__ import annotations

import ipaddress
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from forestfw.diagnostics import InputError, PolicyError
from forestfw.header_space import STATE_BITS
from forestfw.netgen import (
    ANY_NET,
    Acl,
    AclRule,
    InterfaceAssignment,
    NetworkPolicy,
)
from forestfw.policy_lang.syntax import (ICMP_TYPE_MAX, PORT_MAX, PROTOCOL_NAMES,
                                         PROTOCOL_NUMBERS, PolicySpec, PortRange)
from forestfw.topo_model import LOCAL_INTERFACE

NEUTRAL_HEADER = "INFO Vendor neutral network-level ruleset for ACL: "
TERMINAL_DENY_LINE = "deny~ip~from~any~to~any~sport~~dport~~state~"

_TEMPLATE_DIR = Path(__file__).parent / "templates"
VENDORS = ("neutral", "iptables_like", "asa_like")


# ---------------------------------------------------------------------------
# vendor-neutral format

def _ports_text(ranges: tuple[PortRange, ...]) -> str:
    if not ranges:
        return ""
    parts = [str(r.lo) if r.lo == r.hi else f"'{r.lo}-{r.hi}'" for r in ranges]
    return "[" + ", ".join(parts) + "]"


def _addr_text(nets: tuple[ipaddress.IPv4Network, ...]) -> str:
    if len(nets) == 1 and nets[0].prefixlen == 0:
        return "any"
    return ",".join(str(n) for n in nets)


class _Memo(dict):
    """``compute(key)`` for each key, computed once: one per render or
    parse call, where the same address and port fields recur."""

    def __init__(self, compute: Callable) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _proto_text(protocol: int | None) -> str:
    if protocol is None:
        return "ip"
    return PROTOCOL_NAMES.get(protocol, str(protocol))


def render_rule_neutral(rule: AclRule) -> str:
    return _rule_line(rule, _Memo(_addr_text))


def _rule_line(rule: AclRule, addrs: _Memo) -> str:
    # only the any -> any ip deny takes the fixed form, whatever its log flag
    if (rule.action == "deny" and rule.protocol is None and rule.src == rule.dst == (ANY_NET,)
            and not (rule.sport or rule.dport or rule.state)):
        return TERMINAL_DENY_LINE
    fields = [
        rule.action,
        _proto_text(rule.protocol),
        "from",
        addrs[rule.src],
        "to",
        addrs[rule.dst],
        "sport",
        _ports_text(rule.sport),
        "dport",
        _ports_text(rule.dport),
        "state",
        ",".join(rule.state),
    ]
    line = "~".join(fields)
    if rule.log:
        line += "~log"
    return line


def render_neutral(acl: Acl) -> str:
    """The vendor-neutral ruleset text for one ACL."""
    return _acl_text(acl, _Memo(_addr_text))


def _acl_text(acl: Acl, addrs: _Memo) -> str:
    lines = [NEUTRAL_HEADER + acl.name]
    last_comment = None
    for rule in acl.rules:
        if rule.comment and rule.comment != last_comment:
            lines.append(f"  remark~{rule.comment}")
        if rule.comment:
            last_comment = rule.comment
        lines.append("  " + _rule_line(rule, addrs))
    return "\n".join(lines) + "\n"


def render_neutral_file(policy: NetworkPolicy, firewall: str) -> str:
    """All of a firewall's ACLs in assignment order."""
    addrs = _Memo(_addr_text)
    return "\n".join(_acl_text(acl, addrs) for acl in policy.acls[firewall])


def _parse_ports(text: str, limit: int = PORT_MAX) -> tuple[PortRange, ...]:
    """A port (or ICMP-type) list; each range must lie within 0..``limit``."""
    text = text.strip()
    if not text:
        return ()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed port list {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    ranges = []
    for part in inner.split(","):
        part = part.strip().strip("'")
        lo, dash, hi = part.partition("-")
        bounds = PortRange(int(lo), int(hi if dash else lo))
        if not 0 <= bounds.lo <= bounds.hi <= limit:
            raise ValueError(f"range {part!r} outside 0-{limit}")
        ranges.append(bounds)
    return tuple(ranges)


def _parse_states(text: str) -> tuple[str, ...]:
    states = tuple(s for s in text.split(",") if s)
    if not set(states) <= STATE_BITS.keys():
        raise ValueError(f"unknown state in {text!r}")
    return states


def _parse_addr(text: str) -> tuple[ipaddress.IPv4Network, ...]:
    if text == "any":
        return (ipaddress.IPv4Network("0.0.0.0/0"),)
    return tuple(ipaddress.IPv4Network(part) for part in text.split(","))


def parse_neutral(text: str, file: str = "<neutral>") -> list[Acl]:
    """Inverse of render_neutral over a whole neutral file.

    Each rule carries the last remark above it in its ACL, except the
    fixed terminal deny, which carries none.  Each distinct address, port,
    ICMP-type or state field text is parsed and checked once per call.  A
    line that does not parse or holds an unknown or out-of-range value,
    and a second ACL of one name, raise :class:`InputError` naming
    ``file`` and the line.
    """
    acls: list[Acl] = []
    name: str | None = None
    rules: list[AclRule] = []
    comment = ""
    addresses = _Memo(_parse_addr)
    ports = _Memo(_parse_ports)
    icmp_types = _Memo(lambda text: _parse_ports(text, ICMP_TYPE_MAX))
    states = _Memo(_parse_states)

    def flush() -> None:
        nonlocal rules
        if name is not None:
            acls.append(Acl(name, tuple(rules)))
        rules = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(NEUTRAL_HEADER):
            flush()
            name = line[len(NEUTRAL_HEADER):].strip()
            if any(acl.name == name for acl in acls):
                raise InputError(f"duplicate ACL {name!r}", file, lineno)
            comment = ""
            continue
        if line.startswith("remark~"):
            comment = line[len("remark~"):]
            continue
        if name is None:
            raise InputError(f"rule line before any ACL header: {line!r}", file, lineno)
        try:
            # the fixed terminal line is written without a remark, like its log flag
            rules.append(_parse_rule_neutral(line, "" if line == TERMINAL_DENY_LINE else comment,
                                             addresses, ports, icmp_types, states))
        except ValueError as exc:
            raise InputError(f"malformed neutral rule line: {exc}: {line!r}",
                             file, lineno) from exc
    flush()
    return acls


def _parse_rule_neutral(line: str, comment: str, addresses: _Memo, ports: _Memo,
                        icmp_types: _Memo, states: _Memo) -> AclRule:
    fields = line.split("~")
    if len(fields) not in (12, 13):
        raise ValueError(f"{len(fields)} fields")
    action, proto, kw_from, src, kw_to, dst, kw_sport, sport, kw_dport, dport, kw_state, state = fields[:12]
    if (kw_from, kw_to, kw_sport, kw_dport, kw_state) != ("from", "to", "sport", "dport", "state"):
        raise ValueError("misplaced keywords")
    if action not in ("permit", "deny"):
        raise ValueError(f"unknown action {action!r}")
    if len(fields) == 13 and fields[12] != "log":
        raise ValueError(f"unknown flag {fields[12]!r}")
    protocol = PROTOCOL_NUMBERS[proto] if proto in PROTOCOL_NUMBERS else int(proto)
    if protocol is not None and not 0 <= protocol <= 255:
        raise ValueError(f"protocol {protocol} outside 0-255")
    sports = ports[sport]
    dports = (icmp_types if protocol == 1 else ports)[dport]
    if (sports and protocol not in (6, 17)) or (dports and protocol not in (1, 6, 17)):
        raise ValueError(f"ports on a {proto} rule")
    return AclRule(
        action=action,
        protocol=protocol,
        src=addresses[src],
        dst=addresses[dst],
        sport=sports,
        dport=dports,
        state=states[state],
        log=len(fields) == 13,
        comment=comment,
    )


# ---------------------------------------------------------------------------
# device templates

@dataclass(frozen=True)
class DeviceTemplate:
    vendor_id: str
    sections: dict[str, str]

    def format(self, section: str, **slots: str) -> str:
        return self.sections[section].format(**slots)


def load_template(vendor_id: str, templates_dir: Path | None = None) -> DeviceTemplate:
    root = Path(templates_dir) if templates_dir else _TEMPLATE_DIR
    path = root / f"{vendor_id}.tmpl"
    if not path.is_file():
        raise PolicyError(f"no template for vendor {vendor_id!r} under {root}")
    sections: dict[str, str] = {}
    current: str | None = None
    buf: list[str] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("[") and line.endswith("]"):
            if current is not None:
                sections[current] = "\n".join(buf).strip("\n")
            current = line[1:-1]
            buf = []
        else:
            buf.append(line)
    if current is not None:
        sections[current] = "\n".join(buf).strip("\n")
    return DeviceTemplate(vendor_id, sections)


def _iptables_matches(rule: AclRule, addrs: _Memo) -> list[str]:
    """Match-expression variants for one rule (one per port-range combo)."""
    base = ""
    if rule.protocol is not None:
        base += f" -p {_proto_text(rule.protocol)}"
    src = addrs[rule.src]
    dst = addrs[rule.dst]
    if src != "any":
        base += f" -s {src}"
    if dst != "any":
        base += f" -d {dst}"
    state = f" -m state --state {','.join(rule.state)}" if rule.state else ""

    def port_flag(flag: str, r: PortRange) -> str:
        return f" {flag} {r.lo}" if r.lo == r.hi else f" {flag} {r.lo}:{r.hi}"

    variants: list[str] = []
    if rule.protocol in (6, 17):
        sports = rule.sport or (PortRange(0, 65535),)
        dports = rule.dport or (PortRange(0, 65535),)
        for sp in sports:
            for dp in dports:
                piece = base
                if sp != PortRange(0, 65535):
                    piece += port_flag("--sport", sp)
                if dp != PortRange(0, 65535):
                    piece += port_flag("--dport", dp)
                variants.append(piece + state)
    elif rule.protocol == 1 and rule.dport:
        for lo, hi in rule.dport:
            for icmp_type in range(lo, hi + 1):
                variants.append(base + f" --icmp-type {icmp_type}" + state)
    else:
        variants.append(base + state)
    return variants


def render_device(policy: NetworkPolicy, firewall: str, vendor_id: str,
                  templates_dir: Path | None = None) -> str:
    """Render one firewall's configuration for a device target."""
    if vendor_id == "neutral":
        return render_neutral_file(policy, firewall)
    if vendor_id not in VENDORS:
        raise PolicyError(f"unknown vendor {vendor_id!r}")
    if firewall not in policy.acls:
        raise PolicyError(f"unknown firewall {firewall!r}")
    template = load_template(vendor_id, templates_dir)
    assignments = [a for a in policy.assignments if a.firewall == firewall]
    if vendor_id == "iptables_like":
        return _render_iptables(policy, firewall, template, assignments)
    return _render_asa(policy, firewall, template, assignments)


def _provenance(rule: AclRule) -> str:
    """``<rule_name>: <service comment>`` so nobody wonders why a rule exists."""
    if not rule.origin_rule:
        return ""
    what = rule.service_comment or rule.origin_service
    return f"{rule.origin_rule}: {what}"


def _render_iptables(policy: NetworkPolicy, firewall: str, template: DeviceTemplate,
                     assignments: list[InterfaceAssignment]) -> str:
    out = [template.format("header", firewall=firewall)]
    addrs = _Memo(_addr_text)
    for a in assignments:
        out.append(template.format("chain_decl", acl=a.acl))
    for a in assignments:
        if a.interface == LOCAL_INTERFACE:
            section = "bind_input" if a.direction == "inbound" else "bind_output"
            out.append(template.format(section, acl=a.acl))
        else:
            out.append(template.format("bind_forward", interface=a.interface, acl=a.acl))
    for a in assignments:
        acl = policy.acl_by_name(firewall, a.acl)
        last_comment = None
        for rule in acl.rules:
            if rule.comment and rule.comment != last_comment:
                out.append(template.format("remark", text=rule.comment))
                last_comment = rule.comment
            provenance = _provenance(rule)
            if provenance:
                out.append(template.format("remark", text=provenance))
            target = "ACCEPT" if rule.action == "permit" else "DROP"
            log = rule.log or (rule.action == "deny" and policy.log_denies)
            for match in _iptables_matches(rule, addrs):
                if log:
                    out.append(template.format("log_rule", acl=a.acl, match=match,
                                               prefix=f"{a.acl}: "))
                out.append(template.format("rule", acl=a.acl, match=match, target=target))
    out.append(template.format("footer"))
    return "\n".join(out) + "\n"


def _asa_ports(rule: AclRule) -> list[str]:
    if rule.protocol in (6, 17):
        variants = []
        sports = rule.sport or (PortRange(0, 65535),)
        dports = rule.dport or (PortRange(0, 65535),)
        for sp in sports:
            for dp in dports:
                text = ""
                if sp != PortRange(0, 65535):
                    text += f" range {sp.lo} {sp.hi}" if sp.lo != sp.hi else f" eq {sp.lo}"
                # ASA puts the source operator before the destination address,
                # but this sketch keeps both after for readability
                if dp != PortRange(0, 65535):
                    text += f" range {dp.lo} {dp.hi}" if dp.lo != dp.hi else f" eq {dp.lo}"
                variants.append(text)
        return variants
    if rule.protocol == 1 and rule.dport:
        return [f" {lo}" if lo == hi else f" range {lo} {hi}" for lo, hi in rule.dport]
    return [""]


def _render_asa(policy: NetworkPolicy, firewall: str, template: DeviceTemplate,
                assignments: list[InterfaceAssignment]) -> str:
    out = [template.format("header", firewall=firewall)]
    addrs = _Memo(_addr_text)
    for a in assignments:
        acl = policy.acl_by_name(firewall, a.acl)
        last_comment = None
        for rule in acl.rules:
            if rule.comment and rule.comment != last_comment:
                out.append(template.format("remark", acl=a.acl, text=rule.comment))
                last_comment = rule.comment
            provenance = _provenance(rule)
            if provenance:
                out.append(template.format("remark", acl=a.acl, text=provenance))
            for ports in _asa_ports(rule):
                out.append(template.format(
                    "rule", acl=a.acl, action=rule.action,
                    proto=_proto_text(rule.protocol), src=addrs[rule.src],
                    dst=addrs[rule.dst], ports=ports,
                    log=" log" if rule.log else ""))
    for a in assignments:
        direction = "in" if a.direction == "inbound" else "out"
        out.append(template.format("bind", acl=a.acl, direction=direction,
                                   interface=a.interface))
    out.append(template.format("footer"))
    return "\n".join(out) + "\n"


_IPT_BIND_FORWARD = re.compile(r"^-A FORWARD -i (\S+) -j (\S+)$")
_IPT_BIND_LOCAL = re.compile(r"^-A (INPUT|OUTPUT) -j (\S+)$")
_IPT_RULE = re.compile(r"^-A (\S+)(.*) -j (ACCEPT|DROP)$")


def parse_iptables_like(text: str) -> tuple[dict[str, list[AclRule]],
                                            list[tuple[str, str, str]]]:
    """Load the iptables-like rendering back into rules and bindings.

    Semantics-preserving, not structure-preserving: multi-range rules come
    back as one rule per range, which decides identically.  LOG lines and
    comments are skipped.  Bindings are (interface, direction, acl) with
    the local stages mapped from INPUT/OUTPUT.
    """
    acls: dict[str, list[AclRule]] = {}
    bindings: list[tuple[str, str, str]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith(("#", ":", "*")) or line == "COMMIT":
            continue
        bind = _IPT_BIND_FORWARD.match(line)
        if bind:
            bindings.append((bind.group(1), "inbound", bind.group(2)))
            continue
        bind = _IPT_BIND_LOCAL.match(line)
        if bind:
            direction = "inbound" if bind.group(1) == "INPUT" else "outbound"
            bindings.append((LOCAL_INTERFACE, direction, bind.group(2)))
            continue
        rule_m = _IPT_RULE.match(line)
        if rule_m is None:
            if "-j LOG" in line:
                continue
            raise PolicyError(f"unrecognized iptables-like line: {line!r}")
        chain, match, target = rule_m.groups()
        acls.setdefault(chain, []).append(_iptables_rule(match, target))
    return acls, bindings


def _iptables_rule(match: str, target: str) -> AclRule:
    tokens = match.split()
    protocol: int | None = None
    src = (ipaddress.IPv4Network("0.0.0.0/0"),)
    dst = (ipaddress.IPv4Network("0.0.0.0/0"),)
    sport: tuple[PortRange, ...] = ()
    dport: tuple[PortRange, ...] = ()
    state: tuple[str, ...] = ()
    i = 0

    def port_of(text: str) -> PortRange:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return PortRange(int(lo), int(hi))
        return PortRange(int(text), int(text))

    while i < len(tokens):
        flag = tokens[i]
        if flag == "-p":
            name = tokens[i + 1]
            protocol = PROTOCOL_NUMBERS[name] if name in PROTOCOL_NUMBERS else int(name)
            i += 2
        elif flag == "-s":
            src = _parse_addr(tokens[i + 1])
            i += 2
        elif flag == "-d":
            dst = _parse_addr(tokens[i + 1])
            i += 2
        elif flag == "--sport":
            sport = (port_of(tokens[i + 1]),)
            i += 2
        elif flag == "--dport":
            dport = (port_of(tokens[i + 1]),)
            i += 2
        elif flag == "--icmp-type":
            dport = (PortRange(int(tokens[i + 1]), int(tokens[i + 1])),)
            i += 2
        elif flag == "-m" and i + 1 < len(tokens) and tokens[i + 1] == "state":
            i += 2
        elif flag == "--state":
            state = tuple(tokens[i + 1].split(","))
            i += 2
        else:
            raise PolicyError(f"unrecognized iptables-like match flag {flag!r}")
    return AclRule(
        action="permit" if target == "ACCEPT" else "deny",
        protocol=protocol, src=src, dst=dst, sport=sport, dport=dport, state=state)


# ---------------------------------------------------------------------------
# compile manifest and LoC metrics

def build_manifest(policy: NetworkPolicy) -> dict:
    """Machine-readable summary the simulator reconstructs the network from."""
    model = policy.model
    return {
        "zones": {
            name: {"kind": zone.kind, "members": sorted(zone.members),
                   "cidrs": [str(c) for c in zone.cidrs]}
            for name, zone in sorted(model.zones.items())
        },
        "conduits": [
            {"zones": list(pair), "firewalls": sorted(conduit.firewalls)}
            for pair, conduit in sorted(model.conduits.items())
        ],
        "firewall_interfaces": {
            fw: dict(sorted(ifaces.items()))
            for fw, ifaces in sorted(model.firewall_interfaces.items())
        },
        "assignments": [
            {"firewall": a.firewall, "interface": a.interface,
             "direction": a.direction, "acl": a.acl,
             "file": f"{a.firewall}.neutral.acl"}
            for a in policy.assignments
        ],
        "flows": [
            {
                "rule": flow.rule_name,
                "src_zone": flow.src_zone,
                "dst_zone": flow.dst_zone,
                "service": {
                    "name": flow.service.name,
                    "protocol": flow.service.protocol,
                    "source_ports": [[r.lo, r.hi] for r in flow.service.source_ports],
                    "dest_ports": [[r.lo, r.hi] for r in flow.service.dest_ports],
                    "icmp_types": [[r.lo, r.hi] for r in flow.service.icmp_types],
                },
            }
            for flow in policy.flows
        ],
        "options": {"ospf": policy.options.ospf, "log_denies": policy.log_denies},
    }


def manifest_json(policy: NetworkPolicy) -> str:
    return json.dumps(build_manifest(policy), indent=1, sort_keys=True) + "\n"


def _count_loc(text: str, comment_prefixes: tuple[str, ...]) -> int:
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not any(stripped.startswith(p) for p in comment_prefixes):
            count += 1
    return count


@dataclass(frozen=True)
class LocMetrics:
    high_level_loc: int
    device_loc: int

    @property
    def ratio(self) -> float:
        return self.device_loc / self.high_level_loc if self.high_level_loc else 0.0


def loc_metrics(spec: PolicySpec, device_configs: Iterable[str]) -> LocMetrics:
    """Line counts: the policy source versus the iptables-like configs
    rendered from it, blank and comment lines excluded."""
    high = max(1, _count_loc(spec.source, ("//",)))
    device = sum(_count_loc(text, ("#",)) for text in device_configs)
    return LocMetrics(high, device)
