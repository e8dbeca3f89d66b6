"""Deterministic text rendering of a compiled policy.

The vendor-neutral format is the reference representation: one ``INFO``
header per ACL, ``remark~`` comment lines, and ``~``-separated rule lines
ending in the fixed terminal ``deny~ip~from~any~to~any~sport~~dport~~state~``.
It round-trips exactly through :func:`parse_neutral`.  Device targets
(an iptables-like and an ASA-like dialect) are rendered from template
files with substitution slots and carry rule provenance as comments.

One compile renders each rule many times: once per dialect, and once
more for every ACL and firewall that holds the same :class:`AclRule`
object.  A :class:`RenderCache` made for one compile builds each distinct
rule's text once, each dialect's part when that dialect first asks for
it, and loads each template once; serial firewalls share :class:`Acl`
objects, and the cache writes each ACL's block of lines once per
dialect.  A template is compiled when it is loaded, each section into
literal text and slot names; a section is bound once per ACL with the
slots that stay fixed there (the ACL name, and the iptables target or
log prefix) written in, into a line builder that concatenates or fills
one ``%`` format, so no line parses a format string.  The cache keeps
each binding for the rest of the compile, so ACL names that recur across
firewalls are bound once.  The cache lives only as long as the compile
that made it; a render call given no cache makes its own.
"""

from __future__ import annotations

import ipaddress
import json
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

from forestfw.diagnostics import InputError, PolicyError, read_text
from forestfw.header_space import STATES
from forestfw.netgen import (
    Acl,
    AclRule,
    InterfaceAssignment,
    NetworkPolicy,
)
from forestfw.policy_lang.syntax import (FULL_PORT_RANGE, ICMP_TYPE_MAX, PORT_MAX,
                                         PROTOCOL_NAMES, PROTOCOL_NUMBERS, PolicySpec,
                                         PortRange)
from forestfw.topo_model import LOCAL_INTERFACE

NEUTRAL_HEADER = "INFO Vendor neutral network-level ruleset for ACL: "
TERMINAL_DENY_LINE = "deny~ip~from~any~to~any~sport~~dport~~state~"

_TEMPLATE_DIR = Path(__file__).parent / "templates"
VENDORS = ("iptables_like", "asa_like")


# ---------------------------------------------------------------------------
# rule text, shared by the neutral format and the device dialects

def _ports_text(ranges: tuple[PortRange, ...]) -> str:
    if not ranges:
        return ""
    parts = [str(r.lo) if r.lo == r.hi else f"'{r.lo}-{r.hi}'" for r in ranges]
    return "[" + ", ".join(parts) + "]"


class _Memo(dict):
    """``compute(key)`` for each key, computed once: one per render cache
    or parse call, where the same address and port fields recur."""

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


def _operators(ranges: tuple[PortRange, ...], single: str, span: str) -> list[str]:
    """A device's port operator for each range, formatted from ``single``
    or ``span``; the whole port range, or no range, is left unwritten."""
    return ["" if r == FULL_PORT_RANGE else single.format(r.lo) if r.lo == r.hi
            else span.format(r.lo, r.hi) for r in ranges] or [""]


class _RuleText:
    """One rule's text: the fields every dialect shares, computed with the
    entry, and each dialect's own text, computed when that dialect first
    renders the rule from the cache's memos."""

    __slots__ = ("rule", "action", "proto", "src", "dst", "log", "provenance",
                 "_neutral", "_iptables", "_asa")

    def __init__(self, rule: AclRule, src: str, dst: str, log_denies: bool) -> None:
        self.rule = rule  # keeps the rule, and so its id(), alive as long as the entry
        # read on every line the rule renders: a slot reads faster than a tuple field
        self.action = rule.action
        self.proto = _proto_text(rule.protocol)
        self.src = src
        self.dst = dst
        # the devices log what the rule logs and, if the policy says so,
        # every deny; the neutral format carries the rule's own flag only
        self.log = rule.log or (rule.action == "deny" and log_denies)
        self.provenance = _provenance(rule)
        self._neutral: str | None = None
        self._iptables: list[str] | None = None
        self._asa: list[tuple[str, str]] | None = None

    def neutral(self, cache: RenderCache) -> str:
        if self._neutral is None:
            rule = self.rule
            # only the any -> any ip deny takes the fixed form, whatever its log flag
            if (rule.action == "deny" and rule.protocol is None and self.src == self.dst == "any"
                    and not (rule.sport or rule.dport or rule.state)):
                self._neutral = TERMINAL_DENY_LINE
            else:
                ports = cache.neutral_ports
                self._neutral = "~".join((
                    rule.action, self.proto, "from", self.src, "to", self.dst,
                    "sport", ports[rule.sport], "dport", ports[rule.dport],
                    "state", ",".join(rule.state))) + ("~log" if rule.log else "")
        return self._neutral

    def iptables(self, cache: RenderCache) -> list[str]:
        """Match-expression variants, one per port-range combination or ICMP type."""
        if self._iptables is None:
            rule = self.rule
            base = ""
            if rule.protocol is not None:
                base += f" -p {self.proto}"
            if self.src != "any":
                base += f" -s {self.src}"
            if self.dst != "any":
                base += f" -d {self.dst}"
            state = f" -m state --state {','.join(rule.state)}" if rule.state else ""
            if rule.protocol in (6, 17):
                self._iptables = [base + sport + dport + state
                                  for sport in cache.iptables_sports[rule.sport]
                                  for dport in cache.iptables_dports[rule.dport]]
            elif rule.protocol == 1 and rule.dport:
                self._iptables = [f"{base} --icmp-type {icmp_type}{state}"
                                  for lo, hi in rule.dport for icmp_type in range(lo, hi + 1)]
            else:
                self._iptables = [base + state]
        return self._iptables

    def asa(self, cache: RenderCache) -> list[tuple[str, str]]:
        """(source, destination) port operator variants: each operator is
        written after its own address."""
        if self._asa is None:
            rule = self.rule
            if rule.protocol in (6, 17):
                ports = cache.asa_ports
                self._asa = [(sport, dport) for sport in ports[rule.sport]
                             for dport in ports[rule.dport]]
            elif rule.protocol == 1 and rule.dport:
                # an entry takes one ICMP type: one entry per type
                self._asa = [("", f" {icmp_type}")
                             for lo, hi in rule.dport for icmp_type in range(lo, hi + 1)]
            else:
                self._asa = [("", "")]
        return self._asa


def _provenance(rule: AclRule) -> str:
    """``<rule_name>: <service comment>`` so nobody wonders why a rule exists."""
    if not rule.origin_rule:
        return ""
    what = rule.service_comment or rule.origin_service
    return f"{rule.origin_rule}: {what}"


class RenderCache:
    """The text one compile renders more than once: each distinct rule's
    fields, each port list's text per dialect, each device template, each
    template section bound to the slot values fixed per ACL (:meth:`bind`),
    and each ACL's block of lines per dialect (:meth:`block`).

    Firewalls and ACLs share :class:`AclRule` objects, and serial firewalls
    share :class:`Acl` objects, so an entry is keyed by the rule's or the
    ACL's identity (hashing a rule would hash its networks, which costs
    more than the text it saves); the entry keeps its object alive, so the
    key is not reused while the cache lives.  Each address network's text
    is kept the same way.  Make one per compile, for the policy whose
    ``log_denies`` it is given, and pass it to every render call of that
    compile; a render call without one makes its own.
    """

    def __init__(self, log_denies: bool = False) -> None:
        self.log_denies = log_denies
        self._rules: dict[int, _RuleText] = {}
        self._acls: dict[int, tuple[Acl, list[tuple[str, _RuleText]]]] = {}
        self._blocks: dict[tuple[int, object], tuple[Acl, str | None, int]] = {}
        self._nets: dict[int, tuple[ipaddress.IPv4Network, str, str]] = {}
        self._templates: dict[tuple[str, Path | None], DeviceTemplate] = {}
        self._bound: dict[tuple, BoundSection] = {}
        self.neutral_ports = _Memo(_ports_text)
        self.iptables_sports = _Memo(lambda r: _operators(r, " --sport {}", " --sport {}:{}"))
        self.iptables_dports = _Memo(lambda r: _operators(r, " --dport {}", " --dport {}:{}"))
        self.asa_ports = _Memo(lambda r: _operators(r, " eq {}", " range {} {}"))
        self.iptables_loc = 0  # non-comment lines of the iptables configs rendered

    def rule(self, rule: AclRule) -> _RuleText:
        text = self._rules.get(id(rule))
        if text is None:
            text = self._rules[id(rule)] = _RuleText(
                rule, self._addresses(rule.src), self._addresses(rule.dst), self.log_denies)
        return text

    def acl(self, acl: Acl) -> list[tuple[str, _RuleText]]:
        """Each of an ACL's rules in order, as the remark to write before
        its text and the text: the rule's comment when it differs from the
        last comment before it, else "", so a run of equal comments is
        remarked once.  Listed once for the ACL's three renderings (kept
        with the ACL, keyed by its identity)."""
        entry = self._acls.get(id(acl))
        if entry is None:
            pairs = []
            last = ""
            for rule in acl.rules:
                comment = rule.comment
                pairs.append((comment if comment != last else "", self.rule(rule)))
                last = comment or last
            entry = self._acls[id(acl)] = (acl, pairs)
        return entry[1]

    def block(self, acl: Acl, template: DeviceTemplate | None,
              write: Callable[[Acl, DeviceTemplate | None, RenderCache], tuple[list[str], int]]
              ) -> tuple[str | None, int]:
        """``write(acl, template, self)``'s lines of the ACL, joined, or None
        for no line, and the non-comment lines it counts; written once per
        ACL and template (None for the neutral format)."""
        entry = self._blocks.get((id(acl), template))
        if entry is None:
            lines, loc = write(acl, template, self)
            entry = self._blocks[id(acl), template] = (
                acl, "\n".join(lines) if lines else None, loc)
        return entry[1], entry[2]

    def _addresses(self, nets: tuple[ipaddress.IPv4Network, ...]) -> str:
        if len(nets) == 1:
            entry = self._nets.get(id(nets[0])) or self._net(nets[0])
            return entry[2]
        return ",".join((self._nets.get(id(net)) or self._net(net))[1] for net in nets)

    def _net(self, net: ipaddress.IPv4Network) -> tuple[ipaddress.IPv4Network, str, str]:
        """(net, its text, its text as a whole address field)."""
        text = str(net)
        entry = self._nets[id(net)] = (net, text, "any" if net.prefixlen == 0 else text)
        return entry

    def template(self, vendor_id: str, templates_dir: Path | None) -> DeviceTemplate:
        key = (vendor_id, templates_dir)
        if key not in self._templates:
            self._templates[key] = load_template(vendor_id, templates_dir)
        return self._templates[key]

    def bind(self, template: DeviceTemplate, section: str, **fixed: str) -> BoundSection:
        """``template.bind(section, **fixed)``, bound once per cache: the
        ACL names ``acl_1`` ... recur across firewalls, and so do the
        sections bound to them."""
        key = (template, section, *fixed.items())
        bound = self._bound.get(key)
        if bound is None:
            bound = self._bound[key] = template.bind(section, **fixed)
        return bound


# ---------------------------------------------------------------------------
# vendor-neutral format

def render_neutral(acl: Acl) -> str:
    """The vendor-neutral ruleset text for one ACL."""
    return _acl_text(acl, RenderCache())


def _acl_text(acl: Acl, cache: RenderCache) -> str:
    return cache.block(acl, None, _neutral_lines)[0] + "\n"


def _neutral_lines(acl: Acl, template: None, cache: RenderCache) -> tuple[list[str], int]:
    lines = [NEUTRAL_HEADER + acl.name]
    for comment, text in cache.acl(acl):
        if comment:
            lines.append(f"  remark~{comment}")
        lines.append("  " + text.neutral(cache))
    return lines, 0


def render_neutral_file(policy: NetworkPolicy, firewall: str,
                        cache: RenderCache | None = None) -> str:
    """All of a firewall's ACLs in assignment order."""
    cache = cache or RenderCache(policy.log_denies)
    return "\n".join(_acl_text(acl, cache) for acl in policy.acls[firewall])


def _parse_ports(text: str, limit: int = PORT_MAX) -> tuple[PortRange, ...]:
    """A port (or ICMP-type) list; each range must lie within 0..``limit``."""
    if not text:
        return ()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"malformed port list {text!r}")
    inner = text[1:-1]
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
    if not set(states) <= set(STATES):
        raise ValueError(f"unknown state in {text!r}")
    return states


def _parse_addr(text: str) -> tuple[ipaddress.IPv4Network, ...]:
    if text == "any":
        return (ipaddress.IPv4Network("0.0.0.0/0"),)
    return tuple(ipaddress.IPv4Network(part) for part in text.split(","))


def _addr_text(nets: tuple[ipaddress.IPv4Network, ...]) -> str:
    """An address field as ``RenderCache`` writes it in a neutral rule line."""
    if len(nets) == 1 and nets[0].prefixlen == 0:
        return "any"
    return ",".join(map(str, nets))


def _parse_proto(text: str) -> int | None:
    protocol = PROTOCOL_NUMBERS[text] if text in PROTOCOL_NUMBERS else int(text)
    if protocol is not None and not 0 <= protocol <= 255:
        raise ValueError(f"protocol {protocol} outside 0-255")
    return protocol


def _canonical(parse: Callable, write: Callable) -> Callable:
    """``parse`` of a field text, refusing a text that ``write`` does not
    give back for the value read: the neutral format has one spelling per
    value."""
    def read(text: str):
        value = parse(text)
        if write(value) != text:
            raise ValueError(f"{text!r} is not written as {write(value)!r}")
        return value
    return read


def neutral_field_memos() -> tuple[_Memo, ...]:
    """The address, protocol, port, ICMP-type and state field memos of
    :func:`parse_neutral`, which calls may share."""
    return (_Memo(_canonical(_parse_addr, _addr_text)),
            _Memo(_canonical(_parse_proto, _proto_text)),
            _Memo(_canonical(_parse_ports, _ports_text)),
            _Memo(_canonical(lambda text: _parse_ports(text, ICMP_TYPE_MAX), _ports_text)),
            _Memo(_canonical(_parse_states, ",".join)))


def parse_neutral(text: str, file: str = "<neutral>",
                  decoded: dict[tuple[str, str], AclRule] | None = None,
                  fields: tuple[_Memo, ...] | None = None) -> list[Acl]:
    """Inverse of render_neutral over a whole neutral file.

    Each rule carries the last remark above it in its ACL, except the
    fixed terminal deny, which carries none.  Each distinct address,
    protocol, port, ICMP-type or state field text is parsed and checked
    once per ``fields`` (from :func:`neutral_field_memos`), each (rule
    line, remark) once per ``decoded``: memos calls may share, made
    afresh when not given.  A field is read only as :func:`render_neutral`
    writes its value: ``[8_0]``, ``6`` for tcp or ``10.0.0.0/255.255.255.0``
    do not parse.  A line that does not parse or holds an unknown or
    out-of-range value, and a second ACL of one name, raise
    :class:`InputError` naming ``file`` and the line.
    """
    acls: list[Acl] = []
    name: str | None = None
    rules: list[AclRule] = []
    comment = ""
    decoded = {} if decoded is None else decoded
    fields = neutral_field_memos() if fields is None else fields

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
        # the fixed terminal line is written without a remark, like its log flag
        key = (line, "" if line == TERMINAL_DENY_LINE else comment)
        if key not in decoded:
            try:
                decoded[key] = _parse_rule_neutral(line, key[1], *fields)
            except ValueError as exc:
                raise InputError(f"malformed neutral rule line: {exc}: {line!r}",
                                 file, lineno) from exc
        rules.append(decoded[key])
    flush()
    return acls


def _parse_rule_neutral(line: str, comment: str, addresses: _Memo, protocols: _Memo,
                        ports: _Memo, icmp_types: _Memo, states: _Memo) -> AclRule:
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
    protocol = protocols[proto]
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

# the sections of each dialect's template and the slots each one is given,
# in the order a bound section takes the slots left open (DeviceTemplate.bind)
_TEMPLATE_SLOTS: dict[str, dict[str, tuple[str, ...]]] = {
    "iptables_like": {
        "header": ("firewall",),
        "chain_decl": ("acl",),
        "bind_forward": ("interface", "acl"),
        "bind_input": ("acl",),
        "bind_output": ("acl",),
        "remark": ("text",),
        "rule": ("acl", "match", "target"),
        "log_rule": ("acl", "match", "prefix"),
        "footer": (),
    },
    "asa_like": {
        "header": ("firewall",),
        "remark": ("acl", "text"),
        "rule": ("acl", "action", "proto", "src", "sport", "dst", "dport", "log"),
        "bind": ("acl", "direction", "interface"),
        "footer": (),
    },
}

# a literal brace pair, a slot, or a brace that pairs with nothing
_BRACES = re.compile(r"\{(?:\{|[^{}]*\})?|\}\}?")
_LITERAL_BRACES = frozenset({"{{", "}}"})


class BoundSection(NamedTuple):
    """A template section with its fixed slots filled in (``DeviceTemplate.bind``)."""

    line: Callable[..., str]  # the section's text, given the open slots positionally
    loc: int | None  # the non-comment lines each call writes, None if a value can decide


@dataclass(frozen=True, eq=False)
class DeviceTemplate:
    """A dialect's template: each section's checked body, and the body
    compiled into ``parts``, literal text (braces unescaped) alternating
    with slot names, first and last part literal.  Compared and hashed by
    identity, so a render cache can key its bindings by it."""

    vendor_id: str
    sections: dict[str, str]
    parts: dict[str, tuple[str, ...]]

    def bind(self, section: str, **fixed: str) -> BoundSection:
        """The section with the ``fixed`` slot values written in literally;
        its line builder takes the slots left open positionally, in their
        ``_TEMPLATE_SLOTS`` order, and writes what ``str.format`` of the
        body would.  A slot may appear any number of times, or not at all.
        One open slot written once is concatenated; more are one
        ``%``-format over a format string with literal ``%`` escaped."""
        open_slots = [slot for slot in _TEMPLATE_SLOTS[self.vendor_id][section]
                      if slot not in fixed]
        parts = self.parts[section]
        literals, picks = [parts[0]], []
        for k in range(1, len(parts), 2):
            slot, after = parts[k], parts[k + 1]
            if slot in fixed:
                literals[-1] += fixed[slot] + after
            else:
                picks.append(open_slots.index(slot))
                literals.append(after)
        return BoundSection(_line_builder(literals, picks, len(open_slots)),
                            _static_loc(literals))


def _line_builder(literals: list[str], picks: list[int], arity: int) -> Callable[..., str]:
    """The builder of a line that writes argument ``picks[i]`` between
    ``literals[i]`` and ``literals[i + 1]``, given ``arity`` arguments."""
    if not picks:
        text = literals[0]
        return lambda *args: text
    if arity == 1 and len(picks) == 1:
        head, tail = literals
        return lambda arg: head + arg + tail
    fmt = "%s".join(literal.replace("%", "%%") for literal in literals)
    if picks == list(range(arity)):
        return lambda *args: fmt % args
    pick = itemgetter(*picks)  # one pick gives one value: a str, as ``%`` takes it
    return lambda *args: fmt % pick(args)


def _static_loc(literals: list[str]) -> int | None:
    """The non-comment lines a bound section writes when no value breaks
    a line, or None when a line starts with an open slot, which only the
    written text can tell; ``literals`` surround the open slots."""
    # a character no literal holds stands for each open slot
    mark = next(c for c in map(chr, range(0xE000, 0xF900)) if not any(c in x for x in literals))
    count = 0
    for line in mark.join(literals).splitlines():
        line = line.strip()
        if line.startswith(mark):
            return None
        count += bool(line) and not line.startswith("#")
    return count


def load_template(vendor_id: str, templates_dir: Path | None = None) -> DeviceTemplate:
    """Read and check ``<vendor_id>.tmpl``: every section of the dialect is
    present once, and each names only the slots it is given.  A template
    path that is not a file is no template for the vendor; a template
    that cannot be read, is not UTF-8 or fails the check raises
    :class:`InputError` naming the file and the line."""
    root = Path(templates_dir) if templates_dir else _TEMPLATE_DIR
    path = root / f"{vendor_id}.tmpl"
    file = str(path)
    if not path.is_file():
        raise InputError(f"no template for vendor {vendor_id!r}", file)
    text = read_text(path)
    wanted = _TEMPLATE_SLOTS[vendor_id]
    sections: dict[str, tuple[int, str]] = {}  # name -> (line of its header, text)
    current: str | None = None
    header_line = 0
    buf: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.startswith("[") and line.endswith("]"):
            if current is not None:
                sections[current] = (header_line, "\n".join(buf))
            current = line[1:-1]
            if current not in wanted:
                raise InputError(f"unknown section [{current}]", file, lineno, 1)
            if current in sections:
                raise InputError(f"second [{current}] section", file, lineno, 1)
            header_line, buf = lineno, []
        elif current is not None:
            buf.append(line)
    if current is not None:
        sections[current] = (header_line, "\n".join(buf))
    missing = [name for name in wanted if name not in sections]
    if missing:
        raise InputError(f"no [{missing[0]}] section", file)
    bodies, parts = {}, {}
    for name, (header_line, body) in sections.items():
        parts[name] = _compile_section(body, frozenset(f"{{{slot}}}" for slot in wanted[name]),
                                       name, file, header_line)
        bodies[name] = body.strip("\n")
    return DeviceTemplate(vendor_id, bodies, parts)


def _compile_section(body: str, slots: frozenset[str], section: str, file: str,
                     header_line: int) -> tuple[str, ...]:
    """``body``, stripped of its leading and trailing newlines, as literal
    text (braces unescaped) alternating with slot names.  Raise for the
    first brace in ``body`` that is neither a literal pair nor one of
    ``slots``, at its line and column in the file."""
    parts, literal, end = [], "", 0
    for match in _BRACES.finditer(body):
        brace = match.group()
        literal += body[end:match.start()]
        end = match.end()
        if brace in _LITERAL_BRACES:
            literal += brace[0]
        elif brace in slots:
            parts += (literal, brace[1:-1])
            literal = ""
        else:
            offset = match.start()
            line = header_line + 1 + body.count("\n", 0, offset)
            col = offset - body.rfind("\n", 0, offset)
            if len(brace) == 1:
                raise InputError(f"unpaired {brace!r} in [{section}] (write {brace * 2} "
                                 f"for a literal brace)", file, line, col)
            raise InputError(f"[{section}] has no slot {brace}; its slots are "
                             + ", ".join(sorted(slots)), file, line, col)
    parts.append(literal + body[end:])
    parts[0] = parts[0].lstrip("\n")
    parts[-1] = parts[-1].rstrip("\n")
    return tuple(parts)


def render_device(policy: NetworkPolicy, firewall: str, vendor_id: str,
                  templates_dir: Path | None = None, cache: RenderCache | None = None) -> str:
    """Render one firewall's configuration for a device target."""
    cache = cache or RenderCache(policy.log_denies)
    if vendor_id not in VENDORS:
        raise PolicyError(f"unknown vendor {vendor_id!r}")
    if firewall not in policy.acls:
        raise PolicyError(f"unknown firewall {firewall!r}")
    template = cache.template(vendor_id, templates_dir)
    assignments = [a for a in policy.assignments if a.firewall == firewall]
    if vendor_id == "iptables_like":
        return _render_iptables(policy, firewall, template, assignments, cache)
    return _render_asa(policy, firewall, template, assignments, cache)


def _render_iptables(policy: NetworkPolicy, firewall: str, template: DeviceTemplate,
                     assignments: list[InterfaceAssignment], cache: RenderCache) -> str:
    bind = cache.bind
    out = [bind(template, "header").line(firewall)]
    chain_decl = bind(template, "chain_decl").line
    out.extend(chain_decl(a.acl) for a in assignments)
    for a in assignments:
        if a.interface == LOCAL_INTERFACE:
            section = "bind_input" if a.direction == "inbound" else "bind_output"
            out.append(bind(template, section).line(a.acl))
        else:
            out.append(bind(template, "bind_forward").line(a.interface, a.acl))
    loc = sum(_count_loc(piece, ("#",)) for piece in out)
    for a in assignments:
        block, block_loc = cache.block(policy.acl_by_name(firewall, a.acl), template,
                                       _iptables_lines)
        if block is not None:
            out.append(block)
        loc += block_loc
    footer = bind(template, "footer").line()
    out.append(footer)
    cache.iptables_loc += loc + _count_loc(footer, ("#",))
    return "\n".join(out) + "\n"


def _iptables_lines(acl: Acl, template: DeviceTemplate,
                    cache: RenderCache) -> tuple[list[str], int]:
    """An ACL's iptables lines and their non-comment lines, counted as they
    are written: by the call while each section has a static count and no
    value breaks a line, by the written text otherwise."""
    bind = cache.bind
    remark = bind(template, "remark")
    accept = bind(template, "rule", acl=acl.name, target="ACCEPT")
    drop = bind(template, "rule", acl=acl.name, target="DROP")
    log = bind(template, "log_rule", acl=acl.name, prefix=f"{acl.name}: ")
    static = None not in (remark.loc, accept.loc, drop.loc, log.loc)
    write_remark, write_log = remark.line, log.line
    out: list[str] = []
    loc = remarks = 0
    for comment, text in cache.acl(acl):
        if comment:
            out.append(write_remark(comment))
            static = static and comment.isprintable()
            remarks += 1
        if text.provenance:
            out.append(write_remark(text.provenance))
            static = static and text.provenance.isprintable()
            remarks += 1
        rule = accept if text.action == "permit" else drop
        write_rule = rule.line
        matches = text.iptables(cache)  # numbers and keywords: they break no line
        for match in matches:
            if text.log:
                out.append(write_log(match))
            out.append(write_rule(match))
        if static:
            loc += len(matches) * (rule.loc + log.loc if text.log else rule.loc)
    if not static:
        return out, _count_loc("\n".join(out), ("#",))
    return out, loc + remarks * remark.loc


def _render_asa(policy: NetworkPolicy, firewall: str, template: DeviceTemplate,
                assignments: list[InterfaceAssignment], cache: RenderCache) -> str:
    bind = cache.bind
    out = [bind(template, "header").line(firewall)]
    for a in assignments:
        block, _ = cache.block(policy.acl_by_name(firewall, a.acl), template, _asa_lines)
        if block is not None:
            out.append(block)
    access_group = bind(template, "bind").line
    for a in assignments:
        direction = "in" if a.direction == "inbound" else "out"
        out.append(access_group(a.acl, direction, a.interface))
    out.append(bind(template, "footer").line())
    return "\n".join(out) + "\n"


def _asa_lines(acl: Acl, template: DeviceTemplate, cache: RenderCache) -> tuple[list[str], int]:
    remark = cache.bind(template, "remark", acl=acl.name).line
    rule_line = cache.bind(template, "rule", acl=acl.name).line
    out: list[str] = []
    for comment, text in cache.acl(acl):
        if comment:
            out.append(remark(comment))
        if text.provenance:
            out.append(remark(text.provenance))
        log = " log" if text.log else ""
        for sport, dport in text.asa(cache):
            out.append(rule_line(text.action, text.proto, text.src, sport, text.dst, dport, log))
    return out, 0


# ---------------------------------------------------------------------------
# compile manifest and LoC metrics

TOPOLOGY_FILE = "topology.graphml"  # the copy of the topology a compile writes
MANIFEST_SCHEMA = 2
SERVICE_RANGES = ("source_ports", "dest_ports", "icmp_types")  # a service's range lists


def neutral_file(firewall: str) -> str:
    """The name of the file that holds ``firewall``'s neutral ACLs."""
    return f"{firewall}.neutral.acl"


def build_manifest(policy: NetworkPolicy) -> dict:
    """What the simulator reads beside the topology copy and the neutral
    files: each ACL binding, each expanded flow naming its service, each
    service once under its name, and the compile options.  The model is
    not recorded: the simulator derives it from the topology copy."""
    return {
        "schema": MANIFEST_SCHEMA,
        "assignments": [a._asdict() for a in policy.assignments],
        "flows": [{"rule": flow.rule_name, "src_zone": flow.src_zone,
                   "dst_zone": flow.dst_zone, "service": flow.service.name}
                  for flow in policy.flows],
        "services": {flow.service.name: {key: getattr(flow.service, key)
                                         for key in ("protocol", *SERVICE_RANGES)}
                     for flow in policy.flows},
        "options": {"ospf": policy.options.ospf, "log_denies": policy.log_denies},
    }


def manifest_json(policy: NetworkPolicy) -> str:
    """The manifest as JSON, keys sorted: one line per top-level key, and
    one line per entry of a list- or dict-valued key, so that a diff of
    two manifests shows the flows, assignments or services that changed."""
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps makes one per call
    lines = []
    for key, value in sorted(build_manifest(policy).items()):
        if isinstance(value, list) and value:
            body = ",\n".join("  " + encode(entry) for entry in value)
            value_text = f"[\n{body}\n ]"
        elif isinstance(value, dict) and value:
            body = ",\n".join(f"  {json.dumps(name)}: {encode(entry)}"
                               for name, entry in sorted(value.items()))
            value_text = f"{{\n{body}\n }}"
        else:
            value_text = json.dumps(value)
        lines.append(f" {json.dumps(key)}: {value_text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _count_loc(text: str, comment_prefixes: tuple[str, ...]) -> int:
    count = 0
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith(comment_prefixes):
            count += 1
    return count


class LocMetrics(NamedTuple):
    high_level_loc: int
    device_loc: int

    @property
    def ratio(self) -> float:
        return self.device_loc / self.high_level_loc if self.high_level_loc else 0.0


def loc_metrics(spec: PolicySpec, device_loc: int) -> LocMetrics:
    """Line counts: the policy source versus the iptables-like configs
    rendered from it (``RenderCache.iptables_loc``), blank and comment
    lines excluded."""
    return LocMetrics(max(1, _count_loc(spec.source, ("//",))), device_loc)
