"""Recursive-descent parser and import resolver.

The syntactic pass reads a file's token texts by index and compares them
in place: each declaration is one step of one loop that keeps the tokens
and the next index in locals, calling out only for a dotted name or a
value other than one word.  A raw declaration is its kind, its name, the
index of the name's token, its :class:`~forestfw.policy_lang.lexer.Source`
and a body by kind; imports are merged in front under their namespace
prefix.  The resolver sorts the declarations by kind and builds the
name-resolved :class:`PolicySpec`, each service in one straight-line
step.  The spec's ``name_tokens`` keeps each declaration's (source, token
index) pair, the one record of where names are declared: a line and
column are computed only for a diagnostic or
:meth:`PolicySpec.position_of`, so an error found after the parse names
the declaring file.  Calls that share an import memo parse each imported
(file label, text) pair once, and share its immutable raw and prefixed
declarations and the services built from them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple, TypeVar

from forestfw.diagnostics import PolicyError, read_text
from forestfw.policy_lang.lexer import (
    DIGITS,
    KEYWORDS,
    NOT_A_WORD,
    Source,
    kind_of,
    scan,
    value_of,
)
from forestfw.policy_lang.syntax import (
    PORT_ATTRS,
    PROTOCOL_NUMBERS,
    FULL_RANGE_SET,
    GlobalPolicy,
    HighLevelRule,
    PolicySpec,
    PortGroup,
    PortRange,
    ReportingRule,
    Service,
    ServiceGroup,
    ServiceSet,
    SetExpr,
    Value,
    VBlock,
    VInt,
    VList,
    VName,
    VRange,
    VString,
    ZoneGroup,
)

# Maps a dotted import to a (file label, source text) pair, or to None when
# no file resolves it; the label names the library file in diagnostics.
Importer = Callable[[str], "tuple[str, str] | None"]

_LIBRARY_ROOT = Path(__file__).parent / "library"

_SET_OPS = (",", "^", "\\")
_LIST_OP = (",",)  # joins the members of a rule group
# braced values and groups nest by recursion; deeper nesting is refused,
# not a crash
_MAX_NESTING = 64

_SetT = TypeVar("_SetT")  # ServiceSet or frozenset of zone names


def default_importer(search_paths: tuple[Path, ...] = ()) -> Importer:
    """Resolve dotted library names to their file path and source text.

    ``system.services.iana_services`` maps to
    ``system/services/iana_services.policyml`` under each search path,
    falling back to the built-in library shipped with the package.
    Diagnostics inside the library name that path; a library file that
    is not UTF-8 raises :class:`InputError`.
    """

    def resolve(dotted: str) -> tuple[str, str] | None:
        rel = Path(*dotted.split(".")).with_suffix(".policyml")
        for root in tuple(search_paths) + (_LIBRARY_ROOT,):
            candidate = Path(root) / rel
            if candidate.is_file():
                return str(candidate), read_text(candidate)
        return None

    return resolve


# ---------------------------------------------------------------------------
# raw declarations from the syntactic pass; immutable, so that the parse
# of an imported file can be shared between parse_policy calls

class _RawDecl(NamedTuple):
    kind: str  # service | service_group | port_group | zone_group | policy_rule | rule_group | reporting_rule | policy
    name: str
    tok: int  # the index of the name's token in ``source``
    source: Source
    # by kind: a service's or reporting rule's (key, value) attributes, a
    # port group's ranges, a group's SetExpr, a policy rule's (left,
    # operator, right, SetExpr), a rule group's members, a policy's
    # (rule group, reporting rule)
    body: tuple = ()


class _Import(NamedTuple):
    dotted: str
    tok: int  # the index of the dotted name's first token


class _RawFile(NamedTuple):
    source: Source
    imports: tuple[_Import, ...]
    declared_model: str | None
    decls: tuple[_RawDecl, ...]


def _parse_file(text: str, file: str) -> _RawFile:
    return _Parser(Source(text, file)).raw_file()


# a NamedTuple built without its Python-level constructor
_new = tuple.__new__


class _Parser:
    """Recursive descent over a source's token texts, which it compares in
    place.  A declaration is read in one step of one loop that holds the
    tokens and the index of the next one in locals; only a name of more
    than one segment, a value other than one word and a malformed input
    call out.  The end-of-text token is never passed, so the token after
    any other one exists."""

    def __init__(self, source: Source):
        self.source = source
        self.toks = scan(source)

    def raw_file(self) -> _RawFile:
        toks, source = self.toks, self.source
        imports: list[_Import] = []
        declared_model: str | None = None
        decls: list[_RawDecl] = []
        pos = k = 0
        try:
            while toks[pos]:  # the end of text is the empty token
                kind = toks[pos]
                if kind not in KEYWORDS:
                    raise source.error(f"expected a declaration keyword, got {value_of(kind)!r}",
                                       pos)
                k = pos + 1
                name = toks[k]
                if kind == "import":
                    dotted, pos = self.dotted(k)
                    imports.append(_Import(dotted, k))
                    if toks[pos] != ";":
                        raise self.unexpected("';'", pos)
                    pos += 1
                    continue
                if kind == "load_zone_conduit_model":
                    if kind_of(name) != "string":
                        raise self.unexpected("'model path string'", k)
                    if declared_model is not None:
                        raise source.error("duplicate load_zone_conduit_model", k)
                    declared_model = value_of(name)
                    pos = k + 2 if toks[k + 1] == ";" else k + 1
                    continue
                if name[:1] in NOT_A_WORD or name in KEYWORDS:
                    raise self.unexpected("'declaration name'", k)
                if toks[k + 1] != "{":
                    raise self.unexpected("'{'", k + 1)
                pos = k + 2
                # a name of one segment is read here, any other by dotted()
                if kind == "service" or kind == "reporting_rule":
                    attrs = []
                    while toks[pos] != "}":
                        key = toks[pos]
                        if key[:1] in NOT_A_WORD or toks[pos + 1] == ".":
                            key, pos = self.dotted(pos)
                        else:
                            pos += 1
                        if toks[pos] != "=":
                            raise self.unexpected("'='", pos)
                        value = toks[pos + 1]
                        if value[:1] not in NOT_A_WORD and toks[pos + 2] == ";":  # one word
                            attrs.append((key, VName(value)))
                            pos += 3
                            continue
                        value, pos = self.value(pos + 1)
                        if toks[pos] != ";":
                            raise self.unexpected("';'", pos)
                        pos += 1
                        attrs.append((key, value))
                    body = tuple(attrs)
                elif kind == "port_group":
                    ranges = []
                    while True:
                        lo = toks[pos]
                        if lo[:1] not in DIGITS:
                            raise self.unexpected("'port number'", pos)
                        if toks[pos + 1] != "-":
                            ranges.append(_new(PortRange, (int(lo), int(lo))))
                            pos += 1
                        elif toks[pos + 2][:1] not in DIGITS:
                            raise self.unexpected("'range upper bound'", pos + 2)
                        else:
                            ranges.append(_new(PortRange, (int(lo), int(toks[pos + 2]))))
                            pos += 3
                        if toks[pos] != ",":
                            break
                        pos += 1
                    body = tuple(ranges)
                elif kind != "policy":  # a rule's zones, then names joined by operators
                    if kind == "policy_rule":
                        left = toks[pos]
                        if left[:1] in NOT_A_WORD or toks[pos + 1] == ".":
                            left, pos = self.dotted(pos)
                        else:
                            pos += 1
                        operator = toks[pos]
                        if operator != "->" and operator != "<->":
                            raise source.error("expected '->' or '<->'", pos)
                        right = toks[pos + 1]
                        if right[:1] in NOT_A_WORD or toks[pos + 2] == ".":
                            right, pos = self.dotted(pos + 1)
                        else:
                            pos += 2
                        if toks[pos] != ":":
                            raise self.unexpected("':'", pos)
                        pos += 1
                    first = toks[pos]
                    if first[:1] in NOT_A_WORD or toks[pos + 1] == ".":
                        first, pos = self.dotted(pos)
                    else:
                        pos += 1
                    rest = []
                    ops = _LIST_OP if kind == "rule_group" else _SET_OPS
                    while toks[pos] in ops:
                        op, term = toks[pos], toks[pos + 1]
                        if term[:1] in NOT_A_WORD or toks[pos + 2] == ".":
                            term, pos = self.dotted(pos + 1)
                        else:
                            pos += 2
                        rest.append((op, term))
                    if kind == "rule_group":
                        body = (first, *[term for _, term in rest])
                    else:
                        body = _new(SetExpr, (first, tuple(rest)))
                        if kind == "policy_rule":
                            body = (left, operator, right, body)
                else:  # policy: a rule group, ";", a reporting rule
                    rule_group = toks[pos]
                    if rule_group[:1] in NOT_A_WORD or rule_group in KEYWORDS:
                        raise self.unexpected("'rule-group name'", pos)
                    if toks[pos + 1] != ";":
                        raise self.unexpected("';'", pos + 1)
                    reporting = toks[pos + 2]
                    if reporting[:1] in NOT_A_WORD or reporting in KEYWORDS:
                        raise self.unexpected("'reporting-rule name'", pos + 2)
                    # a trailing separator is optional in the wild
                    pos += 4 if toks[pos + 3] == ";" else 3
                    body = (rule_group, reporting)
                if toks[pos] != "}":
                    raise self.unexpected("'}'", pos)
                pos += 1
                decls.append(_new(_RawDecl, (kind, name, k, source, body)))
        except ValueError:  # more digits than the interpreter converts
            raise self.too_long(k) from None
        return _RawFile(source, tuple(imports), declared_model, tuple(decls))

    def unexpected(self, expected: str, k: int) -> PolicyError:
        """A diagnostic at token ``k``, which is not the one ``expected``."""
        tok = self.toks[k]
        return self.source.error(f"expected {expected}, got {value_of(tok) or kind_of(tok)!r}", k)

    def too_long(self, k: int) -> PolicyError:
        """The diagnostic at the first number from token ``k`` on that
        ``int`` refuses: every number before it was converted."""
        while True:
            tok = self.toks[k]
            if tok[:1] in DIGITS:
                try:
                    int(tok)
                except ValueError:
                    return self.source.error(f"number of {len(tok)} digits is too long", k)
            k += 1

    def dotted(self, k: int) -> tuple[str, int]:
        """The dotted name at token ``k`` and the index after it; keywords
        are legal segments."""
        toks = self.toks
        i = k
        while True:
            if toks[i][:1] in NOT_A_WORD:
                raise self.unexpected("a name", i)
            if toks[i + 1] != ".":
                break
            i += 2
        return (toks[i] if i == k else "".join(toks[k:i + 1])), i + 1

    def value(self, k: int, depth: int = 0, atom: bool = False) -> tuple[Value, int]:
        """The value at token ``k`` and the index after it: one atom or,
        unless ``atom``, a ``,`` list of atoms."""
        toks = self.toks
        items: list[Value] = []
        while True:
            tok = toks[k]
            first = tok[:1]
            if first not in NOT_A_WORD:
                item, k = VName(tok), k + 1
            elif first in DIGITS:
                if toks[k + 1] != "-":
                    item, k = VInt(int(tok)), k + 1
                elif toks[k + 2][:1] not in DIGITS:
                    raise self.unexpected("'range upper bound'", k + 2)
                else:
                    item, k = VRange(int(tok), int(toks[k + 2])), k + 3
            elif first == '"' or first == "`":
                item, k = VString(value_of(tok)), k + 1
            elif tok == "{":
                item, k = self.block(k, depth)
            else:
                raise self.unexpected("a value", k)
            items.append(item)
            if atom or toks[k] != ",":
                return (items[0] if len(items) == 1 else VList(tuple(items))), k
            k += 1

    def block(self, k: int, depth: int) -> tuple[VBlock, int]:
        """The braced value whose ``{`` is token ``k``, and the index after it."""
        toks = self.toks
        if depth == _MAX_NESTING:
            raise self.source.error(f"value blocks nested more than {_MAX_NESTING} deep", k)
        k += 1
        items: list[tuple[str | None, Value]] = []
        while toks[k] != "}":
            key = None
            if toks[k][:1] not in NOT_A_WORD and self.at_assignment(k):
                key, k = self.dotted(k)
                k += 1  # past the "="
            value, k = self.value(k, depth + 1, atom=key is None)
            items.append((key, value))
            if toks[k] != ";" and toks[k] != ",":
                break
            k += 1
        if toks[k] != "}":
            raise self.unexpected("'}'", k)
        return VBlock(tuple(items)), k + 1

    def at_assignment(self, i: int) -> bool:
        """Whether a dotted key and ``=`` start at token ``i``."""
        toks = self.toks
        while toks[i][:1] not in NOT_A_WORD:
            i += 1
            if toks[i] != ".":
                break
            i += 1
        return toks[i] == "="


# ---------------------------------------------------------------------------
# import merging

def _prefix_decls(decls: tuple[_RawDecl, ...], prefix: str) -> list[_RawDecl]:
    """Qualify declarations from an imported file with ``prefix.``.

    References within the imported file to its own names are rewritten to
    the qualified form so they keep resolving after the merge.
    """
    own = {d.name for d in decls}

    def q(name: str) -> str:
        return f"{prefix}.{name}" if name in own else name

    def q_expr(expr: SetExpr) -> SetExpr:
        return SetExpr(q(expr.first), tuple((op, q(n)) for op, n in expr.rest))

    def q_value(value: Value) -> Value:
        if type(value) is VName:
            return VName(f"{prefix}.{value.name}") if value.name in own else value
        if type(value) is VList:
            return VList(tuple(q_value(v) for v in value.items))
        if type(value) is VBlock:
            return VBlock(tuple((k, q_value(v)) for k, v in value.items))
        return value

    prefixed = []
    for kind, name, tok, source, body in decls:
        if kind == "service" or kind == "reporting_rule":
            body = tuple((key, q_value(value)) for key, value in body)
        elif kind == "service_group" or kind == "zone_group":
            body = q_expr(body)
        elif kind == "policy_rule":
            body = (q(body[0]), body[1], q(body[2]), q_expr(body[3]))
        elif kind != "port_group":  # a rule group's or policy's names
            body = tuple(map(q, body))
        prefixed.append(_new(_RawDecl, (kind, f"{prefix}.{name}", tok, source, body)))
    return prefixed


def _collect(raw: _RawFile, importer: Importer, seen: dict[str, bool], memo: dict) -> _RawFile:
    """``raw`` with the declarations of its imports, transitively, merged in
    front of its own; an imported file is parsed here unless ``memo`` holds
    its (file label, text), so an edited library is parsed afresh.  Its
    prefixed declarations are kept under (file label, text, prefix) with
    the declarations they were made from, and rebuilt only when those
    differ: what a library brings in depends on the imports seen before."""
    merged: list[_RawDecl] = []
    for dotted, tok in raw.imports:
        if dotted in seen:
            if not seen[dotted]:
                raise raw.source.error(f"import cycle through {dotted!r}", tok)
            continue
        seen[dotted] = False
        found = importer(dotted)
        if found is None:
            raise raw.source.error(f"unresolved import {dotted!r}", tok)
        label, text = found
        parsed = memo.get((label, text))
        if parsed is None:
            parsed = memo[label, text] = _parse_file(text, label)
        imported = _collect(parsed, importer, seen, memo)
        seen[dotted] = True
        prefix = dotted.rsplit(".", 1)[-1]
        made = memo.get((label, text, prefix))
        if made is None or made[0] != imported.decls:
            made = memo[label, text, prefix] = (imported.decls,
                                                _prefix_decls(imported.decls, prefix))
        merged.extend(made[1])
    merged.extend(raw.decls)
    return _RawFile(raw.source, raw.imports, raw.declared_model, tuple(merged))


# ---------------------------------------------------------------------------
# resolution

# the declaration kinds in the order the resolver builds them
_DECL_KINDS = ("port_group", "service", "service_group", "zone_group", "policy_rule",
               "reporting_rule", "rule_group", "policy")
# each port attribute's place among a service's range fields
_PORT_SLOTS = {key: ("source_ports", "dest_ports", "icmp_types").index(field)
               for key, field in PORT_ATTRS.items()}


class _Resolver:
    def __init__(self, raw: _RawFile, file: str, source: str, memo: dict):
        self.raw = raw
        self.memo = memo
        self.spec = PolicySpec(imports=tuple(imp.dotted for imp in raw.imports),
                               declared_model=raw.declared_model, file=file, source=source)
        self.registry: dict[str, _RawDecl] = {}
        self._resolving: list[str] = []

    def err(self, decl: _RawDecl, message: str) -> PolicyError:
        return decl.source.error(message, decl.tok)

    def run(self) -> PolicySpec:
        spec, registry = self.spec, self.registry
        name_tokens = spec.name_tokens
        by_kind: dict[str, list[_RawDecl]] = {kind: [] for kind in _DECL_KINDS}
        for decl in self.raw.decls:
            kind, name, tok, source, _ = decl
            if name in registry:
                raise self.err(decl, f"duplicate declaration of {name!r}")
            registry[name] = decl
            name_tokens[name] = (source, tok)
            by_kind[kind].append(decl)

        for decl in by_kind["port_group"]:
            spec.port_groups[decl.name] = _new(PortGroup, (decl.name, decl.body))
        main = self.raw.source
        for decl in by_kind["service"]:
            build = self._build_service if decl.source is main else self._library_service
            spec.services[decl.name] = build(decl)
            spec.raw_attrs[decl.name] = decl.body
        for decl in by_kind["service_group"]:
            self._service_term(decl, decl.name)
        for decl in by_kind["zone_group"]:
            self._zone_term(decl, decl.name)
        for decl in by_kind["policy_rule"]:
            self._build_rule(decl)
        for decl in by_kind["reporting_rule"]:
            self._build_reporting(decl)
        for decl in by_kind["rule_group"]:
            for member in decl.body:
                if registry.get(member, _MISSING).kind != "policy_rule":
                    raise self.err(decl, f"rule group {decl.name!r} references "
                                         f"undeclared policy rule {member!r}")
            spec.rule_groups[decl.name] = decl.body
        for decl in by_kind["policy"]:
            if spec.global_policy is not None:
                raise self.err(decl, "duplicate policy declaration")
            rg, rr = decl.body
            if registry.get(rg, _MISSING).kind != "rule_group":
                raise self.err(decl, f"policy references undeclared rule group {rg!r}")
            if registry.get(rr, _MISSING).kind != "reporting_rule":
                raise self.err(decl, f"policy references undeclared reporting rule {rr!r}")
            spec.global_policy = GlobalPolicy(decl.name, rg, rr)
        return spec

    # -- services

    def _library_service(self, decl: _RawDecl) -> Service:
        """An imported declaration's service, built once per import memo,
        where it is keyed by the identity of the memo's prefixed
        declaration (the entry keeps it alive), unless it names a port
        group, which the importing file may declare."""
        entry = self.memo.get(id(decl))
        if entry is not None:
            return entry[1]
        service = self._build_service(decl)
        if not _names_port_group(decl.body):
            self.memo[id(decl)] = (decl, service)
        return service

    def _build_service(self, decl: _RawDecl) -> Service:
        name = decl.name
        protocol: int | None = None
        protocol_seen = False
        ports = [(), (), ()]  # source ports, dest ports, ICMP types, as Service takes them
        comment = ""
        seen: set[str] = set()
        for key, value in decl.body:
            if key in seen:
                raise self.err(decl, f"duplicate attribute {key!r} in service {name!r}")
            seen.add(key)
            kind = type(value)
            if key == "protocol":
                protocol_seen = True
                if kind is VInt:
                    protocol = value.n
                elif kind is not VName:
                    raise self.err(decl, "protocol value must be a protocol name or number")
                elif value.name in PROTOCOL_NUMBERS:
                    protocol = PROTOCOL_NUMBERS[value.name]
                else:
                    raise self.err(decl, f"unknown protocol {value.name!r}")
            elif key in PORT_ATTRS:
                ports[_PORT_SLOTS[key]] += self._range_value(decl, value)
            elif key == "comment":
                if kind is not VString:
                    raise self.err(decl, "comment value must be a string")
                comment = value.text
            else:
                raise self.err(decl, f"unknown service attribute {key!r}")
        if not protocol_seen:
            raise self.err(decl, f"service {name!r} must declare a protocol")
        # TCP/UDP default the unspecified port dimensions to the full range
        if protocol == 6 or protocol == 17:
            ports[0] = ports[0] or FULL_RANGE_SET
            ports[1] = ports[1] or FULL_RANGE_SET
        return Service(name, protocol, *ports, comment)

    def _range_value(self, decl: _RawDecl, value: Value) -> tuple[PortRange, ...]:
        kind = type(value)
        if kind is VName:
            group = self.spec.port_groups.get(value.name)
            if group is None:
                raise self.err(decl, f"undeclared port group {value.name!r}")
            return group.ranges
        if kind is VInt:
            return (_new(PortRange, (value.n, value.n)),)
        if kind is VRange:
            return (_new(PortRange, (value.lo, value.hi)),)
        if kind is VList:
            out: tuple[PortRange, ...] = ()
            for item in value.items:
                out += self._range_value(decl, item)
            return out
        raise self.err(decl, "port value must be a port, range, or port-group name")

    # -- groups

    def _service_term(self, decl: _RawDecl, name: str) -> ServiceSet:
        """The services ``name``, a term of ``decl``'s set expression,
        stands for: a service or a service group.  A name of another kind
        is an error at ``decl``, the declaration that misuses it."""
        found = self.registry.get(name)
        if found is None:
            raise self.err(decl, f"undeclared name {name!r}")
        if found.kind == "service":
            return ServiceSet((self.spec.services[name],))
        if found.kind != "service_group":
            raise self.err(decl, f"{found.kind} {name!r} used where a service was expected")
        return self._group(found, "service", self._service_term)

    def _zone_term(self, decl: _RawDecl, name: str) -> frozenset[str]:
        """The zones ``name``, a term of ``decl``'s set expression (or
        ``decl``'s own name), stands for: a zone group's, or itself when no
        declaration has it, a leaf zone of the security model.  A name of
        another kind is an error at ``decl``."""
        found = self.registry.get(name)
        if found is None:
            return frozenset({name})
        if found.kind != "zone_group":
            raise self.err(decl, f"{found.kind} {name!r} used where a zone was expected")
        return self._group(found, "zone", self._zone_term)

    def _group(self, decl: _RawDecl, kind: str, term: Callable[[_RawDecl, str], _SetT]) -> _SetT:
        """The set of the ``kind`` ("service" or "zone") group ``decl``, its
        expression over ``term``: evaluated once, kept in the spec's table."""
        groups = self.spec.service_groups if kind == "service" else self.spec.zone_groups
        name = decl.name
        if name in groups:
            return groups[name][2]  # its members or zones
        if name in self._resolving:
            raise self.err(decl, f"cycle in {kind} group nesting through {name!r}")
        if len(self._resolving) == _MAX_NESTING:
            raise self.err(decl, f"{kind} groups nested more than {_MAX_NESTING} deep")
        self._resolving.append(name)
        members = _eval_set_expr(decl.body, term, decl)
        self._resolving.pop()
        groups[name] = (ServiceGroup if kind == "service" else ZoneGroup)(name, decl.body, members)
        return members

    # -- rules and reporting

    def _build_rule(self, decl: _RawDecl) -> None:
        left, operator, right, expr = decl.body
        for side in (left, right):
            found = self.registry.get(side)
            if found is not None and found.kind != "zone_group":
                raise self.err(decl, f"{found.kind} {side!r} used where a zone was expected")
        services = _eval_set_expr(expr, self._service_term, decl)
        self.spec.rules[decl.name] = _new(HighLevelRule, (decl.name, left, operator, right,
                                                          expr, services))

    def _build_reporting(self, decl: _RawDecl) -> None:
        use_case: str | None = None
        for key, value in decl.body:
            if key == "use_case":
                if not isinstance(value, VName):
                    raise self.err(decl, "use_case must be an identifier")
                use_case = value.name
            elif key == "granularity.network":
                for name in block_names(value, "zone_or_group"):
                    if self.registry.get(name, _MISSING).kind != "zone_group":
                        raise self.err(decl, f"reporting rule references undeclared "
                                             f"zone group {name!r}")
            elif key == "granularity.policy":
                for name in block_names(value, "rule_or_group"):
                    if self.registry.get(name, _MISSING).kind not in ("rule_group", "policy_rule"):
                        raise self.err(decl, f"reporting rule references undeclared "
                                             f"rule group {name!r}")
        self.spec.reporting_rules[decl.name] = ReportingRule(decl.name, decl.body, use_case)
        self.spec.raw_attrs[decl.name] = decl.body


def _names_port_group(attrs: tuple[tuple[str, Value], ...]) -> bool:
    """Whether a port attribute's value names a port group."""
    def names(value: Value) -> bool:
        return isinstance(value, VName) or (
            isinstance(value, VList) and any(names(item) for item in value.items))
    return any(key in PORT_ATTRS and names(value) for key, value in attrs)


def _eval_set_expr(expr: SetExpr, term: Callable[[_RawDecl, str], _SetT], decl: _RawDecl) -> _SetT:
    """Evaluate ``first (op term)*`` over sets with ``union``,
    ``intersection`` and ``difference``: ``^`` and ``\\`` bind tighter
    than ``,`` and associate left to right.  A single name is its term."""
    if not expr.rest:
        return term(decl, expr.first)
    segments = [term(decl, expr.first)]
    for op, name in expr.rest:
        value = term(decl, name)
        if op == ",":
            segments.append(value)
        elif op == "^":
            segments[-1] = segments[-1].intersection(value)
        else:
            segments[-1] = segments[-1].difference(value)
    return segments[0].union(*segments[1:])


_MISSING = _RawDecl(kind="<missing>", name="", tok=0, source=Source(""))


def block_names(value: Value, key: str) -> list[str]:
    """Names under ``key={...}`` entries of a granularity block value."""
    names: list[str] = []
    if isinstance(value, VBlock):
        for k, v in value.items:
            if k == key and isinstance(v, VBlock):
                for _, inner in v.items:
                    if isinstance(inner, VName):
                        names.append(inner.name)
            elif k == key and isinstance(v, VName):
                names.append(v.name)
    return names


# ---------------------------------------------------------------------------
# entry point

def parse_policy(text: str, importer: Importer | None = None, file: str = "<policy>",
                 import_memo: dict | None = None) -> PolicySpec:
    """Parse policy source into a fully name-resolved PolicySpec.

    The calls given one ``import_memo`` dict, such as a policy and its
    best-practice file, parse each imported (file label, text) once,
    prefix its declarations once and build their services once.
    """
    importer = importer or default_importer()
    memo = {} if import_memo is None else import_memo
    main = _parse_file(text, file)
    raw = _collect(main, importer, seen={}, memo=memo)
    return _Resolver(raw, file, text, memo).run()

