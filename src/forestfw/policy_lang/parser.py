"""Recursive-descent parser and import resolver.

Parsing happens in two phases: the syntactic pass collects raw
declarations (imports already merged under their namespace prefix), and a
resolution pass builds the fully name-resolved :class:`PolicySpec`, with
set expressions evaluated, port-group references substituted, and every
name checked against the declaration registry.  The syntactic pass reads
the source's token texts by index and compares them in place.  A
declaration keeps the index of its name's token and its
:class:`~forestfw.policy_lang.lexer.Source`, and an import the index of
its dotted name; the spec's ``name_tokens`` keeps each declaration's
pair, the one record of where names are declared, and a line and column
are computed from it only for a diagnostic or
:meth:`PolicySpec.position_of`, so an error found after the parse names
the file that declares the name.  The resolver sorts the declarations by
kind in one pass, resolves service and zone groups alike, and a set
expression of a single name is that name's set.
The main file is tokenized and parsed once per :func:`parse_policy` call.  The calls
that share one import memo parse each imported (file label, text) pair
once between them: its raw declarations are immutable, so every later
import of the same text shares them, and so do its prefixed declarations
and the services built from them.  A set expression's ``,`` segments
are united in one n-ary union, so the work grows linearly with the
policy.
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
    FULL_PORT_RANGE,
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
    attrs: tuple[tuple[str, Value], ...] = ()
    expr: SetExpr | None = None
    ranges: tuple[PortRange, ...] = ()
    left: str = ""
    operator: str = ""
    right: str = ""
    members: tuple[str, ...] = ()


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
    place.  ``pos`` indexes the next token.  The end-of-text token is never
    passed, so the token after any other one exists."""

    def __init__(self, source: Source):
        self.source = source
        self.toks = scan(source)
        self.pos = 0

    def raw_file(self) -> _RawFile:
        toks = self.toks
        imports: list[_Import] = []
        declared_model: str | None = None
        decls: list[_RawDecl] = []
        while toks[self.pos]:  # the end of text is the empty token
            tok = toks[self.pos]
            if tok not in KEYWORDS:
                raise self.error(f"expected a declaration keyword, got {value_of(tok)!r}")
            self.pos += 1
            if tok == "import":
                k = self.pos
                imports.append(_Import(self.dotted(), k))
                self.expect(";")
            elif tok == "load_zone_conduit_model":
                path = toks[self.pos]
                if kind_of(path) != "string":
                    raise self.unexpected("'model path string'")
                if declared_model is not None:
                    raise self.error("duplicate load_zone_conduit_model")
                declared_model = value_of(path)
                self.pos += 1
                if toks[self.pos] == ";":
                    self.pos += 1
            else:
                decls.append(self.decl(tok))
        return _RawFile(self.source, tuple(imports), declared_model, tuple(decls))

    def error(self, message: str) -> PolicyError:
        return self.source.error(message, self.pos)

    def unexpected(self, expected: str) -> PolicyError:
        """A diagnostic at the next token, which is not the one ``expected``."""
        tok = self.toks[self.pos]
        return self.error(f"expected {expected}, got {value_of(tok) or kind_of(tok)!r}")

    def expect(self, punct: str) -> None:
        if self.toks[self.pos] != punct:
            raise self.unexpected(repr(punct))
        self.pos += 1

    def ident(self, what: str) -> str:
        """A name that is not a keyword."""
        tok = self.toks[self.pos]
        if tok[:1] in NOT_A_WORD or tok in KEYWORDS:
            raise self.unexpected(repr(what))
        self.pos += 1
        return tok

    def dotted(self) -> str:
        """A dotted name; keywords are legal segments."""
        toks = self.toks
        start = i = self.pos
        while True:
            if toks[i][:1] in NOT_A_WORD:
                self.pos = i
                raise self.unexpected("a name")
            if toks[i + 1] != ".":
                break
            i += 2
        self.pos = i + 1
        return toks[i] if i == start else "".join(toks[start:i + 1])

    def int_at(self, k: int) -> int:
        try:
            return int(self.toks[k])
        except ValueError:  # more digits than the interpreter converts
            raise self.source.error(f"number of {len(self.toks[k])} digits is too long",
                                    k) from None

    def decl(self, kind: str) -> _RawDecl:
        toks = self.toks
        k = self.pos
        name = self.ident("declaration name")
        self.expect("{")
        attrs: tuple[tuple[str, Value], ...] = ()
        expr: SetExpr | None = None
        ranges: tuple[PortRange, ...] = ()
        left = operator = right = ""
        members: tuple[str, ...] = ()
        if kind == "service" or kind == "reporting_rule":
            attrs = self.attrs()
        elif kind == "port_group":
            ranges = self.ranges()
        elif kind == "policy_rule":
            left = self.dotted()
            operator = toks[self.pos]
            if operator != "->" and operator != "<->":
                raise self.error("expected '->' or '<->'")
            self.pos += 1
            right = self.dotted()
            self.expect(":")
            expr = self.setexpr()
        elif kind == "service_group" or kind == "zone_group":
            expr = self.setexpr()
        elif kind == "rule_group":
            names = [self.dotted()]
            while toks[self.pos] == ",":
                self.pos += 1
                names.append(self.dotted())
            members = tuple(names)
        elif kind == "policy":
            rule_group = self.ident("rule-group name")
            self.expect(";")
            reporting = self.ident("reporting-rule name")
            if toks[self.pos] == ";":  # trailing separator is optional in the wild
                self.pos += 1
            members = (rule_group, reporting)
        else:  # pragma: no cover - keyword set is closed
            raise self.error(f"unsupported declaration {kind!r}")
        self.expect("}")
        return _new(_RawDecl, (kind, name, k, self.source,
                               attrs, expr, ranges, left, operator, right, members))

    def attrs(self) -> tuple[tuple[str, Value], ...]:
        toks = self.toks
        attrs: list[tuple[str, Value]] = []
        while toks[self.pos] != "}":
            key = self.dotted()
            self.expect("=")
            attrs.append((key, self.value()))
            self.expect(";")
        return tuple(attrs)

    def value(self, depth: int = 0) -> Value:
        toks = self.toks
        first = self.value_atom(depth)
        if toks[self.pos] != ",":
            return first
        items = [first]
        while toks[self.pos] == ",":
            self.pos += 1
            items.append(self.value_atom(depth))
        return VList(tuple(items))

    def value_atom(self, depth: int = 0) -> Value:
        toks = self.toks
        k = self.pos
        tok = toks[k]
        first = tok[:1]
        if first not in NOT_A_WORD:
            self.pos = k + 1
            return VName(tok)
        if first in DIGITS:
            if toks[k + 1] != "-":
                self.pos = k + 1
                return VInt(self.int_at(k))
            self.pos = k + 2
            if toks[k + 2][:1] not in DIGITS:
                raise self.unexpected("'range upper bound'")
            self.pos = k + 3
            return VRange(self.int_at(k), self.int_at(k + 2))
        if first == '"' or first == "`":
            self.pos = k + 1
            return VString(value_of(tok))
        if tok == "{":
            if depth == _MAX_NESTING:
                raise self.error(f"value blocks nested more than {_MAX_NESTING} deep")
            self.pos = k + 1
            items: list[tuple[str | None, Value]] = []
            while toks[self.pos] != "}":
                if toks[self.pos][:1] not in NOT_A_WORD and self.at_assignment():
                    key = self.dotted()
                    self.expect("=")
                    items.append((key, self.value(depth + 1)))
                else:
                    items.append((None, self.value_atom(depth + 1)))
                if toks[self.pos] != ";" and toks[self.pos] != ",":
                    break
                self.pos += 1
            self.expect("}")
            return VBlock(tuple(items))
        raise self.unexpected("a value")

    def at_assignment(self) -> bool:
        """Whether a dotted key and ``=`` come next."""
        toks = self.toks
        i = self.pos
        while toks[i][:1] not in NOT_A_WORD:
            i += 1
            if toks[i] != ".":
                break
            i += 1
        return toks[i] == "="

    def setexpr(self) -> SetExpr:
        toks = self.toks
        first = self.dotted()
        rest: list[tuple[str, str]] = []
        while toks[self.pos] in _SET_OPS:
            op = toks[self.pos]
            self.pos += 1
            rest.append((op, self.dotted()))
        return SetExpr(first, tuple(rest))

    def ranges(self) -> tuple[PortRange, ...]:
        toks = self.toks
        ranges: list[PortRange] = []
        k = self.pos
        while True:
            if toks[k][:1] not in DIGITS:
                self.pos = k
                raise self.unexpected("'port number'")
            if toks[k + 1] == "-":
                if toks[k + 2][:1] not in DIGITS:
                    self.pos = k + 2
                    raise self.unexpected("'range upper bound'")
                ranges.append(_new(PortRange, (self.int_at(k), self.int_at(k + 2))))
                k += 3
            else:
                port = self.int_at(k)
                ranges.append(_new(PortRange, (port, port)))
                k += 1
            if toks[k] != ",":
                self.pos = k
                return tuple(ranges)
            k += 1


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

    def q_expr(expr: SetExpr | None) -> SetExpr | None:
        if expr is None:
            return None
        return SetExpr(q(expr.first), tuple((op, q(n)) for op, n in expr.rest))

    def q_value(value: Value) -> Value:
        if isinstance(value, VName):
            return VName(q(value.name))
        if isinstance(value, VList):
            return VList(tuple(q_value(v) for v in value.items))
        if isinstance(value, VBlock):
            return VBlock(tuple((k, q_value(v)) for k, v in value.items))
        return value

    return [d._replace(name=f"{prefix}.{d.name}",
                       attrs=tuple((k, q_value(v)) for k, v in d.attrs), expr=q_expr(d.expr),
                       left=q(d.left), right=q(d.right), members=tuple(q(m) for m in d.members))
            for d in decls]


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


class _Resolver:
    def __init__(self, raw: _RawFile, file: str, source: str, memo: dict):
        self.raw = raw
        self.memo = memo
        self.spec = PolicySpec(
            imports=tuple(imp.dotted for imp in raw.imports),
            declared_model=raw.declared_model,
            file=file,
            source=source,
        )
        self.registry: dict[str, _RawDecl] = {}
        self._resolving: list[str] = []

    def err(self, decl: _RawDecl, message: str) -> PolicyError:
        return decl.source.error(message, decl.tok)

    def run(self) -> PolicySpec:
        spec, registry = self.spec, self.registry
        by_kind: dict[str, list[_RawDecl]] = {kind: [] for kind in _DECL_KINDS}
        for decl in self.raw.decls:
            if decl.name in registry:
                raise self.err(decl, f"duplicate declaration of {decl.name!r}")
            registry[decl.name] = decl
            spec.name_tokens[decl.name] = (decl.source, decl.tok)
            by_kind[decl.kind].append(decl)

        for decl in by_kind["port_group"]:
            spec.port_groups[decl.name] = PortGroup(decl.name, decl.ranges)
        main = self.raw.source
        for decl in by_kind["service"]:
            build = self._build_service if decl.source is main else self._library_service
            spec.services[decl.name] = build(decl)
            spec.raw_attrs[decl.name] = decl.attrs
        for decl in by_kind["service_group"]:
            self._service_term(decl, decl.name)
        for decl in by_kind["zone_group"]:
            self._zone_term(decl, decl.name)
        for decl in by_kind["policy_rule"]:
            self._build_rule(decl)
        for decl in by_kind["reporting_rule"]:
            self._build_reporting(decl)
        for decl in by_kind["rule_group"]:
            for member in decl.members:
                if registry.get(member, _MISSING).kind != "policy_rule":
                    raise self.err(decl, f"rule group {decl.name!r} references "
                                         f"undeclared policy rule {member!r}")
            spec.rule_groups[decl.name] = decl.members
        for decl in by_kind["policy"]:
            if spec.global_policy is not None:
                raise self.err(decl, "duplicate policy declaration")
            rg, rr = decl.members
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
        if not _names_port_group(decl.attrs):
            self.memo[id(decl)] = (decl, service)
        return service

    def _build_service(self, decl: _RawDecl) -> Service:
        protocol: int | None = None
        protocol_seen = False
        ports: dict[str, tuple[PortRange, ...]] = {}
        comment = ""
        seen: set[str] = set()
        for key, value in decl.attrs:
            if key in seen:
                raise self.err(decl, f"duplicate attribute {key!r} in service {decl.name!r}")
            seen.add(key)
            if key == "protocol":
                protocol_seen = True
                protocol = self._protocol_value(decl, value)
            elif key in PORT_ATTRS:
                field_name = PORT_ATTRS[key]
                ports[field_name] = ports.get(field_name, ()) + self._range_value(decl, value)
            elif key == "comment":
                if not isinstance(value, VString):
                    raise self.err(decl, "comment value must be a string")
                comment = value.text
            else:
                raise self.err(decl, f"unknown service attribute {key!r}")
        if not protocol_seen:
            raise self.err(decl, f"service {decl.name!r} must declare a protocol")
        source_ports = ports.get("source_ports", ())
        dest_ports = ports.get("dest_ports", ())
        # TCP/UDP default the unspecified port dimensions to the full range
        if protocol in (6, 17):
            source_ports = source_ports or (FULL_PORT_RANGE,)
            dest_ports = dest_ports or (FULL_PORT_RANGE,)
        return Service(
            name=decl.name,
            protocol=protocol,
            source_ports=source_ports,
            dest_ports=dest_ports,
            icmp_types=ports.get("icmp_types", ()),
            comment=comment,
        )

    def _protocol_value(self, decl: _RawDecl, value: Value) -> int | None:
        if isinstance(value, VName):
            if value.name not in PROTOCOL_NUMBERS:
                raise self.err(decl, f"unknown protocol {value.name!r}")
            return PROTOCOL_NUMBERS[value.name]
        if isinstance(value, VInt):
            return value.n
        raise self.err(decl, "protocol value must be a protocol name or number")

    def _range_value(self, decl: _RawDecl, value: Value) -> tuple[PortRange, ...]:
        if isinstance(value, VInt):
            return (PortRange(value.n, value.n),)
        if isinstance(value, VRange):
            return (PortRange(value.lo, value.hi),)
        if isinstance(value, VName):
            group = self.spec.port_groups.get(value.name)
            if group is None:
                raise self.err(decl, f"undeclared port group {value.name!r}")
            return group.ranges
        if isinstance(value, VList):
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
            return ServiceSet([self.spec.services[name]])
        if found.kind != "service_group":
            raise self.err(decl, f"{found.kind} {name!r} used where a service was expected")
        return self._group(found, "service", lambda n: self._service_term(found, n))

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
        return self._group(found, "zone", lambda n: self._zone_term(found, n))

    def _group(self, decl: _RawDecl, kind: str, term: Callable[[str], _SetT]) -> _SetT:
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
        assert decl.expr is not None
        members = _eval_set_expr(decl.expr, term)
        self._resolving.pop()
        groups[name] = (ServiceGroup if kind == "service" else ZoneGroup)(name, decl.expr, members)
        return members

    # -- rules and reporting

    def _build_rule(self, decl: _RawDecl) -> None:
        for side in (decl.left, decl.right):
            found = self.registry.get(side)
            if found is not None and found.kind != "zone_group":
                raise self.err(decl, f"{found.kind} {side!r} used where a zone was expected")
        assert decl.expr is not None
        services = _eval_set_expr(decl.expr, lambda n: self._service_term(decl, n))
        self.spec.rules[decl.name] = HighLevelRule(
            name=decl.name,
            left=decl.left,
            operator=decl.operator,
            right=decl.right,
            service_expr=decl.expr,
            services=services,
        )

    def _build_reporting(self, decl: _RawDecl) -> None:
        use_case: str | None = None
        for key, value in decl.attrs:
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
        self.spec.reporting_rules[decl.name] = ReportingRule(decl.name, decl.attrs, use_case)
        self.spec.raw_attrs[decl.name] = decl.attrs


def _names_port_group(attrs: tuple[tuple[str, Value], ...]) -> bool:
    """Whether a port attribute's value names a port group."""
    def names(value: Value) -> bool:
        return isinstance(value, VName) or (
            isinstance(value, VList) and any(names(item) for item in value.items))
    return any(key in PORT_ATTRS and names(value) for key, value in attrs)


def _eval_set_expr(expr: SetExpr, term: Callable[[str], _SetT]) -> _SetT:
    """Evaluate ``first (op term)*`` over sets with ``union``,
    ``intersection`` and ``difference``: ``^`` and ``\\`` bind tighter
    than ``,`` and associate left to right.  A single name is its term."""
    if not expr.rest:
        return term(expr.first)
    segments = [term(expr.first)]
    for op, name in expr.rest:
        value = term(name)
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

