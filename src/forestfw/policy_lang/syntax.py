"""Domain types for the policy language and its expanded form."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from forestfw import intervals

if TYPE_CHECKING:
    from forestfw.policy_lang.lexer import Source

PROTOCOL_NUMBERS: dict[str, int | None] = {
    "tcp": 6,
    "udp": 17,
    "icmp": 1,
    "ospf": 89,
    "ip": None,  # generic; rejected by the validator
}
PROTOCOL_NAMES = {6: "tcp", 17: "udp", 1: "icmp", 89: "ospf"}

PORT_MIN, PORT_MAX = 0, 65535
ICMP_TYPE_MAX = 255


class PortRange(NamedTuple):
    """Inclusive port (or ICMP-type) range; valid values are 0..65535."""

    lo: int
    hi: int

    def __str__(self) -> str:
        return str(self.lo) if self.lo == self.hi else f"{self.lo}-{self.hi}"


FULL_PORT_RANGE = PortRange(PORT_MIN, PORT_MAX)


def port_ranges(raw: Iterable[tuple[int, int]]) -> tuple[PortRange, ...]:
    """Normalize to sorted, disjoint, maximal PortRanges; a tuple of
    PortRanges already in that form (each ascending, in ascending order
    with a gap between neighbours) is returned as it is."""
    if type(raw) is tuple:
        last = -2
        for r in raw:
            if type(r) is not PortRange or not last + 1 < r.lo <= r.hi:
                break
            last = r.hi
        else:
            return raw
    return tuple([tuple.__new__(PortRange, r) for r in intervals.normalize(raw)])


# ---------------------------------------------------------------------------
# attribute values (service bodies, reporting rules)

@dataclass(frozen=True)
class Value:
    """Base class for attribute values; concrete forms below."""


@dataclass(frozen=True)
class VInt(Value):
    """An integer value."""

    n: int


@dataclass(frozen=True)
class VRange(Value):
    """An inclusive ``lo-hi`` range value."""

    lo: int
    hi: int


@dataclass(frozen=True)
class VName(Value):
    """A bare name value, such as a protocol or a group reference."""

    name: str


@dataclass(frozen=True)
class VString(Value):
    """A quoted string value."""

    text: str


@dataclass(frozen=True)
class VList(Value):
    """A comma-separated list of values."""

    items: tuple[Value, ...]


@dataclass(frozen=True)
class VBlock(Value):
    """Braced value: a sequence of ``key=value`` entries and/or bare values."""

    items: tuple[tuple[str | None, Value], ...]


# ---------------------------------------------------------------------------
# services

# a service's range attributes and the Service field each one fills
PORT_ATTRS = {
    "tcp.source_port": "source_ports",
    "tcp.dest_port": "dest_ports",
    "udp.source_port": "source_ports",
    "udp.dest_port": "dest_ports",
    "icmp.type": "icmp_types",
}


class _ServiceFields(NamedTuple):
    name: str
    protocol: int | None
    source_ports: tuple[PortRange, ...] = ()  # as written; validator checks bounds
    dest_ports: tuple[PortRange, ...] = ()
    icmp_types: tuple[PortRange, ...] = ()
    comment: str = ""


class Service(_ServiceFields):
    """A traffic service: one IP protocol plus its attribute constraints.

    For TCP/UDP the port attributes default to the full 0-65535 range when
    unspecified.  For ICMP, an empty ``icmp_types`` means "any type".
    ``protocol`` is None only for the prohibited generic ``ip`` form, which
    the validator rejects before anything downstream can see it.  Equal
    and hashed by its six fields, none of which can be set.
    """

    def __new__(cls, name: str, protocol: int | None, source_ports: tuple = (),
                dest_ports: tuple = (), icmp_types: tuple = (), comment: str = "") -> "Service":
        self = tuple.__new__(cls, (name, protocol, source_ports, dest_ports, icmp_types, comment))
        # value_key(), computed once: the protocol and each field normalized
        self.__dict__["_value_key"] = (protocol, port_ranges(source_ports),
                                       port_ranges(dest_ports), port_ranges(icmp_types))
        return self

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set {name!r} of a Service")

    __delattr__ = __setattr__

    @classmethod
    def _make(cls, fields: Iterable) -> "Service":  # so _replace derives the key too
        return cls(*fields)

    def value_key(self) -> tuple:
        """Identity of the service by constraint, ignoring name/comment."""
        return self._value_key

    @property
    def display_name(self) -> str:
        """Name without its import namespace prefix."""
        return self.name.rsplit(".", 1)[-1]


FULL_RANGE_SET: tuple[PortRange, ...] = (FULL_PORT_RANGE,)
FULL_ICMP_SET: tuple[PortRange, ...] = (PortRange(0, ICMP_TYPE_MAX),)


def service_plane(svc: Service) -> tuple[tuple[PortRange, ...], tuple[PortRange, ...]]:
    """The service as one rectangle ``(values, sports)`` of its protocol's
    value x source port plane, both normalized: dest ports x source ports
    for TCP and UDP, ICMP types x all source ports for ICMP, and the whole
    plane for any other protocol.  An unwritten field spans its axis; a
    written one that normalizes to nothing leaves the rectangle empty."""
    _, sports, dports, icmp_types = svc.value_key()
    if svc.protocol in (6, 17):
        return (dports if svc.dest_ports else FULL_RANGE_SET,
                sports if svc.source_ports else FULL_RANGE_SET)
    if svc.protocol == 1:
        return icmp_types if svc.icmp_types else FULL_ICMP_SET, FULL_RANGE_SET
    return FULL_RANGE_SET, FULL_RANGE_SET


class ServiceSet:
    """A set of services, deduplicated by constraint value.

    Closed under union (``,``), intersection (``^``) and difference
    (``\\``); all three operate on constraint values, so two identically
    constrained services under different names count once.
    """

    __slots__ = ("_members",)

    def __init__(self, services: Iterable[Service] = ()):
        members = tuple(services)
        if len(members) > 1:
            by_key: dict[tuple, Service] = {}
            for svc in sorted(members, key=lambda s: s.name):
                by_key.setdefault(svc.value_key(), svc)
            members = tuple(sorted(by_key.values(), key=lambda s: (s.name, s.value_key())))
        self._members = members

    def __iter__(self) -> Iterator[Service]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceSet):
            return NotImplemented
        return self.value_keys() == other.value_keys()

    def __hash__(self) -> int:
        return hash(frozenset(self.value_keys()))

    def __repr__(self) -> str:
        return f"ServiceSet({[s.name for s in self._members]})"

    def value_keys(self) -> frozenset:
        return frozenset(s.value_key() for s in self._members)

    def union(self, *others: "ServiceSet") -> "ServiceSet":
        """Members of this set and all ``others``, in one pass.

        Each value keeps its least name over all the sets, so one n-ary
        union equals any fold of pairwise unions.
        """
        return ServiceSet(itertools.chain(self._members, *(o._members for o in others)))

    def intersection(self, other: "ServiceSet") -> "ServiceSet":
        keys = other.value_keys()
        return ServiceSet(s for s in self if s.value_key() in keys)

    def difference(self, other: "ServiceSet") -> "ServiceSet":
        keys = other.value_keys()
        return ServiceSet(s for s in self if s.value_key() not in keys)


# ---------------------------------------------------------------------------
# set expressions and groups

class SetExpr(NamedTuple):
    """Flat set expression: ``first (op term)*`` with ops ``,`` ``^`` ``\\``.

    The grammar has no grouping; ``^`` and ``\\`` bind tighter than ``,``
    and associate left-to-right.
    """

    first: str
    rest: tuple[tuple[str, str], ...] = ()

    def to_source(self) -> str:
        parts = [self.first]
        for op, name in self.rest:
            sep = ", " if op == "," else f" {op} "
            parts.append(f"{sep}{name}")
        return "".join(parts)


class ServiceGroup(NamedTuple):
    name: str
    expr: SetExpr
    members: ServiceSet


class PortGroup(NamedTuple):
    name: str
    ranges: tuple[PortRange, ...]  # as written; bounds checked by the validator


class ZoneGroup(NamedTuple):
    name: str
    expr: SetExpr
    zones: frozenset[str]  # resolved leaf zone names


class HighLevelRule(NamedTuple):
    """An inter-zone permit: ``left (-> | <->) right : services``."""

    name: str
    left: str
    operator: str  # "->" or "<->"
    right: str
    service_expr: SetExpr
    services: ServiceSet


class ReportingRule(NamedTuple):
    name: str
    attrs: tuple[tuple[str, Value], ...]
    use_case: str | None


class GlobalPolicy(NamedTuple):
    name: str
    rule_group: str
    reporting_rule: str


# ---------------------------------------------------------------------------
# the parsed policy and its expansion

@dataclass
class PolicySpec:
    """A fully name-resolved policy: the expanded, group-free rule source.

    Imported declarations live in the same tables under their namespace
    prefix (``iana_services.http``).  ``name_tokens`` is the one record of
    where names are declared: the main file's declaration order and every
    line and column follow from it.
    """

    imports: tuple[str, ...] = ()
    declared_model: str | None = None
    services: dict[str, Service] = field(default_factory=dict)
    service_groups: dict[str, ServiceGroup] = field(default_factory=dict)
    port_groups: dict[str, PortGroup] = field(default_factory=dict)
    zone_groups: dict[str, ZoneGroup] = field(default_factory=dict)
    rules: dict[str, HighLevelRule] = field(default_factory=dict)
    rule_groups: dict[str, tuple[str, ...]] = field(default_factory=dict)
    reporting_rules: dict[str, ReportingRule] = field(default_factory=dict)
    global_policy: GlobalPolicy | None = None
    file: str = field(default="<policy>", compare=False)
    source: str = field(default="", compare=False)
    # per declared name, the source that declares it and the index of the
    # name's token there
    name_tokens: dict[str, tuple[Source, int]] = field(default_factory=dict, compare=False)
    raw_attrs: dict[str, tuple[tuple[str, Value], ...]] = field(default_factory=dict, compare=False)

    def position_of(self, name: str) -> tuple[str, int, int]:
        """The file that declares ``name`` and the line and column of the
        name there, computed now; for a name no declaration has, the
        spec's file at 0:0."""
        if name not in self.name_tokens:
            return self.file, 0, 0
        source, tok = self.name_tokens[name]
        return (source.file, *source.line_col(tok))

    def zone_set(self, ref: str) -> frozenset[str]:
        """Leaf zones a zone-or-group reference stands for."""
        group = self.zone_groups.get(ref)
        if group is not None:
            return group.zones
        return frozenset({ref})


class FlowRule(NamedTuple):
    """One expanded permit: a service allowed from src_zone to dst_zone.

    Carries only a permit action; the language has no deny form.  The
    ``src_ref``/``dst_ref`` fields keep the declaration-level names the
    rule was written with, for generated commentary.
    """

    rule_name: str
    src_zone: str
    dst_zone: str
    service: Service
    src_ref: str = ""
    dst_ref: str = ""

    def flow_key(self) -> tuple:
        return (self.rule_name, self.src_zone, self.dst_zone, self.service.name,
                self.service.value_key())
