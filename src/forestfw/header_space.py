"""Executable semantics of packet-filter rules, and the region algebra.

A :class:`Packet` is one point of the header space, connection state
included; the simulator injects it and the ACL engine evaluates it.  It
stands for the whole class of packets sharing its header values; rules
decide accept/deny per class, so evaluating one point per class is exact.
:class:`MatchTable` is the one ACL engine: it encodes each compiled rule
once as a row, with the ICMP type of protocol 1 on the same value axis
as the dport.  Its one lookup finds the rows that match the header
fields it is given, by row bitsets (bit-vector packet classification,
Lakshman and Stiliadis, SIGCOMM 1998), and its one first-match walk
decides a region; injection, negative vetting and the ACL anomaly check
all go through both.  :func:`meeting_rows` reads the same bitsets to
find, per row, the rows whose field meets its own, which is how the
rule-overlap check finds its candidate pairs.  :class:`Grid` is the one
region algebra: per protocol, a region of the value x sport plane is a
bitset over atoms, so union, intersection and difference are int
operations.  The canonical checks, the ACL anomaly check and negative
vetting all compute on it; canonical strips are only its printed form.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate
from operator import xor
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple, Sequence

from forestfw import intervals
from forestfw.intervals import Interval, IntervalSet
from forestfw.policy_lang.syntax import PORT_MAX

if TYPE_CHECKING:  # netgen imports the checker, which imports this module
    from ipaddress import IPv4Network

    from forestfw.netgen import AclRule

ADDR_MAX = (1 << 32) - 1

NEW = "NEW"
ESTABLISHED = "ESTABLISHED"
STATES = (NEW, ESTABLISHED)


class Packet(NamedTuple):
    """One point in packet-header space; ``state`` names the connection state."""

    src_addr: int = 0
    dst_addr: int = 0
    protocol: int = 6
    sport: int = 0
    dport: int = 0
    icmp_type: int = 0  # read only when protocol == 1
    state: str = NEW


def address_intervals(networks: Iterable["IPv4Network"]) -> IntervalSet:
    """The integer addresses of IPv4 networks, as a normalized interval set."""
    spans = []
    for net in networks:
        lo = int(net.network_address)
        spans.append((lo, lo + (1 << (32 - net.prefixlen)) - 1))
    return intervals.normalize(spans)


# ---------------------------------------------------------------------------
# the ACL engine: first-match evaluation of compiled rules

def cuts(fields: Iterable[IntervalSet], top: int) -> list[int]:
    """The starts of the elementary intervals of ``0..top`` that the fields' bounds cut."""
    starts = {bound for field in fields for lo, hi in field for bound in (lo, hi + 1)}
    return sorted((starts | {0}) - {top + 1})


def bit_indexes(bits: int) -> Iterator[int]:
    """The indexes of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _row_bits(fields: Iterable[IntervalSet | None], top: int) -> tuple[list[int], list[int]]:
    """One dimension of a table: the elementary intervals that the rows'
    fields cut from ``0..top``, as their sorted starts, and per interval an
    int whose bit *i* is set when row *i* admits it (``None`` admits all)."""
    rows_of: dict[IntervalSet | None, int] = {}
    for i, field in enumerate(fields):
        rows_of[field] = rows_of.get(field, 0) | 1 << i
    toggles: dict[int, int] = {0: 0}
    for field, rows in rows_of.items():
        # a field's intervals are disjoint and never adjacent: its rows
        # flip on at each start and off past each end
        for lo, hi in ((0, top),) if field is None else field:
            toggles[lo] = toggles.get(lo, 0) ^ rows
            toggles[hi + 1] = toggles.get(hi + 1, 0) ^ rows
    toggles.pop(top + 1, None)
    starts = sorted(toggles)
    return starts, list(accumulate((toggles[start] for start in starts), xor))


def meeting_rows(fields: Sequence[IntervalSet], top: int) -> dict[int, int]:
    """The rows whose field shares a point with another row's, in row
    order, each with an int whose bit *j* is set when field *j* shares a
    point with its own (its own bit included): the OR of the ``_row_bits``
    of the elementary intervals it covers.  Rows that meet no other are
    left out, so disjoint fields cost one pass over the intervals, and
    identical fields are ORed once."""
    starts, bits = _row_bits(fields, top)
    crowded = 0  # the rows of the intervals that two or more rows cover
    for rows in bits:
        if rows & (rows - 1):
            crowded |= rows
    if not crowded:
        return {}
    atom = {start: k for k, start in enumerate(starts)}
    atom[top + 1] = len(starts)
    meets: dict[IntervalSet, int] = {}
    out = {}
    for i in bit_indexes(crowded):
        field = fields[i]
        if field not in meets:
            rows = 0
            for lo, hi in field:
                for k in range(atom[lo], atom[hi + 1]):
                    rows |= bits[k]
            meets[field] = rows
        out[i] = meets[field]
    return out


class _RuleMatch(NamedTuple):
    """One ACL rule's match fields as integer interval sets.

    ``None`` matches every value, and is what a protocol without ports
    has for them; an empty address set matches none.
    """

    src: IntervalSet
    dst: IntervalSet
    sport: IntervalSet | None
    values: IntervalSet | None  # dport, or ICMP type for protocol 1


def _encode(rule: "AclRule", codes: dict) -> tuple:
    """A rule's match fields as a row's.  ``codes`` encodes rules and address
    fields once per object, keyed by id (an entry keeps its object alive),
    and port fields once per value."""
    entry = codes.get(id(rule))
    if entry is None:
        _, protocol, src, dst, sport, dport = rule[:6]
        src_code = codes.get(id(src))
        if src_code is None:
            src_code = codes[id(src)] = (src, address_intervals(src))
        dst_code = codes.get(id(dst))
        if dst_code is None:
            dst_code = codes[id(dst)] = (dst, address_intervals(dst))
        sport_code = codes.get(sport)
        if sport_code is None:
            sport_code = codes[sport] = (sport, intervals.normalize(sport) if sport else None)
        dport_code = codes.get(dport)
        if dport_code is None:
            dport_code = codes[dport] = (dport, intervals.normalize(dport) if dport else None)
        entry = codes[id(rule)] = (rule, (
            src_code[1], dst_code[1], sport_code[1] if protocol in (6, 17) else None,
            dport_code[1] if protocol in (1, 6, 17) else None))
    return entry[1]


class MatchTable:
    """First-match lookup over one ACL, each rule encoded once.

    ``rows`` holds one encoded rule per ACL rule, in ACL order; bit *i*
    of ``permits`` is set when rule *i* permits.  Lookups index each
    field (addresses, sport, value) by ``_row_bits``.  ``codes``, shared
    by the tables of one network, encodes each rule once across them.
    """

    def __init__(self, rules: tuple["AclRule", ...],
                 codes: dict | None = None) -> None:
        self.rules = rules
        codes = {} if codes is None else codes
        self.rows = [_RuleMatch(*_encode(rule, codes)) for rule in rules]
        self.permits = sum(1 << i for i, rule in enumerate(rules) if rule.action == "permit")
        self._dims: list[tuple[list[int], list[int]] | None] = [None] * 4
        self._heads: dict[tuple[int | None, str | None], int] = {}

    def lookup(self, protocol: int | None = None, state: str | None = None,
               src: int | None = None, dst: int | None = None,
               sport: int | None = None, value: int | None = None) -> int:
        """The rows that match these header fields, bit *i* for row *i*: a
        bisect per field ANDed with the rows of the protocol and state.  A
        field left out spans its whole axis, the value being the dport
        or ICMP type."""
        bits = self._heads.get((protocol, state))
        if bits is None:  # the rows whose protocol and state admit the packet's
            bits = self._heads[(protocol, state)] = sum(
                1 << i for i, rule in enumerate(self.rules)
                if (protocol is None or rule.protocol is None or rule.protocol == protocol)
                and (state is None or not rule.state or state in rule.state))
        dims = self._dims
        for k, point in enumerate((src, dst, sport, value)):
            if point is not None and bits:
                if dims[k] is None:  # each field is indexed on first use
                    top = ADDR_MAX if k < 2 else PORT_MAX
                    dims[k] = _row_bits([row[k] for row in self.rows], top)
                starts, rows = dims[k]
                bits &= rows[bisect_right(starts, point) - 1]
        return bits

    def decide(self, packet: Packet) -> tuple[str, str]:
        """First-match decision plus a description of the deciding rule."""
        protocol = packet.protocol
        bits = self.lookup(protocol, packet.state, packet.src_addr, packet.dst_addr, packet.sport,
                           packet.icmp_type if protocol == 1 else packet.dport)
        if not bits:
            return "deny", "implicit deny (no match)"
        index = (bits & -bits).bit_length() - 1
        rule = self.rules[index]
        label = rule.comment or rule.origin_service
        if not label:
            # the compiler's fixed any-to-any ip deny, or a rule without a remark
            from forestfw.netgen import TERMINAL_DENY  # netgen imports this module
            label = ("(terminal)" if rule.match_key() == TERMINAL_DENY.match_key()
                     else "(no remark)")
        return rule.action, f"[{index}] {rule.action} {label}"

    def walk(self, rows: int, masks: Mapping[int, int], universe: int) -> tuple[int, int]:
        """First match over ``universe``: each of ``rows`` in ACL order
        decides what no earlier one did of its region ``masks[i]``.  The
        region the permits decide, and the rows that decide some of it."""
        permitted = deciding = 0
        undecided = universe
        for i in bit_indexes(rows):
            decided = undecided & masks[i]
            if decided:
                deciding |= 1 << i
                if self.permits >> i & 1:
                    permitted |= decided
                undecided ^= decided
                if not undecided:
                    break
        return permitted, deciding


_RUNS = re.compile("1+")


class Grid:
    """The value x sport plane of one protocol, the value being the dport
    or the ICMP type, cut into atoms: the elementary intervals that the
    given fields' bounds cut from each axis.  A region is an int with bit
    ``v*S + s`` for value atom *v* and sport atom *s*, S sport atoms per
    row; without sport fields a row is one atom, and a region is a set
    of value atoms (atomic predicates, Yang and Lam, ICNP 2013)."""

    def __init__(self, values: Iterable[IntervalSet],
                 sports: Iterable[IntervalSet] = ()) -> None:
        # each axis's atom starts, closed by PORT_MAX + 1
        self.values = cuts(values, PORT_MAX) + [PORT_MAX + 1]
        self.sports = cuts(sports, PORT_MAX) + [PORT_MAX + 1]
        self._value_atom = {start: v for v, start in enumerate(self.values)}
        self._sport_atom = {start: s for s, start in enumerate(self.sports)}
        self.width = len(self.sports) - 1
        self._row = (1 << self.width) - 1
        # bit v*S for every value atom v
        self._spread = ((1 << self.width * (len(self.values) - 1)) - 1) // self._row
        self._masks: dict[tuple, int] = {}

    def mask(self, values: IntervalSet | None, sports: IntervalSet | None = None) -> int:
        """The rectangle ``values x sports`` (all for None), whose bounds
        must be cuts: its sport row times a value replicator."""
        key = (values, sports)
        if key not in self._masks:
            row = self._row if sports is None else sum(
                (1 << self._sport_atom[hi + 1]) - (1 << self._sport_atom[lo]) for lo, hi in sports)
            width = self.width
            spread = self._spread if values is None else self._spread & sum(
                (1 << self._value_atom[hi + 1] * width) - (1 << self._value_atom[lo] * width)
                for lo, hi in values)
            self._masks[key] = row * spread
        return self._masks[key]

    def strips(self, mask: int) -> tuple[tuple[Interval, IntervalSet], ...]:
        """The region ``mask`` as maximal canonical strips in value order:
        adjacent value atoms with equal sport rows merge, empty rows drop."""
        width, starts = self.width, self.values
        bits = format(mask, "b").zfill(width * (len(starts) - 1))[::-1]  # bit k at index k
        out: list[tuple[Interval, IntervalSet]] = []
        last, v = None, 0
        while (k := bits.find("1", v * width)) >= 0:
            v = k // width
            row = bits[v * width:(v + 1) * width]
            if row == last and out[-1][0][1] + 1 == starts[v]:
                out[-1] = ((out[-1][0][0], starts[v + 1] - 1), out[-1][1])
            else:
                out.append(((starts[v], starts[v + 1] - 1), tuple(
                    (self.sports[run.start()], self.sports[run.end()] - 1)
                    for run in _RUNS.finditer(row))))
            last, v = row, v + 1
        return tuple(out)

