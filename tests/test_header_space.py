import ipaddress
import itertools
import random

import pytest

from forestfw import intervals
from forestfw.header_space import (
    ADDR_MAX,
    ESTABLISHED,
    NEW,
    STATES,
    Grid,
    MatchTable,
    Packet,
    cuts,
)
from forestfw.netgen import ANY_NET, AclRule
from forestfw.policy_lang.syntax import FULL_ICMP_SET, PortRange
from support import (
    matching,
    matching_by_walk,
    packet_matches,
    permitted_by_walk,
    random_accept_rules,
    rule_grid_points,
    rule_matches_packet,
    whitelist_reading,
)

HTTP_PERMIT = AclRule("permit", 6, (ANY_NET,), (ANY_NET,), dport=(PortRange(80, 80),))
HTTP_DENY = AclRule("deny", 6, (ANY_NET,), (ANY_NET,), dport=(PortRange(80, 80),))


def first_match(rules, point) -> str:
    return MatchTable(tuple(rules)).decide(point)[0]


def test_first_match_implicit_deny():
    assert MatchTable(()).decide(Packet()) == ("deny", "implicit deny (no match)")


def test_deciding_rule_is_named_without_comment_or_origin():
    terminal = AclRule("deny", None, (ANY_NET,), (ANY_NET,))
    labelled = AclRule("permit", 6, (ANY_NET,), (ANY_NET,), dport=(PortRange(443, 443),),
                       comment="web (forward path)")
    table = MatchTable((labelled, HTTP_PERMIT, terminal))
    assert table.decide(Packet(protocol=6, dport=443)) == ("permit", "[0] permit web (forward path)")
    assert table.decide(Packet(protocol=6, dport=80)) == ("permit", "[1] permit (no remark)")
    assert table.decide(Packet(protocol=17, dport=80)) == ("deny", "[2] deny (terminal)")
    # only the fixed any-to-any deny is the terminal; other ip rules have no remark
    corp = ipaddress.IPv4Network("10.1.0.0/16")
    ip_permit = AclRule("permit", None, (ANY_NET,), (ANY_NET,))
    assert MatchTable((ip_permit, terminal)).decide(Packet(protocol=17)) == (
        "permit", "[0] permit (no remark)")
    ip_deny = AclRule("deny", None, (corp,), (ANY_NET,))
    assert MatchTable((ip_deny, terminal)).decide(Packet(protocol=6, src_addr=int(corp[1]))) == (
        "deny", "[0] deny (no remark)")
    logged = AclRule("deny", None, (ANY_NET,), (ANY_NET,), log=True)
    assert MatchTable((logged,)).decide(Packet()) == ("deny", "[0] deny (no remark)")


def test_first_match_first_wins():
    rules = (HTTP_PERMIT, HTTP_DENY)
    assert MatchTable(rules).decide(Packet(protocol=6, dport=80))[0] == "permit"


def test_last_match_last_wins():
    # last match is first match of the reversed ACL
    rules = (HTTP_PERMIT, HTTP_DENY)
    assert first_match(rules[::-1], Packet(protocol=6, dport=80)) == "deny"
    assert first_match((), Packet()) == "deny"


def test_whitelist_accepts_on_any_match():
    rule = AclRule("permit", 6, (ANY_NET,), (ANY_NET,), dport=(PortRange(443, 443),))
    whitelist = whitelist_reading([rule])
    assert whitelist(Packet(protocol=6, dport=443)) == "permit"
    assert whitelist(Packet(protocol=6, dport=80)) == "deny"


def test_whitelist_permutation_invariance():
    rng = random.Random(3)
    points = rule_grid_points()
    for _ in range(30):
        rules = random_accept_rules(rng)
        shuffled = rules[:]
        rng.shuffle(shuffled)
        whitelist, shuffled_whitelist = whitelist_reading(rules), whitelist_reading(shuffled)
        table, shuffled_table = MatchTable(tuple(rules)), MatchTable(tuple(shuffled))
        for point in points:
            assert whitelist(point) == shuffled_whitelist(point)
            assert table.decide(point)[0] == shuffled_table.decide(point)[0]


def test_strategies_agree_on_accept_only_rules():
    rng = random.Random(4)
    points = rule_grid_points()
    for _ in range(50):
        rules = random_accept_rules(rng)
        first, last = MatchTable(tuple(rules)), MatchTable(tuple(rules[::-1]))
        whitelist = whitelist_reading(rules)
        for point in points:
            decision = first.decide(point)[0]
            assert decision == last.decide(point)[0]
            assert decision == whitelist(point)


def _first_of(f, g):
    """Compose two decision functions under first-match precedence."""
    def combined(x):
        left = f(x)
        return left if left != "deny" else g(x)
    return combined


def _last_of(f, g):
    def combined(x):
        right = g(x)
        return right if right != "deny" else f(x)
    return combined


def test_combination_strategies_associative():
    # grouping rules pairwise in either association gives the same decisions
    rng = random.Random(5)
    points = rule_grid_points()
    for _ in range(30):
        r1, r2, r3 = (random_accept_rules(rng, max_rules=1)[0] for _ in range(3))

        def single(rule):
            table = MatchTable((rule,))
            return lambda x: table.decide(x)[0]

        flat = MatchTable((r1, r2, r3))
        left = _first_of(_first_of(single(r1), single(r2)), single(r3))
        right = _first_of(single(r1), _first_of(single(r2), single(r3)))
        for point in points:
            assert left(point) == right(point) == flat.decide(point)[0]

        # last match is first match of the reversed ACL
        reversed_flat = MatchTable((r3, r2, r1))
        last_left = _last_of(_last_of(single(r1), single(r2)), single(r3))
        last_right = _last_of(single(r1), _last_of(single(r2), single(r3)))
        for point in points:
            assert last_left(point) == last_right(point) == reversed_flat.decide(point)[0]


def test_rule_matching_agrees_with_per_packet_oracle():
    """The ACL engine matches a compiled rule against exactly the packets
    the field-by-field oracle matches, ICMP types included."""
    rng = random.Random(23)
    nets = [ipaddress.IPv4Network(text) for text in (
        "0.0.0.0/0", "10.0.0.0/30", "10.0.0.4/30", "10.0.0.0/29", "10.0.0.9/32")]

    def ranges(upper: int) -> tuple[PortRange, ...]:
        bounds = (sorted(rng.randrange(upper + 1) for _ in range(2))
                  for _ in range(rng.randint(0, 2)))
        return tuple(PortRange(lo, hi) for lo, hi in bounds)

    def rule() -> AclRule:
        protocol = rng.choice((1, 6, 17, 89, None))
        ported = protocol in (6, 17)
        return AclRule(
            action=rng.choice(("permit", "deny")), protocol=protocol,
            src=tuple(rng.sample(nets, rng.randint(1, 2))),
            dst=tuple(rng.sample(nets, rng.randint(1, 2))),
            sport=ranges(65535) if ported else (),
            dport=ranges(65535) if ported else ranges(255) if protocol == 1 else (),
            state=tuple(rng.sample((NEW, ESTABLISHED), rng.randint(0, 2))))

    def packet() -> Packet:
        return Packet(int(nets[1].network_address) + rng.randrange(12),
                      int(nets[1].network_address) + rng.randrange(12),
                      rng.choice((1, 6, 17, 89)), rng.randrange(65536),
                      rng.randrange(65536), rng.randrange(256), rng.choice((NEW, ESTABLISHED)))

    outcomes = set()
    for _ in range(300):
        r = rule()
        for _ in range(20):
            p = packet()
            matched = rule_matches_packet(r, p)
            assert packet_matches(r, p) == matched, (r, p)
            outcomes.add((r.protocol, matched))
    assert len(outcomes) == 10  # each rule protocol both matched and missed



def test_table_rows_equal_each_rules_own_row():
    """The table encodes a field shared by several rules once; each rule's
    row still holds its own fields."""
    rng = random.Random(29)
    nets = [ipaddress.IPv4Network(text) for text in (
        "0.0.0.0/0", "10.0.0.0/29", "10.0.0.16/29", "192.0.2.7/32")]
    ports = [(PortRange(0, 65535),), (PortRange(80, 80),), (PortRange(8, 8), PortRange(20, 30))]
    shared = 0
    for _ in range(200):
        rules = []
        for _ in range(rng.randint(1, 8)):
            protocol = rng.choice((1, 6, 17, 89, None))
            rules.append(AclRule(
                action=rng.choice(("permit", "deny")), protocol=protocol,
                src=tuple(rng.sample(nets, rng.randint(1, 2))),
                dst=tuple(rng.sample(nets, rng.randint(1, 2))),
                sport=rng.choice(ports + [()]) if protocol in (6, 17) else (),
                dport=rng.choice(ports + [()]) if protocol in (1, 6, 17) else (),
                state=tuple(rng.sample((NEW, ESTABLISHED), rng.randint(0, 2)))))
        table = MatchTable(tuple(rules))
        for i, rule in enumerate(rules):
            assert table.rows[i] == MatchTable((rule,)).rows[0], (rules, i)
        fields = [f for r in rules for f in (r.src, r.dst, r.sport, r.dport) if f]
        shared += len(fields) - len(set(fields))
    assert shared > 200  # the rules do share fields


# ---------------------------------------------------------------------------
# row bitsets vs. the linear walk over interval sets

BITSET_NETS = [(ANY_NET,), (), (ipaddress.IPv4Network("10.0.0.0/30"),),
               (ipaddress.IPv4Network("10.0.0.4/30"), ipaddress.IPv4Network("10.0.0.9/32")),
               (ipaddress.IPv4Network("10.0.0.0/29"),)]


def _random_bitset_rule(rng: random.Random) -> AclRule:
    """A random rule; ``ip`` rules, empty address sets, ICMP type ranges
    and state sets included."""
    protocol = rng.choice((1, 6, 17, 89, None))

    def ranges(upper: int) -> tuple[PortRange, ...]:
        bounds = (sorted(rng.randrange(upper + 1) for _ in range(2))
                  for _ in range(rng.randint(0, 2)))
        return tuple(PortRange(lo, hi) for lo, hi in bounds)

    return AclRule(
        action=rng.choice(("permit", "deny")), protocol=protocol,
        src=rng.choice(BITSET_NETS), dst=rng.choice(BITSET_NETS),
        sport=ranges(600) if protocol in (6, 17) else (),
        dport=ranges(600) if protocol in (6, 17) else ranges(255) if protocol == 1 else (),
        state=tuple(rng.sample((NEW, ESTABLISHED), rng.randint(0, 2))))


def _bound_packets(rng: random.Random, rules) -> list[Packet]:
    """Packets whose ports and types sit at lo, hi and hi + 1 of the rules' bounds."""
    edges = [0, 65535] + [edge for rule in rules for lo, hi in rule.sport + rule.dport
                          for edge in (lo, hi, hi + 1)]
    base = int(BITSET_NETS[2][0].network_address)
    return [Packet(base + rng.randrange(12), base + rng.randrange(12),
                   rng.choice((1, 6, 17, 89)), rng.choice(edges), rng.choice(edges),
                   min(rng.choice(edges), 255), rng.choice((NEW, ESTABLISHED)))
            for _ in range(40)]


def test_row_bitsets_match_in_the_order_of_the_linear_walk():
    """The rows that match, their order, the first match's decision and
    the swept candidates equal the walk over each row's intervals."""
    rng = random.Random(31)
    outcomes = set()
    for _ in range(150):
        rules = tuple(_random_bitset_rule(rng) for _ in range(rng.randint(0, 12)))
        table = MatchTable(rules)
        for packet in _bound_packets(rng, rules):
            walked = matching_by_walk(table, packet)
            assert matching(table, packet) == walked, (rules, packet)
            action, text = table.decide(packet)
            if walked:
                assert (action, text.split(" ")[0]) == (rules[walked[0]].action, f"[{walked[0]}]")
            else:
                assert (action, text) == ("deny", "implicit deny (no match)")
            assert (matching(table, packet, sweep=True)
                    == matching_by_walk(table, packet, sweep=True)), (rules, packet)
            outcomes.add((packet.protocol, packet.state, len(walked) > 1))
    assert len(outcomes) == 16  # every protocol and state, with at most one and with more matches


def test_value_masks_expand_to_the_walks_permitted_intervals():
    """Each table's permitted atoms are exactly the values the interval
    walk permits over a universe of scanned ranges."""
    rng = random.Random(37)
    for _ in range(150):
        rules = tuple(_random_bitset_rule(rng) for _ in range(rng.randint(0, 12)))
        table = MatchTable(rules)
        scanned = intervals.normalize((lo, rng.randrange(lo, 700))
                                      for lo in (rng.randrange(700) for _ in range(3)))
        grid = Grid([scanned, FULL_ICMP_SET] + [row.values for row in table.rows if row.values])
        masks = {i: grid.mask(row.values) for i, row in enumerate(table.rows)}
        for packet in _bound_packets(rng, rules)[:10]:
            universe = (intervals.intersect(scanned, FULL_ICMP_SET) if packet.protocol == 1
                        else scanned)
            swept = table.lookup(packet.protocol, packet.state, packet.src_addr,
                                 packet.dst_addr, packet.sport)
            permitted = table.walk(swept, masks, grid.mask(universe))[0]
            assert (tuple(values for values, _ in grid.strips(permitted))
                    == permitted_by_walk(table, packet, universe)), (rules, packet, universe)


def test_walk_over_each_cell_equals_decide_at_each_atom():
    """The anomaly check's cells of random ACLs: for every protocol (one
    that no rule names included), state, source and destination address
    atom, the walk over the rows that match the cell permits a (value
    atom, sport atom) point of its grid exactly when ``decide`` permits
    the atom's lowest point, and marks deciding exactly the rows that
    ``decide`` names at some point."""
    rng = random.Random(41)
    kinds = set()
    for _ in range(80):
        rules = tuple(_random_bitset_rule(rng) for _ in range(rng.randint(0, 8)))
        table = MatchTable(rules)
        src_atoms = cuts((row.src for row in table.rows), ADDR_MAX)
        dst_atoms = cuts((row.dst for row in table.rows), ADDR_MAX)
        for protocol in (1, 6, 17, 89, 50):
            rows = [row if rule.protocol in (protocol, None) else None
                    for rule, row in zip(rules, table.rows)]
            values = FULL_ICMP_SET if protocol == 1 else ((0, 65535),)
            grid = Grid([values, *(row.values for row in rows if row and row.values)],
                        [row.sport for row in rows if row and row.sport])
            plane = grid.mask(values)
            masks = {i: grid.mask(row.values, row.sport) & plane
                     for i, row in enumerate(rows) if row}
            for state, src, dst in itertools.product(STATES, src_atoms, dst_atoms):
                permitted, deciding = table.walk(table.lookup(protocol, state, src, dst),
                                                 masks, plane)
                decided = 0
                for v, value in enumerate(grid.values[:-1]):
                    for s, sport in enumerate(grid.sports[:-1]):
                        bit = v * grid.width + s
                        if not plane >> bit & 1:
                            assert not permitted >> bit & 1
                            continue
                        action, text = table.decide(Packet(src, dst, protocol, sport, value,
                                                           value, state))
                        assert (permitted >> bit & 1) == (action == "permit"), (rules, protocol)
                        if text.startswith("["):
                            decided |= 1 << int(text[1:text.index("]")])
                        kinds.add((protocol, action))
                assert deciding == decided, (rules, protocol, state, src, dst)
    assert kinds == {(p, a) for p in (1, 6, 17, 89, 50) for a in ("permit", "deny")}
