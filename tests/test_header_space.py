import ipaddress
import random

import pytest

from forestfw.header_space import (
    ACCEPT,
    DENY,
    ESTABLISHED,
    NEW,
    MatchRule,
    Packet,
    Predicate,
    eval_first_match,
    eval_last_match,
    eval_whitelist,
    matches,
    rule_region,
)
from forestfw.netgen import AclRule
from forestfw.policy_lang.syntax import PortRange
from forestfw.sim import rule_matches_packet
from support import random_accept_rules, rule_grid_points

FULL = Predicate()
HTTP = Predicate(protocol=((6, 6),), dport=((80, 80),), icmp=((0, 0),))


def test_full_space_matches_everything():
    for point in (Packet(), Packet(protocol=17, sport=1, dport=65535),
                  Packet(protocol=1, icmp_type=255)):
        assert matches(FULL, point)


def test_direct_containment():
    p = Predicate(protocol=((6, 6),), dport=((80, 80),))
    assert matches(p, Packet(protocol=6, dport=80, sport=4242, src_addr=7))


def test_disjoint_dimension():
    p = Predicate(protocol=((6, 6),))
    assert not matches(p, Packet(protocol=17))


def test_empty_predicate_dimension_rejected():
    with pytest.raises(ValueError):
        Predicate(protocol=())


def test_first_match_implicit_deny():
    assert eval_first_match([], Packet()) == DENY


def test_first_match_first_wins():
    rules = [MatchRule(ACCEPT, HTTP), MatchRule(DENY, HTTP)]
    assert eval_first_match(rules, Packet(protocol=6, dport=80)) == ACCEPT


def test_last_match_last_wins():
    rules = [MatchRule(ACCEPT, HTTP), MatchRule(DENY, HTTP)]
    assert eval_last_match(rules, Packet(protocol=6, dport=80)) == DENY
    assert eval_last_match([], Packet()) == DENY


def test_whitelist_accepts_on_any_match():
    rule = MatchRule(ACCEPT, Predicate(protocol=((6, 6),), dport=((443, 443),),
                                       icmp=((0, 0),)))
    assert eval_whitelist([rule], Packet(protocol=6, dport=443)) == ACCEPT
    assert eval_whitelist([rule], Packet(protocol=6, dport=80)) == DENY


def test_whitelist_rejects_deny_rules():
    with pytest.raises(ValueError, match="deny rule"):
        eval_whitelist([MatchRule(DENY, FULL, origin="bad")], Packet())


def test_whitelist_permutation_invariance():
    rng = random.Random(3)
    points = rule_grid_points()
    for _ in range(30):
        rules = random_accept_rules(rng)
        shuffled = rules[:]
        rng.shuffle(shuffled)
        for point in points:
            assert eval_whitelist(rules, point) == eval_whitelist(shuffled, point)


def test_strategies_agree_on_accept_only_rules():
    rng = random.Random(4)
    points = rule_grid_points()
    for _ in range(50):
        rules = random_accept_rules(rng)
        for point in points:
            first = eval_first_match(rules, point)
            assert first == eval_last_match(rules, point)
            assert first == eval_whitelist(rules, point)


def _first_of(f, g):
    """Compose two decision functions under first-match precedence."""
    def combined(x):
        left = f(x)
        return left if left != DENY else g(x)
    return combined


def _last_of(f, g):
    def combined(x):
        right = g(x)
        return right if right != DENY else f(x)
    return combined


def test_combination_strategies_associative():
    # grouping rules pairwise in either association gives the same decisions
    rng = random.Random(5)
    points = rule_grid_points()
    for _ in range(30):
        r1, r2, r3 = (random_accept_rules(rng, max_rules=1)[0] for _ in range(3))

        def single(rule):
            return lambda x: eval_first_match([rule], x)

        left = _first_of(_first_of(single(r1), single(r2)), single(r3))
        right = _first_of(single(r1), _first_of(single(r2), single(r3)))
        flat = [r1, r2, r3]
        for point in points:
            expected = eval_first_match(flat, point)
            assert left(point) == right(point) == expected

        last_left = _last_of(_last_of(single(r1), single(r2)), single(r3))
        last_right = _last_of(single(r1), _last_of(single(r2), single(r3)))
        for point in points:
            assert last_left(point) == last_right(point) == eval_last_match(flat, point)


def test_intersect_none_when_disjoint():
    a = Predicate(protocol=((6, 6),))
    b = Predicate(protocol=((17, 17),))
    assert a.intersect(b) is None
    both = Predicate(dport=((80, 90),)).intersect(Predicate(dport=((85, 100),)))
    assert both is not None
    assert both.dport == ((85, 90),)


def test_sample_point_matches_own_predicate():
    rng = random.Random(8)
    for _ in range(40):
        pred = random_accept_rules(rng, max_rules=1)[0].predicate
        assert matches(pred, pred.sample_point())


def test_rule_region_agrees_with_simulator_matching():
    """A compiled rule's region holds exactly the packets the simulator
    matches it against, ICMP types included."""
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
        region = rule_region(r)
        for _ in range(20):
            p = packet()
            matched = rule_matches_packet(r, p)
            assert matches(region, p) == matched, (r, p)
            outcomes.add((r.protocol, matched))
    assert len(outcomes) == 10  # each rule protocol both matched and missed
