"""The renderers against the oracle in ``support``: the same neutral,
iptables-like and ASA-like text on compiled inputs and on random ACLs,
with one rule text cache shared by a whole compile and with none, and a
manifest that loads to the same object."""

import ipaddress
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestfw.netgen import (
    Acl,
    AclRule,
    CompileOptions,
    InterfaceAssignment,
    NetworkPolicy,
    TERMINAL_DENY,
    compile_policy,
)
from forestfw.policy_lang import parse_policy
from forestfw.policy_lang.syntax import PortRange
from forestfw.render import RenderCache, manifest_json, render_device, render_neutral_file
from forestfw.topo_model import LOCAL_INTERFACE, load_topology
from support import (
    generated_policy_sources,
    grid_topology,
    oracle_manifest_json,
    oracle_render_device,
    oracle_render_neutral_file,
)

DEVICES = ("iptables_like", "asa_like")


def assert_renders_as_oracle(policy: NetworkPolicy) -> None:
    """Every firewall, with one cache for the whole policy (as ``compile``
    renders) and with a fresh one per call."""
    cache = RenderCache(policy.log_denies)
    for firewall in policy.firewalls():
        want = oracle_render_neutral_file(policy, firewall)
        assert render_neutral_file(policy, firewall, cache) == want
        assert render_neutral_file(policy, firewall) == want
        for vendor in DEVICES:
            want = oracle_render_device(policy, firewall, vendor)
            assert render_device(policy, firewall, vendor, None, cache) == want
            assert render_device(policy, firewall, vendor) == want


@pytest.fixture(scope="module")
def generated_policies(plant_topology) -> dict[str, NetworkPolicy]:
    sources = generated_policy_sources()
    policies = {}
    for seed in (1, 2, 3):
        options = CompileOptions(
            best_practice=parse_policy(sources[f"bulk{seed}_best_practice"]))
        policies[f"bulk{seed}"] = compile_policy(parse_policy(sources[f"bulk{seed}"]),
                                                 plant_topology, options)
    for rows, cols in ((2, 2), (2, 3), (2, 4)):
        name = f"grid{rows}x{cols}"
        policies[name] = compile_policy(parse_policy(sources[name]),
                                        load_topology(grid_topology(rows, cols)),
                                        CompileOptions())
    return policies


@pytest.mark.parametrize("name", ["plant", "bulk1", "bulk2", "bulk3",
                                  "grid2x2", "grid2x3", "grid2x4"])
def test_compiled_output_matches_the_oracle(name, compiled_plant, generated_policies):
    policy = compiled_plant if name == "plant" else generated_policies[name]
    assert_renders_as_oracle(policy)
    assert json.loads(manifest_json(policy)) == json.loads(oracle_manifest_json(policy))


def test_plant_exercises_what_the_oracle_compares(compiled_plant):
    # the plant compiles with --ospf and logs its denies, so the comparison
    # covers a protocol rendered by name without ports and the deny logging
    assert compiled_plant.options.ospf and compiled_plant.log_denies
    rules = [rule for acls in compiled_plant.acls.values() for acl in acls for rule in acl.rules]
    assert any(rule.protocol == 89 for rule in rules)


NET_POOL = [ipaddress.IPv4Network(text) for text in (
    "0.0.0.0/0", "10.0.0.0/29", "10.0.0.16/29", "10.0.128.4/30", "192.0.2.7/32")]
addresses = st.one_of(
    st.just((NET_POOL[0],)),
    st.lists(st.sampled_from(NET_POOL), min_size=1, max_size=3).map(tuple),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)).map(
        lambda a: (ipaddress.IPv4Network(a, strict=False),)),
)


def port_lists(upper: int, min_size: int = 0):
    bound = st.integers(0, upper)
    ranges = st.tuples(bound, bound).map(lambda b: PortRange(min(b), max(b)))
    edge = st.sampled_from((PortRange(0, upper), PortRange(upper, upper), PortRange(0, 0)))
    return st.lists(st.one_of(ranges, edge), min_size=min_size, max_size=3).map(tuple)


@st.composite
def rules(draw) -> AclRule:
    # 89 is rendered by name, 47 and 132 by number, None as ip
    protocol = draw(st.sampled_from((1, 6, 17, 89, 47, 132, None)))
    sport = dport = ()
    if protocol in (6, 17):
        sport, dport = draw(port_lists(65535)), draw(port_lists(65535))
    elif protocol == 1:
        dport = draw(port_lists(40))  # ICMP types; each one is an iptables line
    origin = draw(st.sampled_from(("", "web_rule")))
    return AclRule(
        action=draw(st.sampled_from(("permit", "deny"))), protocol=protocol,
        src=draw(addresses), dst=draw(addresses), sport=sport, dport=dport,
        state=tuple(draw(st.lists(st.sampled_from(("NEW", "ESTABLISHED")), max_size=2))),
        log=draw(st.booleans()), comment=draw(st.sampled_from(("", "c one", "c two", "{acl} }{"))),
        origin_rule=origin, origin_service="https" if origin else "",
        service_comment=draw(st.sampled_from(("", "HTTPS traffic", "{text}"))) if origin else "")


@st.composite
def policies(draw) -> NetworkPolicy:
    """Two firewalls whose ACLs draw from one pool of rule objects, so
    rules repeat within an ACL, across ACLs and across firewalls."""
    pool = draw(st.lists(rules(), min_size=1, max_size=6))
    acls, assignments = {}, []
    interfaces = st.sampled_from(("eth0", "eth1", LOCAL_INTERFACE))
    for firewall in ("FW1", "FW2"):
        firewall_acls = []
        for i in range(1, draw(st.integers(1, 3)) + 1):
            picked = draw(st.lists(st.sampled_from(pool), max_size=6))
            firewall_acls.append(Acl(f"acl_{i}", tuple(picked) + (TERMINAL_DENY,)))
            assignments.append(InterfaceAssignment(
                firewall, draw(interfaces), draw(st.sampled_from(("inbound", "outbound"))),
                f"acl_{i}"))
        acls[firewall] = tuple(firewall_acls)
    return NetworkPolicy(model=None, flows=(), acls=acls, assignments=tuple(assignments),
                         options=CompileOptions(), spec=None, log_denies=draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(policies())
def test_random_acls_render_as_the_oracle(policy):
    assert_renders_as_oracle(policy)
