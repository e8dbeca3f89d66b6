import ipaddress

import pytest

from forestfw.diagnostics import CompileError
from forestfw.netgen import (
    CompileOptions,
    PathIndex,
    TERMINAL_DENY,
    acl_names,
    add_supplementary_rules,
    compile_policy,
    enumerate_paths,
    hop_acls,
    hop_crossings,
    ospf_supplementary_rules,
    translate_rule,
)
from forestfw.policy_lang import expand_rules, parse_policy
from forestfw.policy_lang.syntax import FlowRule, PortRange, Service
from forestfw.topo_model import (
    Conduit,
    Zone,
    ZoneConduitModel,
    build_zone_firewall_model,
    derive_zone_conduit,
    firewall_zones,
    load_topology,
)
from conftest import FIXTURES, load_fixture_policy
from support import (
    enumerate_paths_exhaustive,
    from_network_policy,
    grid_model,
    grid_topology,
    realizable_without_loops,
    ring_model,
)


def net(text):
    return ipaddress.IPv4Network(text)


HTTPS = Service("https", 6, (PortRange(0, 65535),), (PortRange(443, 443),))
DNS_UDP = Service("dns_udp", 17, (PortRange(0, 65535),), (PortRange(53, 53),))
ECHO = Service("icmp_echo", 1, icmp_types=(PortRange(8, 8),))

ZONE_CIDRS = {
    "z1": (net("10.0.0.0/29"), net("10.0.128.4/30")),  # corp
    "z3": (net("10.0.0.16/29"),),                      # scada
    "many": (net("10.1.0.0/24"), net("10.2.0.0/24"), net("10.3.0.0/24")),
    "two": (net("10.4.0.0/24"), net("10.5.0.0/24")),
}


@pytest.fixture(scope="session")
def plant_model(plant_topology):
    return derive_zone_conduit(build_zone_firewall_model(plant_topology))


def test_scada_to_corp_has_the_single_dmz_path(plant_model):
    assert enumerate_paths(plant_model, "z3", "z1") == [["z3", "az1", "z1"]]


def test_management_path_is_the_direct_conduit(plant_model):
    assert enumerate_paths(plant_model, "z1", "fwz1") == [["z1", "fwz1"]]


def test_firewall_zones_never_appear_as_interior_nodes(plant_model):
    for src in plant_model.zones:
        for dst in plant_model.zones:
            if src == dst:
                continue
            for path in enumerate_paths(plant_model, src, dst):
                for interior in path[1:-1]:
                    assert plant_model.zones[interior].kind != "firewall"


def test_multi_hop_management_path_reaches_inner_firewall(plant_model):
    assert enumerate_paths(plant_model, "z1", "fwz2") == [["z1", "az1", "fwz2"]]


def test_firewall_originated_traffic_requires_adjacent_peer(plant_model):
    # R2's zone is not adjacent to corp: new traffic cannot originate there
    assert enumerate_paths(plant_model, "fwz2", "z1") == []
    # established return traffic retraces the forward path backwards
    assert enumerate_paths(plant_model, "fwz2", "z1", established=True) == [
        ["fwz2", "az1", "z1"]]
    # adjacent peers are reachable for new traffic
    assert enumerate_paths(plant_model, "fwz1", "z1") == [["fwz1", "z1"]]


def _ordered_pairs(zones) -> list[tuple[str, str]]:
    zones = sorted(zones)
    return [(src, dst) for src in zones for dst in zones if src != dst]


def _labelled_zones(model) -> list[str]:
    return [name for name, zone in model.zones.items() if zone.kind == "regular"]


def _assert_paths_equal_oracle(model, pairs, established=False) -> int:
    """Pruned and exhaustive enumeration agree, order included; returns the
    number of paths compared."""
    total = 0
    for src, dst in pairs:
        paths = enumerate_paths(model, src, dst, established)
        assert paths == enumerate_paths_exhaustive(model, src, dst, established), (src, dst)
        total += len(paths)
    return total


@pytest.mark.parametrize("established", [False, True])
def test_paths_equal_exhaustive_oracle_on_plant(plant_model, established):
    assert _assert_paths_equal_oracle(
        plant_model, _ordered_pairs(plant_model.zones), established) > 0


def test_path_index_rejects_declared_models_and_other_models(plant_model):
    declared = ZoneConduitModel(
        zones={name: Zone(name, "regular", frozenset()) for name in ("a", "b")},
        conduits={("a", "b"): Conduit(("a", "b"), frozenset())})
    with pytest.raises(ValueError, match="topology-derived"):
        enumerate_paths(declared, "a", "b")
    with pytest.raises(ValueError, match="another model"):
        enumerate_paths(plant_model, "z1", "z3", index=PathIndex(ring_model()))
    index = PathIndex(plant_model)
    assert (enumerate_paths(plant_model, "z3", "z1", index=index)
            == enumerate_paths(plant_model, "z3", "z1") == [["z3", "az1", "z1"]])


@pytest.mark.parametrize("established", [False, True])
def test_paths_equal_exhaustive_oracle_on_ring(established):
    model = ring_model()
    assert enumerate_paths(model, "z1", "z2") == [["z1", "z2"], ["z1", "z3", "z2"]]
    assert _assert_paths_equal_oracle(model, _ordered_pairs(model.zones), established) > 0


def _shared_interface_model() -> ZoneConduitModel:
    """Firewall f faces zones a and b through the same interface e0, so
    no packet can cross f from a to b; g realizes b-c next to f."""
    model = ZoneConduitModel()
    for name in ("a", "b", "c"):
        model.zones[name] = Zone(name, "regular", frozenset({f"s_{name}"}))
    model.zones["fwz1"] = Zone("fwz1", "firewall", frozenset({"f"}))
    model.zones["fwz2"] = Zone("fwz2", "firewall", frozenset({"g"}))
    model.firewall_interfaces = {"f": {"a": "e0", "b": "e0", "c": "e1"},
                                 "g": {"b": "e0", "c": "e1"}}
    realizers: dict[tuple[str, str], set[str]] = {}
    for firewall, fwz in (("f", "fwz1"), ("g", "fwz2")):
        facing = sorted(model.firewall_interfaces[firewall])
        for i, x in enumerate(facing):
            for y in facing[i + 1:] + [fwz]:
                realizers.setdefault(tuple(sorted((x, y))), set()).add(firewall)
    model.conduits = {pair: Conduit(pair, frozenset(fws))
                      for pair, fws in sorted(realizers.items())}
    return model


@pytest.mark.parametrize("established", [False, True])
def test_paths_equal_exhaustive_oracle_with_shared_interface(established):
    model = _shared_interface_model()
    # a -> b directly would enter and leave f through e0
    assert enumerate_paths(model, "a", "b") == [["a", "c", "b"]]
    _assert_paths_equal_oracle(model, _ordered_pairs(model.zones), established)


@pytest.mark.parametrize("rows, cols, established", [
    (2, 2, False), (2, 3, False), (3, 2, False), (2, 2, True), (2, 3, True), (3, 2, True),
], ids=["2-2", "2-3", "3-2", "2-2-established", "2-3-established", "3-2-established"])
def test_paths_equal_exhaustive_oracle_on_grid(rows, cols, established):
    """Between labelled zones, and from each Firewall-Zone, where
    ``established`` lifts the origination restriction, to them."""
    model = grid_model(rows, cols)
    labelled = _labelled_zones(model)
    firewalls = [name for name, zone in model.zones.items() if zone.kind == "firewall"]
    pairs = [(src, dst) for src in labelled + firewalls for dst in labelled if src != dst]
    # some pairs multipath
    assert _assert_paths_equal_oracle(model, pairs, established) > len(pairs)


def test_paths_equal_exhaustive_oracle_on_2x4_grid_pairs():
    model = grid_model(2, 4)
    pairs = [("z_r0c0", "z_r1c3"), ("z_r0c1", "z_r1c2"), ("z_r0c0", "fwz8")]
    assert _assert_paths_equal_oracle(model, pairs) > len(pairs)


def test_3x3_grid_paths_are_simple_ordered_and_realizable():
    model = grid_model(3, 3)
    total = 0
    for src, dst in _ordered_pairs(_labelled_zones(model)):
        paths = enumerate_paths(model, src, dst)
        assert paths, (src, dst)
        assert paths == sorted(paths)
        assert len({tuple(p) for p in paths}) == len(paths)
        for path in paths:
            assert path[0] == src and path[-1] == dst and len(set(path)) == len(path)
            assert realizable_without_loops(model, path), path
        total += len(paths)
    assert total > 72


def test_translate_rule_cross_product():
    flow = FlowRule("web_rule", "z3", "z1", HTTPS, "scada_zone", "corp_zone")
    rules = translate_rule(flow, ZONE_CIDRS, log=True, comment="c")
    assert len(rules) == 2
    assert [(str(r.src[0]), str(r.dst[0])) for r in rules] == [
        ("10.0.0.16/29", "10.0.0.0/29"),
        ("10.0.0.16/29", "10.0.128.4/30"),
    ]
    assert all(r.dport == (PortRange(443, 443),) and r.log for r in rules)


def test_translate_single_and_many_cidrs():
    one = translate_rule(FlowRule("r", "z3", "z3x", HTTPS),
                         {"z3": ZONE_CIDRS["z3"], "z3x": ZONE_CIDRS["z3"]})
    assert len(one) == 1
    many = translate_rule(FlowRule("r", "many", "two", HTTPS), ZONE_CIDRS)
    assert len(many) == 6


def test_translate_requires_addresses():
    from forestfw.diagnostics import PolicyError
    with pytest.raises(PolicyError, match="no addresses"):
        translate_rule(FlowRule("r", "ghost", "z1", HTTPS), ZONE_CIDRS)


def test_tcp_supplementary_state_and_return():
    flow = FlowRule("r", "z3", "z1", HTTPS)
    base = translate_rule(flow, ZONE_CIDRS, comment="enable x (forward path)")
    rules = add_supplementary_rules(base, flow)
    forward = [r for r in rules if r.flow_dir == "forward"]
    returns = [r for r in rules if r.flow_dir == "return"]
    assert all(r.state == ("NEW", "ESTABLISHED") for r in forward)
    assert len(returns) == len(forward)
    for fwd, ret in zip(forward, returns):
        assert ret.state == ("ESTABLISHED",)
        assert ret.src == fwd.dst and ret.dst == fwd.src
        assert ret.sport == fwd.dport and ret.dport == fwd.sport
        assert "(return path)" in ret.comment


def test_udp_supplementary_stateless_mirror():
    flow = FlowRule("r", "z3", "z1", DNS_UDP)
    rules = add_supplementary_rules(translate_rule(flow, ZONE_CIDRS), flow)
    returns = [r for r in rules if r.flow_dir == "return"]
    assert returns and all(r.state == () for r in rules)
    assert all(r.sport == (PortRange(53, 53),) for r in returns)


def test_icmp_gets_no_synthesized_return():
    flow = FlowRule("r", "z1", "z3", ECHO)
    rules = add_supplementary_rules(translate_rule(flow, ZONE_CIDRS), flow)
    assert all(r.flow_dir == "forward" for r in rules)
    assert all(r.dport == (PortRange(8, 8),) for r in rules)  # type in dport slot


def test_ospf_option_appends_multicast_permits():
    aux = ospf_supplementary_rules()
    assert [str(r.dst[0]) for r in aux] == ["224.0.0.5/32", "224.0.0.6/32"]
    assert all(r.protocol == 89 and r.action == "permit" and r.flow_dir == "aux"
               for r in aux)


def test_compile_fixture_shape(compiled_plant):
    assert compiled_plant.firewalls() == ["GW", "R1", "R2"]
    for firewall in compiled_plant.firewalls():
        acls = compiled_plant.acls[firewall]
        assert [a.name for a in acls] == ["acl_1", "acl_2", "acl_3", "acl_4"]
        for acl in acls:
            assert acl.rules[-1].action == "deny"
            assert acl.rules[-1].protocol is None
            assert sum(1 for r in acl.rules if r.action == "deny") == 1
    # R1 allocation: eth0/eth1 forwarding plus the local stages
    r1 = [(a.interface, a.direction, a.acl) for a in compiled_plant.assignments
          if a.firewall == "R1"]
    assert r1 == [
        ("eth0", "inbound", "acl_1"),
        ("eth1", "inbound", "acl_2"),
        ("local", "inbound", "acl_3"),
        ("local", "outbound", "acl_4"),
    ]


def test_every_acl_is_assigned(compiled_plant):
    assigned = {(a.firewall, a.acl) for a in compiled_plant.assignments}
    produced = {(fw, acl.name) for fw in compiled_plant.acls
                for acl in compiled_plant.acls[fw]}
    assert assigned == produced


@pytest.mark.parametrize("topology", ["fixture", "grid2x3", "grid3x3", "ring", "chain"])
def test_every_hop_acl_is_a_named_acl(topology):
    """Each key a hop's route names is one ``acl_names`` gives a name, so
    every ACL compile fills and the simulator walks is written and bound.
    The plant, with or without OSPF, and the bulk policies compile onto
    the fixture topology; the model is derived from the topology alone."""
    if topology.startswith("grid"):
        model = grid_model(*map(int, topology[len("grid"):].split("x")))
    elif topology == "ring":
        model = ring_model()
    else:
        name = {"fixture": "topology.graphml", "chain": "firewall_chain.graphml"}[topology]
        model = derive_zone_conduit(build_zone_firewall_model(
            load_topology((FIXTURES / name).read_text(encoding="utf-8"))))
    names = acl_names(model)
    keys = {key for hop in PathIndex(model).hop_keys.values() for key in hop}
    assert keys and keys <= names.keys()
    for firewall in model.firewall_interfaces:
        bound = sorted(key for key in names if key[0] == firewall)
        assert [names[key] for key in bound] == [f"acl_{i}" for i in range(1, len(bound) + 1)]


def test_no_generic_permits(compiled_plant):
    for fw in compiled_plant.firewalls():
        for acl in compiled_plant.acls[fw]:
            for rule in acl.rules:
                if rule.action == "permit":
                    assert rule.protocol is not None
                    if rule.protocol in (6, 17):
                        bounded = (rule.sport != (PortRange(0, 65535),)
                                   or rule.dport != (PortRange(0, 65535),))
                        assert bounded


def test_empty_rule_group_compiles_to_deny_only(plant_topology):
    spec = load_fixture_policy("scada_plant_fixed.policyml")
    import copy
    trimmed = copy.copy(spec)
    trimmed.rule_groups = dict(spec.rule_groups)
    trimmed.rule_groups["security_policy"] = ()
    policy = compile_policy(trimmed, plant_topology)
    assert policy.flows == ()
    for fw in policy.firewalls():
        for acl in policy.acls[fw]:
            assert len(acl.rules) == 1
            assert acl.rules[0].action == "deny"


def test_overlapping_policy_fails_compilation(plant_topology):
    spec = load_fixture_policy("scada_plant.policyml")
    with pytest.raises(CompileError) as err:
        compile_policy(spec, plant_topology)
    assert "rule overlap" in str(err.value)


def test_declared_model_mismatch_fails_compilation(plant_topology):
    from conftest import FIXTURES
    from forestfw.topo_model import load_declared_model

    spec = load_fixture_policy("scada_plant_fixed.policyml")
    declared_text = (FIXTURES / "zone_conduit.graphml").read_text()
    declared = load_declared_model(
        declared_text.replace('<edge source="z1" target="z2"/>', ""))
    with pytest.raises(CompileError, match="security model mismatch"):
        compile_policy(spec, plant_topology,
                       CompileOptions(declared_model=declared))


def test_best_practice_violation_fails_compilation(plant_topology):
    from forestfw.policy_lang import parse_policy

    spec = load_fixture_policy("scada_plant_fixed.policyml")
    strict_bp = parse_policy(
        "import system.services.iana_services;\n"
        "zone_group protected_zone { z3 }\n"
        "policy_rule inbound_bound { any_zone -> protected_zone : "
        "iana_services.https }\n"
        "policy_rule outbound_bound { protected_zone -> any_zone : "
        "iana_services.https }\n"
        "rule_group best_practice { inbound_bound, outbound_bound }\n")
    with pytest.raises(CompileError, match="best-practice violation"):
        compile_policy(spec, plant_topology,
                       CompileOptions(best_practice=strict_bp))


def test_flow_without_valid_path_is_fatal(plant_topology, monkeypatch):
    spec = load_fixture_policy("scada_plant_fixed.policyml")
    flows = expand_rules(spec)
    # splice in a flow that originates at R2's zone toward a non-adjacent peer
    bad = FlowRule("r2_to_corp", "fwz2", "z1", HTTPS)
    import forestfw.netgen as netgen_mod
    monkeypatch.setattr(netgen_mod, "expand_rules", lambda _spec: flows + [bad])
    with pytest.raises(CompileError, match="no valid path for flow 'r2_to_corp'"):
        compile_policy(spec, plant_topology)


def test_conduit_isolation(plant_topology):
    spec = load_fixture_policy("scada_plant_fixed.policyml")
    full = compile_policy(spec, plant_topology, CompileOptions(ospf=True))

    trimmed_spec = load_fixture_policy("scada_plant_fixed.policyml")
    trimmed_spec.rule_groups = dict(trimmed_spec.rule_groups)
    trimmed_spec.rule_groups["security_policy"] = tuple(
        r for r in trimmed_spec.rule_groups["security_policy"]
        if r not in ("corp_internet_rule", "internet_corp_rule"))
    trimmed = compile_policy(trimmed_spec, plant_topology, CompileOptions(ospf=True))

    # ACLs realizing a z1-z2 hop change; every other binding carries identical rules
    model = full.model
    fw_zones = firewall_zones(model)
    affected = {key for x, y in (("z1", "z2"), ("z2", "z1"))
                for key in hop_acls(hop_crossings(model, x, y, fw_zones))}
    full_acls = from_network_policy(full).acl_map
    trimmed_acls = from_network_policy(trimmed).acl_map
    assert affected and set(full_acls) == set(trimmed_acls)
    assert any(full_acls[key] != trimmed_acls[key] for key in affected)
    for key, rules in full_acls.items():
        if key not in affected:
            assert trimmed_acls[key] == rules, key


GRID_POLICY = """
zone_group g_a { z_r0c0 }
zone_group g_b { z_r1c2 }
service web { protocol=tcp; tcp.dest_port=443; }
service ping { protocol=icmp; icmp.type=8; }
policy_rule web_rule { g_a -> g_b : web }
policy_rule ping_rule { g_b -> g_a : ping }
rule_group grid_rules { web_rule, ping_rule }
reporting_rule verify_rules { use_case=verification;
  granularity.policy={rule_or_group={grid_rules}}; }
policy grid_policy { grid_rules; verify_rules; }
"""


def test_flow_rules_sit_on_every_hop_of_every_path():
    """Defence in depth on a multipath grid: a flow's forward rules sit in
    exactly the ACLs of the hops of its pair's paths, and its return rules
    (TCP only) in exactly those of the reversed hops."""
    policy = compile_policy(parse_policy(GRID_POLICY), load_topology(grid_topology(2, 3)))
    model = policy.model
    fw_zones = firewall_zones(model)
    acl_map = from_network_policy(policy).acl_map
    assert len(policy.flows) == 2
    for flow in policy.flows:
        paths = enumerate_paths(model, flow.src_zone, flow.dst_zone)
        assert len(paths) > 1
        hops = {hop for path in paths for hop in zip(path, path[1:])}
        wanted = {"forward": hops,
                  "return": {(y, x) for x, y in hops} if flow.service.protocol == 6 else set()}
        for direction, want_hops in wanted.items():
            want = {key for x, y in want_hops
                    for key in hop_acls(hop_crossings(model, x, y, fw_zones))}
            got = {key for key, rules in acl_map.items()
                   if any(r.origin_rule == flow.rule_name and r.flow_dir == direction
                          for r in rules)}
            assert got == want, (flow.rule_name, direction)


def test_compile_is_deterministic(plant_topology):
    spec = load_fixture_policy("scada_plant_fixed.policyml")
    a = compile_policy(spec, plant_topology, CompileOptions(ospf=True))
    b = compile_policy(spec, plant_topology, CompileOptions(ospf=True))
    assert a.assignments == b.assignments
    for fw in a.firewalls():
        assert a.acls[fw] == b.acls[fw]


def test_ospf_rules_on_physical_interfaces_only(compiled_plant):
    from forestfw.topo_model import LOCAL_INTERFACE
    by_key = {(a.firewall, a.interface, a.direction): a.acl
              for a in compiled_plant.assignments}
    for (fw, iface, direction), acl_name in by_key.items():
        acl = compiled_plant.acl_by_name(fw, acl_name)
        has_ospf = any(r.protocol == 89 for r in acl.rules)
        assert has_ospf == (iface != LOCAL_INTERFACE)


def test_terminal_deny_is_the_shared_constant():
    assert TERMINAL_DENY.action == "deny"
    assert TERMINAL_DENY.protocol is None
    assert ospf_supplementary_rules()[0].protocol == 89
