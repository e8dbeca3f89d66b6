"""The compile back end, byte for byte: the compiled tree against the
oracle in ``support`` (ACL assembly keyed per bucket entry, device lines
formatted from keywords), device templates with literal braces, repeated
and unused slots, and the plant's device configs against golden files."""

import ipaddress
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestfw import cli, netgen, render, sim
from forestfw.cli import main
from forestfw.netgen import (Acl, AclRule, CompileOptions, InterfaceAssignment, NetworkPolicy,
                             TERMINAL_DENY, compile_policy)
from forestfw.policy_lang import parse_policy
from forestfw.policy_lang.syntax import PortRange
from forestfw.render import RenderCache, render_device, render_neutral_file
from forestfw.topo_model import LOCAL_INTERFACE, load_topology
from support import (
    _perfbench_gen,
    kwargs_render_asa,
    kwargs_render_device,
    kwargs_render_iptables,
    oracle_assemble,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "plant"
TOPOLOGY = str(FIXTURES / "topology.graphml")
DEVICES = ("iptables_like", "asa_like")


def compile_args(name: str, work: Path) -> list[str]:
    """``compile`` arguments, less ``--out``, for one named input."""
    if name == "plant":
        return ["--policy", str(FIXTURES / "scada_plant_fixed.policyml"), "--topology", TOPOLOGY,
                "--best-practice", str(FIXTURES / "bestpractice" / "scada_isa.policyml"),
                "--ospf"]
    gen = _perfbench_gen()
    policy, best_practice = work / "policy.policyml", work / "best_practice.policyml"
    if name.startswith("bulk"):
        bulk = gen.bulk(int(name[len("bulk"):]))
        policy.write_text(bulk.policy, encoding="utf-8")
        best_practice.write_text(bulk.best_practice, encoding="utf-8")
        return ["--policy", str(policy), "--topology", TOPOLOGY,
                "--best-practice", str(best_practice)]
    rows, cols = map(int, name[len("grid"):].split("x"))
    grid = gen.grid(rows, cols, 1)
    policy.write_text(grid.policy, encoding="utf-8")
    topology = work / "topology.graphml"
    topology.write_text(grid.topology, encoding="utf-8")
    return ["--policy", str(policy), "--topology", str(topology)]


def compiled_tree(args: list[str], out: Path) -> dict[str, bytes]:
    assert main(["compile", *args, "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("name", ["plant", "bulk1", "bulk2", "bulk3", "grid2x3", "grid3x3"])
def test_compiled_tree_matches_the_oracle(name, tmp_path, monkeypatch, capsys):
    args = compile_args(name, tmp_path)
    got = compiled_tree(args, tmp_path / "compiled")
    used = set()

    def spy(what, oracle):
        def call(*args):
            used.add(what)
            return oracle(*args)
        return call

    with monkeypatch.context() as patch:
        patch.setattr(netgen, "_assemble",
                      spy("assemble", lambda entries: oracle_assemble(e[-1] for e in entries)))
        patch.setattr(render, "_render_iptables", spy("iptables", kwargs_render_iptables))
        patch.setattr(render, "_render_asa", spy("asa", kwargs_render_asa))
        want = compiled_tree(args, tmp_path / "oracle")
    capsys.readouterr()
    assert used == {"assemble", "iptables", "asa"}
    assert sorted(got) == sorted(want)
    for file_name in want:
        assert got[file_name] == want[file_name], file_name
    if name == "plant":
        # the plant logs its denies, so the comparison covers the LOG lines
        assert json.loads(got["manifest.json"])["options"]["log_denies"]
        assert b"-j LOG" in got["GW.iptables.txt"]


@pytest.mark.parametrize("name", ["plant", "plant_without_ospf", "bulk1", "bulk2", "bulk3",
                                  "grid2x2", "grid2x3", "grid3x3"])
def test_load_compiled_rebuilds_the_compiled_model_and_flows(name, tmp_path, monkeypatch,
                                                             capsys):
    """The round trip through the compile directory: the model simulate
    derives from the topology copy, and the flows it reads from the
    manifest, are the ones the compile wrote.  Each flow's service keeps
    its constraints, so service names are unique within a compile."""
    args = compile_args(name.removesuffix("_without_ospf"), tmp_path)
    if name == "plant_without_ospf":
        args.remove("--ospf")
    compiled = []

    def spy(*args):
        compiled.append(compile_policy(*args))
        return compiled[-1]

    monkeypatch.setattr(cli, "compile_policy", spy)
    compiled_tree(args, tmp_path / "compiled")
    capsys.readouterr()
    [policy] = compiled
    net = sim.load_compiled(tmp_path / "compiled")
    for part in ("zones", "conduits", "firewall_interfaces"):
        assert getattr(net.model, part) == getattr(policy.model, part), part
    assert [flow.flow_key() for flow in net.flows] == [flow.flow_key() for flow in policy.flows]


def test_plant_device_configs_match_the_golden_files(tmp_path, capsys):
    """Rendered before device lines were bound per ACL, and frozen."""
    got = compiled_tree(compile_args("plant", tmp_path), tmp_path / "compiled")
    capsys.readouterr()
    golden = sorted(GOLDEN.iterdir())
    assert [path.name for path in golden] == [
        f"{fw}.{kind}.txt" for fw in ("GW", "R1", "R2") for kind in ("asa", "iptables")]
    for path in golden:
        assert got[path.name] == path.read_bytes(), path.name


# each dialect with literal braces, a slot written twice and a slot left out
EDGE_TEMPLATES = {
    "iptables_like": """[header]
# {{{firewall}}} rules {{literal}} for {firewall}
*filter

[chain_decl]
:{acl} - [0:0]

[bind_forward]
-A FORWARD -i {interface} -j {acl}

[bind_input]
-A INPUT -j {acl}

[bind_output]
-A OUTPUT -j {acl}

[remark]
# {{ {text} }}

[rule]
-A {acl}{match} -j {target} -m comment --comment "{{{acl}}} {target}"

[log_rule]
-A {acl}{match} -j LOG

[footer]
COMMIT }}{{
""",
    "asa_like": """[header]
! {{{firewall}}}

[remark]
access-list {acl} remark {text} {{{acl}}}

[rule]
access-list {acl} extended {action} {proto} {src}{sport} {dst}{dport} ! {acl}

[bind]
access-group {acl} {direction} interface {interface} {{}}

[footer]
}}{{
""",
}


def brace_policy() -> NetworkPolicy:
    """Two firewalls that both name an ACL acl_1, one more ACL each (one
    named with braces), and rules whose comment and provenance hold
    braces and ``{acl}``."""
    def net(text):
        return (ipaddress.IPv4Network(text),)

    web = AclRule(action="permit", protocol=6, src=net("10.0.0.0/29"), dst=net("10.0.0.16/29"),
                  dport=(PortRange(80, 80), PortRange(443, 443)), state=("NEW",),
                  comment="keep {acl} and {0} and }{ literal",
                  origin_rule="r{acl}", origin_service="web", service_comment="{x}} {{y")
    ping = AclRule(action="deny", protocol=1, src=net("0.0.0.0/0"), dst=net("10.0.0.16/29"),
                   dport=(PortRange(0, 0), PortRange(8, 8)), comment="{text}")
    acls = {fw: (Acl("acl_1", (web, ping, TERMINAL_DENY)), Acl(second, (ping, TERMINAL_DENY)))
            for fw, second in (("FW1", "acl_2"), ("FW2", "{0}{acl}"))}
    assignments = (InterfaceAssignment("FW1", "eth0", "inbound", "acl_1"),
                   InterfaceAssignment("FW1", LOCAL_INTERFACE, "inbound", "acl_2"),
                   InterfaceAssignment("FW2", LOCAL_INTERFACE, "outbound", "acl_1"),
                   InterfaceAssignment("FW2", "eth1", "inbound", "{0}{acl}"))
    return NetworkPolicy(model=None, flows=(), acls=acls, assignments=assignments,
                         options=CompileOptions(), spec=None, log_denies=True)


def test_edge_templates_render_as_the_oracle(tmp_path):
    for vendor, text in EDGE_TEMPLATES.items():
        (tmp_path / f"{vendor}.tmpl").write_text(text, encoding="utf-8")
    policy = brace_policy()
    cache = RenderCache(policy.log_denies)
    got = {}
    for firewall in policy.firewalls():
        for vendor in DEVICES:
            want = kwargs_render_device(policy, firewall, vendor, tmp_path)
            got[firewall, vendor] = render_device(policy, firewall, vendor, tmp_path, cache)
            assert got[firewall, vendor] == want
            assert render_device(policy, firewall, vendor, tmp_path) == want
    iptables = got["FW1", "iptables_like"].splitlines()
    assert iptables[0] == "# {FW1} rules {literal} for FW1"
    assert "# { keep {acl} and {0} and }{ literal }" in iptables
    assert "# { r{acl}: {x}} {{y }" in iptables
    assert '-A acl_1 -p tcp -s 10.0.0.0/29 -d 10.0.0.16/29 --dport 443 -m state --state NEW ' \
           '-j ACCEPT -m comment --comment "{acl_1} ACCEPT"' in iptables
    assert "-A acl_2 -p icmp -d 10.0.0.16/29 --icmp-type 8 -j LOG" in iptables
    assert iptables[-1] == "COMMIT }{"
    asa = got["FW2", "asa_like"].splitlines()
    assert "access-list acl_1 remark keep {acl} and {0} and }{ literal {acl_1}" in asa
    assert "access-list {0}{acl} extended deny icmp any 10.0.0.16/29 0 ! {0}{acl}" in asa
    assert "access-group {0}{acl} in interface eth1 {}" in asa
    assert '-A {0}{acl} -p icmp -d 10.0.0.16/29 --icmp-type 8 -j DROP -m comment ' \
           '--comment "{{0}{acl}} DROP"' in got["FW2", "iptables_like"].splitlines()


NETS = [ipaddress.IPv4Network(text) for text in ("0.0.0.0/0", "10.0.0.0/29", "10.0.0.0/30")]
PORTS = ((), (PortRange(80, 80),), (PortRange(80, 80), PortRange(443, 443)))


@st.composite
def bucket_rules(draw) -> AclRule:
    """Rules from small pools, so that sort keys and match effects collide."""
    return AclRule(
        action=draw(st.sampled_from(("permit", "deny"))),
        protocol=draw(st.sampled_from((1, 6, 17, 89, None))),
        src=tuple(draw(st.lists(st.sampled_from(NETS), min_size=1, max_size=2))),
        dst=(draw(st.sampled_from(NETS)),),
        sport=draw(st.sampled_from(PORTS)), dport=draw(st.sampled_from(PORTS)),
        state=draw(st.sampled_from(((), ("NEW",), ("NEW", "ESTABLISHED")))),
        log=draw(st.booleans()), comment=draw(st.sampled_from(("", "c"))),
        origin_rule=draw(st.sampled_from(("", "a", "b"))),
        origin_service=draw(st.sampled_from(("", "web"))),
        flow_dir=draw(st.sampled_from(("forward", "return", "aux"))))


@settings(max_examples=300, deadline=None)
@given(st.lists(bucket_rules(), min_size=1, max_size=12), st.data())
def test_assembly_keeps_the_oracles_rules_in_its_order(rules, data):
    # a rule object installed on an ACL twice, and copies of a rule that
    # differ only outside its match effect, only in its log flag, or in
    # its ports swapped
    for rule in data.draw(st.lists(st.sampled_from(rules), max_size=4)):
        rules.append(data.draw(st.sampled_from((
            rule, rule._replace(comment="other", flow_dir="return"),
            rule._replace(log=not rule.log), rule._replace(sport=rule.dport, dport=rule.sport)))))
    net_keys = {id(net): netgen._net_key(net) for net in NETS}
    got = netgen._assemble([netgen._keyed(rule, net_keys) for rule in rules])
    assert [id(rule) for rule in got] == [id(rule) for rule in oracle_assemble(rules)]


@pytest.fixture(scope="module")
def bulk_policy() -> NetworkPolicy:
    """Bulk seed 1 on the fixture topology, whose flows join only z1, z2
    and z3, so R1 and R2, in series between them, filter the same flows."""
    bulk = _perfbench_gen().bulk(1)
    topology = load_topology((FIXTURES / "topology.graphml").read_text(encoding="utf-8"))
    options = CompileOptions(best_practice=parse_policy(bulk.best_practice))
    policy = compile_policy(parse_policy(bulk.policy), topology, options)
    assert {zone for flow in policy.flows for zone in (flow.src_zone, flow.dst_zone)} == {
        "z1", "z2", "z3"}
    return policy


def test_serial_firewalls_share_one_acl_per_distinct_binding(bulk_policy):
    r1, r2 = bulk_policy.acls["R1"], bulk_policy.acls["R2"]
    assert [acl.name for acl in r1] == [acl.name for acl in r2]
    assert r1 == r2  # equal by value
    assert all(a is b for a, b in zip(r1, r2))
    # the deny-only ACLs are shared by every firewall, the gateway's
    # filtering ACLs by none
    distinct = {id(acl) for acls in bulk_policy.acls.values() for acl in acls}
    assert len(distinct) == 6


def test_shared_acls_render_as_with_a_fresh_cache_per_file(bulk_policy):
    """One cache for the compile, as ``compile`` keeps it, writes every
    file and counts every iptables line as a fresh cache per firewall
    and dialect does."""
    shared, loc = RenderCache(bulk_policy.log_denies), 0
    for firewall in bulk_policy.firewalls():
        fresh = RenderCache(bulk_policy.log_denies)
        assert render_neutral_file(bulk_policy, firewall, shared) == render_neutral_file(
            bulk_policy, firewall, fresh)
        for vendor in DEVICES:
            fresh = RenderCache(bulk_policy.log_denies)
            assert render_device(bulk_policy, firewall, vendor, None, shared) == render_device(
                bulk_policy, firewall, vendor, None, fresh), (firewall, vendor)
            loc += fresh.iptables_loc
    assert shared.iptables_loc == loc > 0


def test_equal_neutral_files_share_rule_tuples_and_match_tables(tmp_path, capsys):
    """R1 and R2 write equal neutral files: the simulator decodes them once
    and builds one match table per distinct rule tuple, and vets as a
    network whose files are decoded one by one, each with its own tables.
    Equal ACLs in files that differ, GW's and R1's deny-only ones, share
    their tuple too, so the 12 bindings build 5 tables."""
    out = tmp_path / "compiled"
    compiled_tree(compile_args("bulk1", tmp_path), out)
    capsys.readouterr()
    assert (out / "R1.neutral.acl").read_bytes() == (out / "R2.neutral.acl").read_bytes()
    net = sim.load_compiled(out)
    assert all(net.acl_map["R1", *key[1:]] is net.acl_map[key]
               for key in net.acl_map if key[0] == "R2")
    one_by_one = {}
    for key, name in netgen.acl_names(net.model).items():
        path = out / render.neutral_file(key[0])
        acls = render.parse_neutral(path.read_text(encoding="utf-8"), str(path))
        one_by_one[key] = next(acl.rules for acl in acls if acl.name == name)
    unshared = sim.SimNetwork(net.model, one_by_one, net.flows)

    assert sim.vet_positive(net) == sim.vet_positive(unshared)
    assert sim.vet_negative(net) == sim.vet_negative(unshared)
    tables = {key: net.match_table(key) for key in net.acl_map}
    assert len(net.match_tables) == len({id(rules) for rules in net.acl_map.values()}) == 5
    assert len(net.acl_map) == 12
    for key, table in tables.items():
        assert table.rules is net.acl_map[key]
        assert table.rules == unshared.match_table(key).rules
    assert len(unshared.match_tables) == len(unshared.acl_map) == 12


@pytest.mark.parametrize("name, tables", [("plant", 11), ("bulk1", 5)])
def test_vetting_builds_one_match_table_per_distinct_acl(name, tables, tmp_path, capsys):
    """ACLs of equal rules share one match table whichever files hold them:
    the deny-only ACLs of GW and of R1/R2 are one table, not one per file."""
    out = tmp_path / "compiled"
    compiled_tree(compile_args(name, tmp_path), out)
    capsys.readouterr()
    net = sim.load_compiled(out)
    sim.vet_positive(net)
    sim.vet_negative(net)
    assert len(net.match_tables) == len(set(net.acl_map.values())) == tables


def test_load_compiled_parses_each_port_text_once_across_the_files(tmp_path, capsys,
                                                                    monkeypatch):
    """The neutral files share one set of field memos: over bulk seed 1,
    each distinct port (and ICMP-type) text is parsed once in all, not
    once per file that holds it."""
    out = tmp_path / "compiled"
    compiled_tree(compile_args("bulk1", tmp_path), out)
    capsys.readouterr()
    per_file = []
    for text in {path.read_text(encoding="utf-8") for path in out.glob("*.neutral.acl")}:
        ports, icmp_types = set(), set()
        for line in text.splitlines():
            fields = line.strip().split("~")
            if fields[0] in ("permit", "deny"):
                ports.add(fields[7])
                (icmp_types if fields[1] == "icmp" else ports).add(fields[9])
        per_file.append((ports, icmp_types))
    distinct = sum(len(set().union(*kind)) for kind in zip(*per_file))
    parsed: list[str] = []
    parse_ports = render._parse_ports

    def counting(text, *limit):
        parsed.append(text)
        return parse_ports(text, *limit)

    monkeypatch.setattr(render, "_parse_ports", counting)
    sim.load_compiled(out)
    assert len(parsed) == distinct < sum(len(p) + len(i) for p, i in per_file)
