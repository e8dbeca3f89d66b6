import ipaddress
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestfw.diagnostics import PolicyError
from forestfw.topo_model import (
    Zone,
    _check_zone_disjointness,
    build_zone_firewall_model,
    crosscheck_model,
    derive_zone_conduit,
    export_graph,
    load_declared_model,
    load_topology,
)
from conftest import FIXTURES
from support import zone_disjointness_by_pairs

CHAIN = """<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="kind" for="node" attr.name="kind" attr.type="string"/>
  <key id="zone" for="node" attr.name="zone" attr.type="string"/>
  <key id="cidr" for="node" attr.name="cidr" attr.type="string"/>
  <graph edgedefault="undirected">
    <node id="h1"><data key="kind">host</data><data key="zone">z1</data>
      <data key="cidr">10.1.0.1/32</data></node>
    <node id="fw"><data key="kind">firewall</data></node>
    <node id="h2"><data key="kind">host</data><data key="zone">z3</data>
      <data key="cidr">10.3.0.1/32</data></node>
    <edge source="h1" target="fw"/>
    <edge source="fw" target="h2"/>
  </graph>
</graphml>
"""


def chain_model():
    return derive_zone_conduit(build_zone_firewall_model(load_topology(CHAIN)))


def test_minimal_chain_ingestion():
    topo = load_topology(CHAIN)
    assert sorted(topo.devices) == ["fw", "h1", "h2"]
    assert topo.devices["fw"].kind == "firewall"
    assert len(topo.links) == 2


def test_chain_zones_and_conduits():
    model = chain_model()
    assert sorted(model.zones) == ["fwz1", "z1", "z3"]
    assert sorted(model.conduits) == [("fwz1", "z1"), ("fwz1", "z3"), ("z1", "z3")]
    assert model.conduits[("z1", "z3")].firewalls == frozenset({"fw"})


def test_fixture_derives_the_expected_seven_zones(plant_topology):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    assert sorted(model.zones) == ["az1", "fwz1", "fwz2", "fwz3", "z1", "z2", "z3"]
    kinds = {name: zone.kind for name, zone in model.zones.items()}
    assert kinds["az1"] == "abstract"
    assert kinds["fwz1"] == kinds["fwz2"] == kinds["fwz3"] == "firewall"
    # firewall zone numbering follows document order: R1, R2, GW
    assert model.zones["fwz1"].members == frozenset({"R1"})
    assert model.zones["fwz2"].members == frozenset({"R2"})
    assert model.zones["fwz3"].members == frozenset({"GW"})


def test_fixture_conduit_graph(plant_topology):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    assert sorted(model.conduits) == [
        ("az1", "fwz1"), ("az1", "fwz2"), ("az1", "z1"), ("az1", "z3"),
        ("fwz1", "z1"), ("fwz2", "z3"), ("fwz3", "z1"), ("fwz3", "z2"),
        ("z1", "z2"),
    ]
    assert model.conduits[("az1", "z1")].firewalls == frozenset({"R1"})
    assert model.conduits[("az1", "z3")].firewalls == frozenset({"R2"})
    assert model.conduits[("z1", "z2")].firewalls == frozenset({"GW"})


def test_every_firewall_owns_one_zone_and_realizes_conduits(plant_topology):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    firewalls = {"R1", "R2", "GW"}
    owned = {next(iter(z.members)) for z in model.zones.values() if z.kind == "firewall"}
    assert owned == firewalls
    for fw in firewalls:
        assert any(fw in c.firewalls for c in model.conduits.values())


def test_zone_cidrs_disjoint(plant_topology):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    cidrs = [(name, c) for name, z in model.zones.items() for c in z.cidrs]
    for i, (za, a) in enumerate(cidrs):
        for zb, b in cidrs[i + 1:]:
            if za != zb:
                assert not a.overlaps(b)


def test_duplicate_interface_rejected():
    bad = CHAIN.replace(
        '<edge source="h1" target="fw"/>',
        '<edge source="h1" target="fw"><data key="if_b">eth0</data></edge>').replace(
        '<edge source="fw" target="h2"/>',
        '<edge source="fw" target="h2"><data key="if_a">eth0</data></edge>')
    with pytest.raises(PolicyError, match="duplicate interface 'eth0'"):
        load_topology(bad)


def test_firewall_interface_named_local_is_rejected():
    # the name of the firewall's local stage; a host may still use it
    bad = CHAIN.replace(
        '<edge source="fw" target="h2"/>',
        '<edge source="fw" target="h2"><data key="if_a">local</data>'
        '<data key="if_b">local</data></edge>')
    with pytest.raises(PolicyError) as err:
        load_topology(bad, "chain.graphml")
    assert str(err.value) == ("chain.graphml:0:0: error: interface 'local' on firewall 'fw': "
                              "the name is reserved for the firewall's local stage")
    host_side = CHAIN.replace(
        '<edge source="fw" target="h2"/>',
        '<edge source="fw" target="h2"><data key="if_b">local</data></edge>')
    assert load_topology(host_side).links[-1].if_b == "local"


def test_firewall_with_zone_label_rejected():
    bad = CHAIN.replace('<node id="fw"><data key="kind">firewall</data></node>',
                        '<node id="fw"><data key="kind">firewall</data>'
                        '<data key="zone">z9</data></node>')
    with pytest.raises(PolicyError, match="Firewall-Zones automatically"):
        load_topology(bad)


def test_unknown_kind_rejected():
    bad = CHAIN.replace(">host<", ">router<", 1)
    with pytest.raises(PolicyError, match="unknown kind 'router'"):
        load_topology(bad)


def test_malformed_xml_rejected():
    with pytest.raises(PolicyError, match="malformed GraphML"):
        load_topology("<graphml><graph>")


def test_unlabeled_subnet_behind_one_firewall_rejected():
    doc = CHAIN.replace(
        '<node id="h2"><data key="kind">host</data><data key="zone">z3</data>\n'
        '      <data key="cidr">10.3.0.1/32</data></node>',
        '<node id="h2"><data key="kind">subnet</data>'
        '<data key="cidr">10.3.0.0/24</data></node>')
    with pytest.raises(PolicyError, match="cannot classify"):
        build_zone_firewall_model(load_topology(doc))


def test_disconnected_firewall_warns():
    doc = CHAIN.replace(
        "</graph>",
        '<node id="lonely"><data key="kind">firewall</data></node></graph>')
    model = derive_zone_conduit(build_zone_firewall_model(load_topology(doc)))
    assert any("lonely" in w for w in model.warnings)
    assert all("lonely" not in c.firewalls for c in model.conduits.values())


def test_crosscheck_against_itself_is_ok(plant_topology):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    assert crosscheck_model(model, model) is None


def test_crosscheck_against_declared_fixture(plant_topology, fixture_dir):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    declared = load_declared_model((fixture_dir / "zone_conduit.graphml").read_text())
    assert crosscheck_model(model, declared) is None


def test_crosscheck_missing_firewall_zone(plant_topology, fixture_dir):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    text = (fixture_dir / "zone_conduit.graphml").read_text()
    text = text.replace('<node id="fwz3"><data key="kind">firewall</data></node>', "")
    text = text.replace('<edge source="fwz3" target="z1"/>', "")
    text = text.replace('<edge source="fwz3" target="z2"/>', "")
    mismatch = crosscheck_model(model, load_declared_model(text))
    assert mismatch is not None
    assert "fwz3" in mismatch.missing_zones
    assert ("fwz3", "z1") in mismatch.missing_conduits
    assert "fwz3" in str(mismatch)


def test_crosscheck_extra_declared_conduit(plant_topology, fixture_dir):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    text = (fixture_dir / "zone_conduit.graphml").read_text()
    text = text.replace('<edge source="z1" target="z2"/>',
                        '<edge source="z1" target="z2"/><edge source="z1" target="z3"/>')
    mismatch = crosscheck_model(model, load_declared_model(text))
    assert mismatch is not None
    assert ("z1", "z3") in mismatch.extra_conduits


def test_export_graph_deterministic_and_complete(plant_topology):
    model = derive_zone_conduit(build_zone_firewall_model(plant_topology))
    conduit_dot = export_graph(model, "zone_conduit")
    assert conduit_dot == export_graph(model, "zone_conduit")
    assert conduit_dot.count("--") == len(model.conduits)
    for zone in model.zones:
        assert f'"{zone}"' in conduit_dot
    firewall_dot = export_graph(model, "zone_firewall")
    for fw in ("R1", "R2", "GW"):
        assert f'"{fw}"' in firewall_dot
    assert '"fwz1"' not in firewall_dot  # firewalls appear as boxes, not zones


def test_zone_firewall_graph_joins_each_firewall_to_the_zones_it_faces():
    # F1 and F2 are linked directly, so each realizes conduits of the
    # other's Firewall-Zone; F1 still faces only za and F2 only zb
    text = (FIXTURES / "firewall_chain.graphml").read_text(encoding="utf-8")
    model = derive_zone_conduit(build_zone_firewall_model(load_topology(text)))
    assert model.conduits[("fwz1", "zb")].firewalls == frozenset({"F2"})
    edges = [line for line in export_graph(model, "zone_firewall").splitlines() if "--" in line]
    assert edges == ['  "F1" -- "za";', '  "F2" -- "zb";']


def test_export_empty_model():
    from forestfw.topo_model import ZoneConduitModel
    empty = export_graph(ZoneConduitModel(), "zone_conduit")
    assert empty == "graph zone_conduit {\n}\n"


def test_export_unknown_flavor():
    from forestfw.topo_model import ZoneConduitModel
    with pytest.raises(ValueError, match="unknown graph flavor"):
        export_graph(ZoneConduitModel(), "mystery")


def test_declared_model_loader_errors():
    with pytest.raises(PolicyError, match="unknown zone"):
        load_declared_model(
            '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
            '<key id="kind" for="node" attr.name="kind"/>'
            '<graph><node id="a"><data key="kind">regular</data></node>'
            '<edge source="a" target="ghost"/></graph></graphml>')


# ---------------------------------------------------------------------------
# no GraphML text crashes the loaders

GRAPHML_KEYS = (
    '<key id="kind" for="node" attr.name="kind"/>',
    '<key id="zone" for="node" attr.name="zone"/>',
    '<key id="cidr" for="node" attr.name="cidr"/>',
    '<key id="if_a" for="edge" attr.name="if_a"/>',
    '<key for="node" attr.name="kind"/>',
    '<key id="cidr"/>',
)
NAMES = ("a", "b", "fw", "", "z1", "a b", "&amp;")
graphml_data = st.tuples(
    st.sampled_from(("kind", "zone", "cidr", "if_a", "if_b", "", "ghost")),
    st.sampled_from(("host", "subnet", "carrier", "firewall", "regular", "abstract", "router",
                     "z1", "10.1.0.1/32", "10.1.0.1/24", "10.0.0.0/8, 10.0.0.0/8", "::1/128",
                     "300.1.1.1/32", ",", "", "  p0 ", "<![CDATA[x]]>", "&#0;", "&#x41;")),
).map(lambda d: f'<data key="{d[0]}">{d[1]}</data>')
graphml_node = st.tuples(st.sampled_from(NAMES), st.lists(graphml_data, max_size=4)).map(
    lambda n: f'<node id="{n[0]}">{"".join(n[1])}</node>')
graphml_edge = st.tuples(st.sampled_from(NAMES), st.sampled_from(NAMES),
                         st.lists(graphml_data, max_size=2)).map(
    lambda e: f'<edge source="{e[0]}" target="{e[1]}">{"".join(e[2])}</edge>')
graphml_document = st.tuples(
    st.sampled_from(('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">', "<graphml>",
                     "<other>")),
    st.lists(st.sampled_from(GRAPHML_KEYS), max_size=4),
    st.sampled_from(("<graph>", '<graph edgedefault="directed">', "")),
    st.lists(st.one_of(graphml_node, graphml_edge), max_size=8),
).map(lambda d: f'{d[0]}{"".join(d[1])}{d[2]}{"".join(d[3])}'
                f'{"</graph>" if d[2] else ""}</{d[0][1:].split(">")[0].split()[0]}>')
# a document cut short or with a foreign fragment spliced in
mutated_document = st.tuples(
    graphml_document, st.integers(0, 2000),
    st.sampled_from(("", "<", ">", "&", "&bogus;", "]]>", "\x00", "<!DOCTYPE x>",
                     "<?xml version='1.0'?>", "</graph>", "é", " ")),
    st.booleans(),
).map(lambda m: m[0][:m[1]] + m[2] + ("" if m[3] else m[0][m[1]:]))


@settings(max_examples=500, deadline=None)
@given(st.one_of(graphml_document, mutated_document, st.text(max_size=80)))
def test_no_graphml_text_raises_anything_but_policy_error(text):
    # InputError, the unreadable-document case, is a PolicyError
    for load in (load_topology, load_declared_model):
        try:
            load(text, "t.graphml")
        except PolicyError:
            pass


# a pool of nested, identical and adjacent CIDRs: every prefix of 10.0.0.0/29
CIDR_POOL = tuple(net for prefix in range(29, 33)
                  for net in ipaddress.IPv4Network("10.0.0.0/29").subnets(new_prefix=prefix))
zone_sets = st.lists(
    st.tuples(st.frozensets(st.sampled_from(("d0", "d1", "d2", "d3", "d4", "d5")), max_size=2),
              st.lists(st.sampled_from(CIDR_POOL), max_size=3)),
    max_size=6,
).map(lambda zones: [Zone(f"z{i}", "regular", members, tuple(cidrs))
                     for i, (members, cidrs) in enumerate(zones)])


def _conflict(check, zones) -> str | None:
    try:
        check(zones, "t.graphml")
    except PolicyError as exc:
        return exc.diagnostic.message
    return None


@settings(max_examples=400, deadline=None)
@given(zone_sets)
def test_zone_disjointness_agrees_with_the_pair_scan(zones):
    """The sorted sweep finds a conflict exactly when the pair scan does,
    and the pair it names is a real conflict."""
    found = _conflict(_check_zone_disjointness, zones)
    assert (found is None) == (_conflict(zone_disjointness_by_pairs, zones) is None)
    if found is None:
        return
    by_name = {zone.name: zone for zone in zones}
    members = re.fullmatch(r"device in both zones '(\w+)' and '(\w+)'", found)
    if members:
        a, b = (by_name[name] for name in members.groups())
        assert a is not b and a.members & b.members
    else:
        cidr_a, zone_a, cidr_b, zone_b = re.fullmatch(
            r"zone CIDRs overlap: (\S+) \((\w+)\) and (\S+) \((\w+)\)", found).groups()
        net_a, net_b = ipaddress.IPv4Network(cidr_a), ipaddress.IPv4Network(cidr_b)
        assert zone_a != zone_b and net_a.overlaps(net_b)
        assert net_a in by_name[zone_a].cidrs and net_b in by_name[zone_b].cidrs


def test_zone_disjointness_ignores_overlaps_within_one_zone():
    nested = (ipaddress.IPv4Network("10.0.0.0/29"), ipaddress.IPv4Network("10.0.0.0/30"))
    zones = [Zone("a", "regular", frozenset({"s"}), nested),
             Zone("b", "regular", frozenset({"t"}), (ipaddress.IPv4Network("10.0.0.8/29"),)),
             Zone("c", "regular", frozenset({"u"}), (ipaddress.IPv4Network("10.0.0.4/32"),))]
    with pytest.raises(PolicyError, match=r"zone CIDRs overlap: 10\.0\.0\.4/32 \(c\) and "
                                          r"10\.0\.0\.0/29 \(a\)"):
        _check_zone_disjointness(zones, "t.graphml")
    _check_zone_disjointness(zones[:2], "t.graphml")
