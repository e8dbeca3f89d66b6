import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestfw import intervals
from forestfw.diagnostics import PolicyError
from forestfw.policy_lang import (
    ServiceSet,
    default_importer,
    parse_policy,
)
from forestfw.policy_lang.syntax import PortRange, Service
from conftest import FIXTURES, load_fixture_policy
from support import declaration_order, generated_policy_sources, pretty_print


def parse_with_libs(body: str):
    header = "import system.services.iana_services;\nimport system.services.iana_icmp;\n"
    return parse_policy(header + body)


def test_custom_service_gets_default_source_range():
    spec = parse_policy(
        'service custom_http {protocol=tcp; tcp.dest_port=8080; comment="Internal Web";}')
    svc = spec.services["custom_http"]
    assert svc.protocol == 6
    assert svc.dest_ports == (PortRange(8080, 8080),)
    assert svc.source_ports == (PortRange(0, 65535),)
    assert svc.comment == "Internal Web"


def test_service_group_web_with_dns_duality():
    spec = parse_with_libs(
        "service_group Web { iana_services.http, iana_services.https, dns }\n"
        "service_group dns { iana_services.dns_tcp, iana_services.dns_udp }\n")
    members = spec.service_groups["Web"].members
    assert len(members) == 4
    protocols = sorted((s.protocol, s.dest_ports[0].lo) for s in members)
    assert protocols == [(6, 53), (6, 80), (6, 443), (17, 53)]


def test_zone_group_three_zones():
    spec = parse_policy("zone_group three_zones {corp, scada, dmz}")
    assert spec.zone_groups["three_zones"].zones == frozenset({"corp", "scada", "dmz"})


def probe_group(expr: str):
    """The members of ``service_group probe { expr }`` added to the plant policy."""
    text = (FIXTURES / "scada_plant.policyml").read_text(encoding="utf-8")
    spec = parse_policy(f"{text}\nservice_group probe {{ {expr} }}\n",
                        default_importer(search_paths=(FIXTURES,)))
    return spec.service_groups["probe"].members


def test_intersection_finds_shared_http():
    assert [s.display_name for s in probe_group("web ^ file_transfer")] == ["http"]


def test_self_difference_is_empty():
    assert len(probe_group("web \\ web")) == 0


def test_union_deduplicates_by_value():
    a = Service("a", 6, (PortRange(0, 65535),), (PortRange(80, 80),))
    b = Service("b", 6, (PortRange(0, 65535),), (PortRange(80, 80),))
    c = Service("c", 6, (PortRange(0, 65535),), (PortRange(443, 443),))
    merged = ServiceSet([a]).union(ServiceSet([b, c]))
    assert len(merged) == 2


port_range_lists = st.lists(
    st.tuples(st.integers(0, 70000), st.integers(0, 70000)).map(lambda r: PortRange(*r)),
    max_size=4).map(tuple)
services = st.builds(
    Service, name=st.sampled_from(("s", "ns.s")),
    protocol=st.sampled_from((None, 1, 6, 17, 89)),
    source_ports=port_range_lists, dest_ports=port_range_lists, icmp_types=port_range_lists,
    comment=st.sampled_from(("", "note")))


@settings(max_examples=300, deadline=None)
@given(services)
def test_value_key_equals_key_recomputed_from_fields(svc):
    assert svc.value_key() == (
        svc.protocol,
        intervals.normalize(svc.source_ports),
        intervals.normalize(svc.dest_ports),
        intervals.normalize(svc.icmp_types),
    )


def test_construction_path_does_not_change_service_equality_or_hash():
    parsed = parse_policy("service s { protocol=tcp; tcp.dest_port=80; }").services["s"]
    direct = Service("s", 6, (PortRange(0, 65535),), (PortRange(80, 80),))
    renamed = parsed._replace(comment="x")._replace(comment="")
    for other in (direct, renamed, copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed))):
        assert other == parsed
        assert hash(other) == hash(parsed)
        assert repr(other) == repr(parsed)
        assert other.value_key() == parsed.value_key()
    assert repr(parsed) == ("Service(name='s', protocol=6, source_ports=(PortRange(lo=0, "
                            "hi=65535),), dest_ports=(PortRange(lo=80, hi=80),), "
                            "icmp_types=(), comment='')")


def test_set_algebra_laws():
    rng = random.Random(11)
    from support import random_service_set

    for _ in range(50):
        a = ServiceSet(random_service_set(rng))
        b = ServiceSet(random_service_set(rng))
        c = ServiceSet(random_service_set(rng))
        assert a.union(a) == a
        assert a.intersection(a) == a
        assert len(a.difference(a)) == 0
        assert a.union(b).intersection(c) == a.intersection(c).union(b.intersection(c))


def test_n_ary_union_equals_pairwise_fold():
    # few values under few names, so the least-name choice is exercised
    rng = random.Random(12)
    shapes = [(6, 80), (6, 443), (17, 53), (1, 8)]

    def random_set():
        services = []
        for _ in range(rng.randint(0, 5)):
            protocol, port = rng.choice(shapes)
            name = f"{rng.choice(('ns1.', 'ns2.', ''))}s{rng.randrange(4)}"
            if protocol == 1:
                services.append(Service(name, 1, icmp_types=(PortRange(port, port),)))
            else:
                services.append(Service(name, protocol, (PortRange(0, 65535),),
                                        (PortRange(port, port),)))
        return ServiceSet(services)

    for _ in range(200):
        sets = [random_set() for _ in range(rng.randint(1, 5))]
        folded = sets[0]
        for other in sets[1:]:
            folded = folded.union(other)
        united = sets[0].union(*sets[1:])
        assert [(m.name, m.value_key()) for m in united] == \
            [(m.name, m.value_key()) for m in folded]


def test_union_precedence_binds_looser():
    # a, b ^ c  ==  a | (b & c)
    spec = parse_with_libs(
        "service_group a { iana_services.http }\n"
        "service_group b { iana_services.http, iana_services.https }\n"
        "service_group c { iana_services.https, iana_services.ssh }\n"
        "service_group mixed { a, b ^ c }\n")
    names = sorted(s.display_name for s in spec.service_groups["mixed"].members)
    assert names == ["http", "https"]


def test_imports_bind_under_last_segment_prefix(plant_spec):
    assert "iana_services.http" in plant_spec.services
    assert "iana_icmp.icmp_echo" in plant_spec.services
    assert plant_spec.declared_model == "zone_conduit.graphml"


def test_port_group_reference_resolves(plant_spec):
    ftp_data = plant_spec.services["ftp_data"]
    assert ftp_data.dest_ports == (PortRange(24500, 24600),)


def test_duplicate_declaration_rejected():
    with pytest.raises(PolicyError, match="duplicate declaration"):
        parse_policy("zone_group g { a }\nzone_group g { b }")


def test_undeclared_service_reference_rejected():
    with pytest.raises(PolicyError, match="undeclared name 'nope'"):
        parse_policy("service_group g { nope }")


def test_group_cycle_rejected():
    with pytest.raises(PolicyError, match="cycle"):
        parse_policy("service_group a { b }\nservice_group b { a }")


def test_cross_kind_reference_rejected():
    with pytest.raises(PolicyError, match="used where a zone was expected"):
        parse_policy(
            "service s { protocol=tcp; tcp.dest_port=1; }\n"
            "zone_group g { s }")


def nested_groups(kind: str, leaf: str) -> str:
    """66 ``kind`` groups, each one nesting the next and the last ``leaf``."""
    return ("".join(f"{kind}_group g{i} {{ g{i + 1} }}\n" for i in range(65))
            + f"  {kind}_group g65 {{ {leaf} }}\n")


GROUP_ERRORS = {
    "service_cycle": (
        "service s { protocol=tcp; }\nservice_group a { s, b }\n  service_group b { a }\n",
        "{file}:2:15: error: cycle in service group nesting through '{ns}a'"),
    "zone_cycle": (
        "zone_group a { z1, b }\n  zone_group b { a }\n",
        "{file}:1:12: error: cycle in zone group nesting through '{ns}a'"),
    "service_too_deep": (
        "service s { protocol=tcp; }\n" + nested_groups("service", "s"),
        "{file}:66:15: error: service groups nested more than 64 deep"),
    "zone_too_deep": (
        nested_groups("zone", "z1"),
        "{file}:65:12: error: zone groups nested more than 64 deep"),
    "service_cross_kind": (
        "zone_group g { z1 }\nservice_group sg {\n  s ^ g }\nservice s { protocol=tcp; }\n",
        "{file}:2:15: error: zone_group '{ns}g' used where a service was expected"),
    "zone_cross_kind": (
        "  service s { protocol=tcp; }\nzone_group g { z1, s }\n",
        "{file}:2:12: error: service '{ns}s' used where a zone was expected"),
    "rule_cross_kind": (
        "zone_group g { z1 }\npolicy_rule r { z1 -> z2 : g }\n",
        "{file}:2:13: error: zone_group '{ns}g' used where a service was expected"),
    "service_undeclared": (
        "service s { protocol=tcp; }\nservice_group g {\n  s, nope }\n",
        "{file}:2:15: error: undeclared name 'nope'"),
    "rule_undeclared": (
        "policy_rule r { z1 -> z2 :\n nope }\n",
        "{file}:1:13: error: undeclared name 'nope'"),
}


@pytest.mark.parametrize("in_library", [False, True], ids=["main", "library"])
@pytest.mark.parametrize("case", sorted(GROUP_ERRORS))
def test_group_errors_name_the_declaration(case, in_library):
    """The whole diagnostic of a faulty service or zone group, in the main
    file or in a library it imports.  A zone group's undeclared term is a
    leaf zone, not an error, so only services have an undeclared case."""
    text, want = GROUP_ERRORS[case]
    library = {"mylib.svc": ("mylib/svc.policyml", text)}.get
    with pytest.raises(PolicyError) as err:
        if in_library:
            parse_policy("import mylib.svc;\n", library, file="p.policyml")
        else:
            parse_policy(text, file="p.policyml")
    file, ns = ("mylib/svc.policyml", "svc.") if in_library else ("p.policyml", "")
    assert str(err.value) == want.format(file=file, ns=ns)


def test_parse_error_position_and_hint():
    with pytest.raises(PolicyError) as err:
        parse_policy("service s { protocol tcp; }")
    assert "expected" in str(err.value)
    assert ":1:" in str(err.value)


def test_reporting_rule_checks_group_references():
    with pytest.raises(PolicyError, match="undeclared zone group"):
        parse_policy(
            "reporting_rule r { use_case=verification; "
            "granularity.network={zone_or_group={ghost}}; }")


def test_policy_object_references_checked():
    with pytest.raises(PolicyError, match="undeclared rule group"):
        parse_policy("reporting_rule r { use_case=verification; }\n"
                     "policy p { ghost; r; }")


def test_round_trip_fixture(plant_spec):
    # the built-in library importer resolves the system imports again
    assert parse_policy(pretty_print(plant_spec)) == plant_spec


def test_round_trip_twice_is_fixed_point(plant_spec_fixed):
    once = pretty_print(plant_spec_fixed)
    twice = pretty_print(parse_policy(once))
    assert once == twice


def _round_trip_sources():
    # scada_plant.policyml is test_round_trip_fixture's
    sources = {name: (FIXTURES / name).read_text(encoding="utf-8")
               for name in ("scada_plant_fixed.policyml", "bestpractice/scada_isa.policyml")}
    sources.update(generated_policy_sources())
    return sources


ROUND_TRIP_SOURCES = _round_trip_sources()


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_SOURCES))
def test_pretty_print_round_trip(name):
    text = ROUND_TRIP_SOURCES[name]
    importer = default_importer(search_paths=(FIXTURES,))
    spec = parse_policy(text, importer)
    assert spec.rules
    again = parse_policy(pretty_print(spec), importer)
    assert again == spec
    assert declaration_order(again) == declaration_order(spec)


def test_every_fixture_form_parses(fixture_dir):
    # the published and fixed drafts plus the best-practice file all parse
    for name in ("scada_plant.policyml", "scada_plant_fixed.policyml",
                 "bestpractice/scada_isa.policyml"):
        spec = load_fixture_policy(name)
        assert spec.services


LEGACY_DRAFT = """\
// library files
import system.services.iana_services;
import system.services.iana_icmp;

// zone-conduit security topology
load_zone_conduit_model ``zone_conduit.graphml''

// define zone groups
zone_group all_zones {z1,z2,z3,az1,fwz1,fwz2,fwz3}
zone_group scada_zone { z3 }
zone_group corp_zone { z1 }
zone_group internet_zone { z2 }
zone_group all_firewall_zones { fwz1, fwz2, fwz3 }
zone_group all_internal_zones { all_zones \\  internet_zone }

// passive mode FTP using custom port numbers
port_group ftp_data_ports { 24500-24600 }
service ftp_data {  protocol=tcp;  tcp.dest_port=ftp_data_ports; }

// service groups using standard port numbers
service_group ftp { iana_services.ftp_control, ftp_data }
service_group web { iana_services.http, iana_services.https }
service_group ping { iana_icmp.icmp_echo, iana_icmp.icmp_echo_reply }
service_group dns { iana_services.dns_tcp, iana_services.dns_udp }
service_group file_transfer { iana_services.http, ftp }

// define security policy
policy_rule file_transfer_rule  { scada_zone -> corp_zone : file_transfer  }

policy_rule ping_rule { corp_zone  <-> scada_zone : ping }

policy_rule dns_rule { scada_zone -> corp_zone : dns  }

policy_rule web_rule  { scada_zone -> corp_zone : web  }

rule_group security_policy { file_transfer_rule, ping_rule, dns_rule, web_rule }

// enable policy verification reporting in firewalls
reporting_rule verify_rules{   use_case=verification;
  granularity.network={zone_or_group={all_zones}};\t\t\t
  granularity.policy={rule_or_group={security_policy}};
  granularity.traffic={measurement={counter};
  counter_type={connection};};
  granularity.temporal={per_hour};
  granularity.performance={process};}

// define global policy
policy company_policy { security_policy;  verify_rules}
"""


def test_legacy_draft_parses_verbatim():
    """Typographic quotes, tabs, loose spacing, and a missing trailing
    semicolon on the policy object all parse unchanged."""
    spec = parse_policy(LEGACY_DRAFT)
    assert spec.declared_model == "zone_conduit.graphml"
    assert spec.zone_groups["all_internal_zones"].zones == frozenset(
        {"z1", "z3", "az1", "fwz1", "fwz2", "fwz3"})
    assert spec.global_policy is not None
    assert spec.global_policy.rule_group == "security_policy"
    assert spec.reporting_rules["verify_rules"].use_case == "verification"

    from forestfw.policy_lang import expand_rules
    from forestfw.checker import find_rule_overlaps
    flows = expand_rules(spec)
    assert len(flows) == 11  # 3 file_transfer + 4 ping + 2 dns + 2 web
    reports = find_rule_overlaps(flows)
    assert len(reports) == 1
    assert {reports[0].rule_a, reports[0].rule_b} == {
        "web_rule", "file_transfer_rule"}


def test_unresolved_import_reported():
    with pytest.raises(PolicyError, match="unresolved import 'no.such.library'"):
        parse_policy("import no.such.library;")


def dict_importer(sources: dict[str, str]):
    """An importer over in-memory sources, labelling each by its dotted name."""
    return lambda dotted: (dotted, sources[dotted])


def test_import_cycle_detected():
    sources = {
        "lib.a": "import lib.b;\nservice sa { protocol=tcp; tcp.dest_port=1; }",
        "lib.b": "import lib.a;\nservice sb { protocol=tcp; tcp.dest_port=2; }",
    }
    # the second call finds lib.a and lib.b in the import memo
    memo: dict = {}
    for _ in range(2):
        with pytest.raises(PolicyError, match="import cycle"):
            parse_policy("import lib.a;", importer=dict_importer(sources), import_memo=memo)


def test_import_errors_name_the_importing_file_and_the_import():
    with pytest.raises(PolicyError) as err:
        parse_policy("// no such library\nimport  no.such.library ;", file="p.policyml")
    assert str(err.value) == "p.policyml:2:9: error: unresolved import 'no.such.library'"
    sources = {
        "lib.a": "service sa { protocol=tcp; tcp.dest_port=1; }\n  import lib.b;",
        "lib.b": "import lib.a;",
    }
    with pytest.raises(PolicyError) as err:
        parse_policy("import lib.a;", importer=dict_importer(sources), file="p.policyml")
    # lib.b's import of lib.a closes the cycle
    assert str(err.value) == "lib.b:1:8: error: import cycle through 'lib.a'"


def test_repeated_import_is_idempotent():
    sources = {
        "lib.shared": "service s { protocol=tcp; tcp.dest_port=9; }",
        "lib.mid": "import lib.shared;",
    }
    # the second call finds lib.shared and lib.mid in the import memo
    memo: dict = {}
    for _ in range(2):
        spec = parse_policy("import lib.shared;\nimport lib.mid;",
                            importer=dict_importer(sources), import_memo=memo)
        assert "shared.s" in spec.services


def test_library_service_naming_a_port_group_resolves_in_each_importing_file():
    # the library's service names a port group the importing file declares,
    # so a shared import memo must not hand one file's service to the next
    sources = {"lib.web": "service web { protocol=tcp; tcp.dest_port=web_ports; }"}
    memo: dict = {}
    for port in (80, 8080, 80):
        spec = parse_policy(f"import lib.web;\nport_group web_ports {{ {port} }}",
                            importer=dict_importer(sources), import_memo=memo)
        assert spec.services["web.web"].dest_ports == (PortRange(port, port),)


def test_edited_library_is_parsed_afresh(tmp_path):
    lib = tmp_path / "mylib" / "svc.policyml"
    lib.parent.mkdir()
    importer = default_importer(search_paths=(tmp_path,))
    memo: dict = {}
    for port in (80, 8080, 80):
        lib.write_text(f"service web {{ protocol=tcp; tcp.dest_port={port}; }}\n")
        spec = parse_policy("import mylib.svc;", importer, import_memo=memo)
        assert spec.services["svc.web"].dest_ports == (PortRange(port, port),)


@pytest.mark.parametrize("body, col, message", [
    ("service web { protocol=tcp; tcp.dest_port=80 }", 46, "expected ';', got '}'"),
    ("service web { protocol=tcp; bogus=1; }", 9, "unknown service attribute 'bogus'"),
])
def test_error_in_imported_file_names_its_path(tmp_path, body, col, message):
    lib = tmp_path / "mylib" / "svc.policyml"
    lib.parent.mkdir()
    lib.write_text(body + "\n")
    with pytest.raises(PolicyError) as err:
        parse_policy("import mylib.svc;", default_importer(search_paths=(tmp_path,)))
    assert str(err.value) == f"{lib}:1:{col}: error: {message}"
    # an importer may label the file by its dotted name instead
    with pytest.raises(PolicyError) as err:
        parse_policy("import mylib.svc;", importer=dict_importer({"mylib.svc": body}))
    assert str(err.value) == f"mylib.svc:1:{col}: error: {message}"
