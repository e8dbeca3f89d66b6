import pytest

from forestfw.policy_lang import parse_policy, validate_spec


def diags_for(body: str):
    return validate_spec(parse_policy(body))


def test_generic_all_tcp_prohibited():
    diags = diags_for("service anytcp { protocol=tcp; }")
    assert any(d.is_error and "generic service all-TCP prohibited" in d.message
               for d in diags)


def test_generic_all_udp_and_all_ip():
    assert any("all-UDP" in d.message for d in diags_for("service u { protocol=udp; }"))
    assert any("all-IP" in d.message for d in diags_for("service i { protocol=ip; }"))


@pytest.mark.parametrize("protocol, ports", [
    ("tcp", "0-65535"),
    ("tcp", "0-30000, 30001-65535"),
    ("tcp", "0-65535, 80"),
    ("udp", "1-65535, 0"),
], ids=["tcp_single_range", "tcp_split", "tcp_with_a_port_inside", "udp_split_out_of_order"])
def test_explicit_full_range_still_generic(protocol, ports):
    """Ranges that normalize to the whole port axis are generic as the
    single full range is: the same message at the service's name."""
    diags = diags_for(f"// {protocol}\nservice t {{ protocol={protocol}; "
                      f"{protocol}.dest_port={ports}; }}")
    single = diags_for(f"// {protocol}\nservice t {{ protocol={protocol}; "
                       f"{protocol}.dest_port=0-65535; }}")
    generic = "all-TCP" if protocol == "tcp" else "all-UDP"
    assert [str(d) for d in diags] == [str(d) for d in single] == [
        f"<policy>:2:9: error: generic service {generic} prohibited ('t')"]


def test_bounded_service_is_clean():
    assert diags_for("service t { protocol=tcp; tcp.dest_port=443; }") == []


def test_port_out_of_range():
    diags = diags_for("service t { protocol=tcp; tcp.dest_port=70000; }")
    assert any(d.is_error and "70000" in d.message and "0-65535" in d.message
               for d in diags)


def test_inverted_range():
    diags = diags_for("service t { protocol=tcp; tcp.dest_port=90-80; }")
    assert any("empty port range" in d.message for d in diags)


def test_duplicate_zone_groups_warned():
    diags = diags_for("zone_group a { x, y }\nzone_group b { y, x }")
    assert [d.severity for d in diags] == ["warning"]
    assert "duplicates the members" in diags[0].message


def test_overlapping_rule_endpoints():
    diags = diags_for(
        "service s { protocol=tcp; tcp.dest_port=22; }\n"
        "zone_group left { a, b }\n"
        "zone_group right { b, c }\n"
        "policy_rule r { left -> right : s }")
    assert any(d.is_error and "endpoints overlap on zone(s) b" in d.message
               for d in diags)


def test_icmp_attr_on_tcp_service():
    diags = diags_for("service t { protocol=tcp; tcp.dest_port=1; icmp.type=8; }")
    assert any("icmp.type attribute on non-ICMP" in d.message for d in diags)


def test_ports_on_icmp_service_flagged():
    # the parser maps tcp.source_port onto the port fields regardless of protocol
    diags = diags_for("service t { protocol=icmp; tcp.source_port=5; }")
    assert any("port attributes on non-TCP/UDP" in d.message for d in diags)


def test_fixture_policies_validate_clean(plant_spec, plant_spec_fixed, bp_spec):
    assert validate_spec(plant_spec) == []
    assert validate_spec(plant_spec_fixed) == []
    assert validate_spec(bp_spec) == []


def test_diagnostic_rendering():
    diags = diags_for("service anytcp { protocol=tcp; }")
    text = str(diags[0])
    assert text.startswith("<policy>:")
    assert ": error: " in text



@pytest.mark.parametrize("body, want", [
    # the group's range is reported once, at the group, not at its users
    ("port_group p { 70000 }\n"
     "service s { protocol=tcp; tcp.dest_port=p; }\n"
     "service t { protocol=udp; udp.dest_port=p; }\n",
     [(1, 12, "port range 70000-70000 outside 0-65535 in port group 'p'")]),
    # a service's own out-of-range literal is still the service's finding,
    # also when it equals the group's range
    ("port_group p { 70000 }\n"
     "service s { protocol=tcp; tcp.dest_port=p, 70000; }\n",
     [(2, 9, "port range 70000-70000 outside 0-65535 in service 's'"),
      (1, 12, "port range 70000-70000 outside 0-65535 in port group 'p'")]),
    # a group range that is a port but no ICMP type passes the group
    # check, so it is the service's finding
    ("port_group q { 300 }\n"
     "service s { protocol=icmp; icmp.type=q; }\n",
     [(2, 9, "ICMP type range 300-300 outside 0-255 in service 's'")]),
], ids=["group_used_twice", "literal_beside_group", "icmp_type_from_group"])
def test_bad_port_group_range_is_reported_once_at_the_group(body, want):
    assert [(d.line, d.col, d.message) for d in diags_for(body) if d.is_error] == want
