import ipaddress
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestfw.diagnostics import InputError, PolicyError
from forestfw.netgen import (Acl, AclRule, CompileOptions, InterfaceAssignment, NetworkPolicy,
                             TERMINAL_DENY, compile_policy)
from forestfw.policy_lang import parse_policy
from forestfw.policy_lang.syntax import PortRange
from forestfw.render import (
    NEUTRAL_HEADER,
    TERMINAL_DENY_LINE,
    RenderCache,
    loc_metrics,
    manifest_json,
    parse_neutral,
    render_device,
    render_neutral,
    render_neutral_file,
)
from forestfw.render import _TEMPLATE_SLOTS, load_template
from support import from_network_policy, parse_iptables_like, render_rule_neutral


def net(text):
    return ipaddress.IPv4Network(text)


def https_forward():
    return AclRule(
        action="permit", protocol=6,
        src=(net("10.0.0.16/29"),), dst=(net("10.0.0.0/29"),),
        sport=(PortRange(0, 65535),), dport=(PortRange(443, 443),),
        state=("NEW", "ESTABLISHED"), log=True,
        comment="enable scada_zone to corp_zone HTTPS traffic (forward path)")


def test_forward_rule_line_shape():
    line = render_rule_neutral(https_forward())
    assert line == ("permit~tcp~from~10.0.0.16/29~to~10.0.0.0/29"
                    "~sport~['0-65535']~dport~[443]~state~NEW,ESTABLISHED~log")


def test_return_rule_line_shape():
    rule = AclRule(
        action="permit", protocol=6,
        src=(net("10.0.0.16/29"),), dst=(net("10.0.0.0/29"),),
        sport=(PortRange(443, 443),), dport=(PortRange(0, 65535),),
        state=("ESTABLISHED",), log=True)
    assert render_rule_neutral(rule) == (
        "permit~tcp~from~10.0.0.16/29~to~10.0.0.0/29"
        "~sport~[443]~dport~['0-65535']~state~ESTABLISHED~log")


def test_terminal_deny_is_byte_exact():
    assert render_rule_neutral(TERMINAL_DENY) == TERMINAL_DENY_LINE
    logged_deny = AclRule(action="deny", protocol=None,
                          src=(net("0.0.0.0/0"),), dst=(net("0.0.0.0/0"),), log=True)
    # the terminal deny renders in its fixed form regardless of the log flag
    assert render_rule_neutral(logged_deny) == TERMINAL_DENY_LINE


def test_narrowed_ip_deny_round_trips():
    rule = AclRule("deny", None, (net("10.0.0.0/8"),), (net("10.3.0.0/24"),), log=True)
    assert render_rule_neutral(rule) == (
        "deny~ip~from~10.0.0.0/8~to~10.3.0.0/24~sport~~dport~~state~~log")
    acl = Acl("acl_1", (rule, TERMINAL_DENY))
    assert parse_neutral(render_neutral(acl)) == [acl]


def test_deny_only_acl_renders_header_and_deny():
    text = render_neutral(Acl("acl_9", (TERMINAL_DENY,)))
    assert text == (NEUTRAL_HEADER + "acl_9\n  " + TERMINAL_DENY_LINE + "\n")


def test_remark_emitted_once_per_group():
    rule = https_forward()
    text = render_neutral(Acl("acl_1", (rule, rule, TERMINAL_DENY)))
    assert text.count("remark~enable scada_zone") == 1


def test_multi_range_ports_render_as_list():
    rule = AclRule(action="permit", protocol=6,
                   src=(net("10.0.0.0/24"),), dst=(net("10.0.1.0/24"),),
                   sport=(PortRange(0, 65535),),
                   dport=(PortRange(80, 80), PortRange(8080, 8088)))
    assert "dport~[80, '8080-8088']" in render_rule_neutral(rule)


def test_neutral_round_trip(compiled_plant):
    for firewall in compiled_plant.firewalls():
        text = render_neutral_file(compiled_plant, firewall)
        parsed = parse_neutral(text)
        originals = compiled_plant.acls[firewall]
        assert [a.name for a in parsed] == [a.name for a in originals]
        for got, expected in zip(parsed, originals):
            assert [(r.match_key(), r.comment) for r in got.rules] == \
                   [(r.match_key(), r.comment) for r in expected.rules]
        # and rendering the parsed form again is byte-identical
        rendered_again = "\n".join(render_neutral(a) for a in parsed)
        assert rendered_again == text


# a small pool, so that address fields repeat within a file
ADDRESS_POOL = [net(text) for text in (
    "0.0.0.0/0", "10.0.0.0/29", "10.0.0.16/29", "10.0.128.4/30", "192.0.2.7/32",
    "172.16.0.0/12")]
addresses = st.one_of(
    st.just((net("0.0.0.0/0"),)),
    st.lists(st.sampled_from(ADDRESS_POOL), min_size=1, max_size=3).map(tuple),
    st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 32)).map(
        lambda a: (ipaddress.IPv4Network(a, strict=False),)),
)


def port_lists(upper: int):
    bounds = st.tuples(st.integers(0, upper), st.integers(0, upper))
    return st.lists(bounds.map(lambda b: PortRange(min(b), max(b))), max_size=3).map(tuple)


def fixed_form(fields: dict) -> bool:
    """Do these fields render as the fixed terminal line?"""
    return (fields["action"] == "deny" and fields["protocol"] is None and not fields["state"]
            and fields["src"] == fields["dst"] == (net("0.0.0.0/0"),))


@st.composite
def rule_fields(draw) -> dict:
    """Everything of an AclRule but its comment; ``ip`` denies may be narrowed."""
    protocol = draw(st.sampled_from((1, 6, 17, 89, 47, None)))
    fields = {"action": draw(st.sampled_from(("permit", "deny"))),
              "protocol": protocol, "src": draw(addresses), "dst": draw(addresses),
              "state": tuple(draw(st.lists(st.sampled_from(("NEW", "ESTABLISHED")),
                                           max_size=2))),
              "log": draw(st.booleans())}
    if fixed_form(fields):
        fields["log"] = False  # the fixed terminal line carries no log flag
    if protocol in (6, 17):
        fields["sport"] = draw(port_lists(65535))
        fields["dport"] = draw(port_lists(65535))
    elif protocol == 1:
        fields["dport"] = draw(port_lists(255))  # the ICMP types
    return fields


remark_text = st.text("abcXYZ019_ ().>~:-", min_size=1, max_size=24).map(str.strip).filter(bool)


@st.composite
def acls(draw, name: str) -> Acl:
    """An ACL as parse_neutral reads it back: each rule carries the last
    remark above it, a rule of the fixed terminal form none, and the
    terminal deny closes the list."""
    rules = []
    comment = ""
    for fields in draw(st.lists(rule_fields(), max_size=8)):
        if fixed_form(fields):
            rules.append(AclRule(**fields))
            continue
        if draw(st.booleans()):
            comment = draw(remark_text)
        rules.append(AclRule(comment=comment, **fields))
    if draw(st.booleans()):
        rules.append(TERMINAL_DENY)
    return Acl(name, tuple(rules))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda count: st.tuples(*(acls(f"acl_{i}") for i in range(count)))))
def test_parse_neutral_inverts_render_neutral(acl_list):
    text = "\n".join(render_neutral(acl) for acl in acl_list)
    assert parse_neutral(text) == list(acl_list)


def test_parse_neutral_names_file_and_line_of_a_bad_address():
    text = (NEUTRAL_HEADER + "acl_1\n  remark~c\n"
            "  permit~tcp~from~10.999.0.0/29~to~any~sport~~dport~[80]~state~\n")
    with pytest.raises(InputError, match="malformed neutral rule line") as info:
        parse_neutral(text, "R1.neutral.acl")
    diagnostic = info.value.diagnostic
    assert (diagnostic.file, diagnostic.line) == ("R1.neutral.acl", 3)


@pytest.mark.parametrize("line", [
    "allow~tcp~from~any~to~any~sport~~dport~[80]~state~",  # unknown action
    "permit~999~from~any~to~any~sport~~dport~~state~",  # protocol above 255
    "permit~-5~from~any~to~any~sport~~dport~~state~",  # negative protocol
    "permit~tcp~from~any~to~any~sport~['9-3']~dport~~state~",  # reversed range
    "permit~udp~from~any~to~any~sport~~dport~[70000]~state~",  # port above 65535
    "permit~icmp~from~any~to~any~sport~~dport~[256]~state~",  # ICMP type above 255
    "permit~tcp~from~any~to~any~sport~~dport~[80]~state~NEWW",  # unknown state
    "permit~tcp~from~any~to~any~sport~~dport~[80]~state~~lgo",  # unknown flag
    "deny~ip~from~any~to~any~sport~~dport~[80]~state~",  # ports on an ip rule
    "permit~icmp~from~any~to~any~sport~[8]~dport~~state~",  # sport on icmp
    "permit~ospf~from~any~to~any~sport~~dport~[5]~state~",  # dport on ospf
    # fields that parse to a value render_neutral writes otherwise
    "permit~tcp~from~any~to~any~sport~~dport~[8_0]~state~",  # written [80]
    "permit~tcp~from~any~to~any~sport~~dport~[\u0663]~state~",  # Arabic-Indic 3
    "permit~tcp~from~any~to~any~sport~~dport~[+7]~state~",
    "permit~tcp~from~any~to~any~sport~~dport~[ 5 ]~state~",
    "permit~6~from~any~to~any~sport~~dport~[80]~state~",  # written tcp
    "permit~+6~from~any~to~any~sport~~dport~[80]~state~",
    "permit~\u0666~from~any~to~any~sport~~dport~[80]~state~",  # Arabic-Indic 6
    "permit~tcp~from~any~to~any~sport~~dport~[80]~state~NEW,,NEW",  # written NEW,NEW
    "permit~tcp~from~10.0.0.0/255.255.255.0~to~any~sport~~dport~[80]~state~",  # /24
])
def test_parse_neutral_rejects_malformed_fields(line):
    text = NEUTRAL_HEADER + "acl_1\n  remark~c\n  " + line + "\n"
    with pytest.raises(InputError, match="malformed neutral rule line") as info:
        parse_neutral(text, "R1.neutral.acl")
    diagnostic = info.value.diagnostic
    assert (diagnostic.file, diagnostic.line) == ("R1.neutral.acl", 3)


def test_parse_neutral_rejects_a_second_acl_of_one_name():
    text = (NEUTRAL_HEADER + "acl_2\n  " + TERMINAL_DENY_LINE + "\n"
            + NEUTRAL_HEADER + "acl_3\n  " + TERMINAL_DENY_LINE + "\n"
            + NEUTRAL_HEADER + "acl_2\n  " + TERMINAL_DENY_LINE + "\n")
    with pytest.raises(InputError, match="duplicate ACL 'acl_2'") as info:
        parse_neutral(text, "R1.neutral.acl")
    diagnostic = info.value.diagnostic
    assert (diagnostic.file, diagnostic.line) == ("R1.neutral.acl", 5)


def test_parse_neutral_rejects_garbage():
    with pytest.raises(PolicyError, match="malformed neutral rule line"):
        parse_neutral(NEUTRAL_HEADER + "acl_1\n  permit~tcp~broken\n")
    with pytest.raises(PolicyError, match="before any ACL header"):
        parse_neutral("  " + TERMINAL_DENY_LINE + "\n")


def test_fixture_neutral_contains_fig_style_lines(compiled_plant):
    text = render_neutral_file(compiled_plant, "R1")
    assert ("permit~tcp~from~10.0.0.16/29~to~10.0.0.0/29~sport~[443]"
            "~dport~['0-65535']~state~ESTABLISHED~log") in text
    assert ("permit~tcp~from~10.0.0.16/29~to~10.0.128.4/30~sport~['0-65535']"
            "~dport~[80]~state~NEW,ESTABLISHED~log") in text
    assert TERMINAL_DENY_LINE in text


def test_device_rendering_deterministic(compiled_plant):
    for vendor in ("iptables_like", "asa_like"):
        first = render_device(compiled_plant, "R1", vendor)
        second = render_device(compiled_plant, "R1", vendor)
        assert first == second


def test_iptables_rendering_shape(compiled_plant):
    text = render_device(compiled_plant, "R2", "iptables_like")
    assert ":FORWARD DROP [0:0]" in text
    assert "-A FORWARD -i eth1 -j acl_2" in text
    assert "-A INPUT -j acl_3" in text
    assert "-A OUTPUT -j acl_4" in text
    assert re.search(r"-A acl_\d+ -p tcp .* -m state --state NEW,ESTABLISHED -j ACCEPT",
                     text)
    assert "-j LOG" in text
    assert text.rstrip().endswith("COMMIT")


def test_asa_rendering_shape(compiled_plant):
    text = render_device(compiled_plant, "R1", "asa_like")
    assert re.search(r"access-list acl_\d+ extended permit tcp .* eq 443 log", text)
    assert re.search(r"access-group acl_1 in interface eth0", text)
    assert "remark" in text


def one_acl_policy(*rules, log_denies=False) -> NetworkPolicy:
    acl = Acl("acl_1", tuple(rules) + (TERMINAL_DENY,))
    return NetworkPolicy(model=None, flows=(), acls={"FW": (acl,)},
                         assignments=(InterfaceAssignment("FW", "eth0", "inbound", "acl_1"),),
                         options=CompileOptions(), spec=None, log_denies=log_denies)


def test_asa_writes_each_port_operator_after_its_address():
    every_port = (PortRange(0, 65535),)
    to_web = AclRule("permit", 6, (net("10.0.0.0/29"),), (net("10.0.0.16/29"),),
                     sport=every_port, dport=(PortRange(80, 80),))
    from_web = AclRule("permit", 6, (net("10.0.0.0/29"),), (net("10.0.0.16/29"),),
                       sport=(PortRange(80, 80),), dport=every_port)
    lines = render_device(one_acl_policy(to_web, from_web), "FW", "asa_like").splitlines()
    assert "access-list acl_1 extended permit tcp 10.0.0.0/29 10.0.0.16/29 eq 80" in lines
    assert "access-list acl_1 extended permit tcp 10.0.0.0/29 eq 80 10.0.0.16/29" in lines


@pytest.mark.parametrize("comment, service_comment", [
    ("web", "Hypertext"), ("web\rrest of the remark", "Hyper\x85text"), ("", "line\x0bbreak")])
def test_iptables_loc_counts_what_a_rescan_of_the_config_counts(comment, service_comment):
    """A remark whose text breaks a line writes a line that is not a comment."""
    web = AclRule("permit", 6, (net("10.0.0.0/29"),), (net("10.0.0.16/29"),),
                  dport=(PortRange(80, 80), PortRange(443, 443)), comment=comment,
                  origin_rule="r", origin_service="web", service_comment=service_comment)
    cache = RenderCache(True)
    config = render_device(one_acl_policy(web, log_denies=True), "FW", "iptables_like", cache=cache)
    assert cache.iptables_loc == sum(1 for line in config.splitlines()
                                     if line.strip() and not line.strip().startswith("#"))


@pytest.mark.parametrize("log_denies", [False, True])
def test_asa_logs_denies_as_iptables_does(log_denies):
    policy = one_acl_policy(log_denies=log_denies)
    asa = render_device(policy, "FW", "asa_like")
    iptables = render_device(policy, "FW", "iptables_like")
    assert ("access-list acl_1 extended deny ip any any log" in asa) == log_denies
    assert ("-A acl_1 -j LOG" in iptables) == log_denies


def test_plant_gateway_asa_acls_end_in_a_logged_deny(compiled_plant):
    lines = render_device(compiled_plant, "GW", "asa_like").splitlines()
    for acl in compiled_plant.acls["GW"]:
        rules = [line for line in lines
                 if line.startswith(f"access-list {acl.name} extended ")]
        assert rules[-1] == f"access-list {acl.name} extended deny ip any any log"


ICMP_RANGE_POLICY = """
service unreach { protocol=icmp; icmp.type=3-5; }
policy_rule unreach_rule { z1 -> z3 : unreach }
rule_group rules { unreach_rule }
reporting_rule report { use_case=verification; }
policy icmp_policy { rules; report; }
"""


def test_asa_writes_one_entry_per_icmp_type(plant_topology):
    # an ASA access-list entry takes one ICMP type, not a range
    policy = compile_policy(parse_policy(ICMP_RANGE_POLICY), plant_topology)
    lines = render_device(policy, "R1", "asa_like").splitlines()
    from_z1 = [line for line in lines if " icmp 10.0.0.0/29 " in line]
    assert from_z1 == [f"access-list acl_1 extended permit icmp 10.0.0.0/29 10.0.0.16/29 {t}"
                       for t in (3, 4, 5)]
    assert not [line for line in lines if " range " in line]


def test_manifest_writes_one_entry_per_line(compiled_plant):
    text = manifest_json(compiled_plant)
    manifest = json.loads(text)
    lines = {line.rstrip(",") for line in text.splitlines()}
    for flow in manifest["flows"]:
        assert "  " + json.dumps(flow, sort_keys=True) in lines
    for name, service in manifest["services"].items():
        assert f"  {json.dumps(name)}: {json.dumps(service, sort_keys=True)}" in lines


def test_unknown_vendor_and_firewall_rejected(compiled_plant):
    with pytest.raises(PolicyError, match="unknown vendor"):
        render_device(compiled_plant, "R1", "cisco_ios")
    with pytest.raises(PolicyError, match="unknown firewall"):
        render_device(compiled_plant, "R9", "iptables_like")


def test_loc_metrics(plant_spec_fixed, compiled_plant):
    cache = RenderCache(compiled_plant.log_denies)
    configs = [render_device(compiled_plant, fw, "iptables_like", cache=cache)
               for fw in compiled_plant.firewalls()]
    metrics = loc_metrics(plant_spec_fixed, cache.iptables_loc)
    # the renderer counts as it writes what a rescan of its output counts
    assert metrics.device_loc == sum(
        1 for text in configs for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#"))
    assert metrics.high_level_loc >= 1
    assert metrics.device_loc > metrics.high_level_loc
    assert metrics.ratio > 1


def test_iptables_loadback_is_decision_equivalent(compiled_plant):
    """Simulator verdicts agree whether it consumes neutral or iptables text."""
    import random
    from forestfw.sim import NEW, Packet, inject

    neutral_net = from_network_policy(compiled_plant)
    loaded_net = from_network_policy(compiled_plant)
    acl_map = {}
    for firewall in compiled_plant.firewalls():
        text = render_device(compiled_plant, firewall, "iptables_like")
        acls, bindings = parse_iptables_like(text)
        for interface, direction, acl_name in bindings:
            acl_map[(firewall, interface, direction)] = tuple(acls.get(acl_name, ()))
    assert set(acl_map) == set(neutral_net.acl_map)
    loaded_net.acl_map = acl_map

    zones = {name: zone for name, zone in compiled_plant.model.zones.items()}
    rng = random.Random(2024)
    zone_names = sorted(zones)
    checked = 0
    for _ in range(600):
        src, dst = rng.sample(zone_names, 2)
        packet = Packet(
            int(zones[src].cidrs[0].network_address),
            int(zones[dst].cidrs[0].network_address),
            rng.choice((1, 6, 17)),
            rng.randrange(0, 65536),
            rng.randrange(0, 2000),
            rng.randrange(0, 16),
            NEW)
        neutral_net.reset_connections()
        loaded_net.reset_connections()
        a = inject(neutral_net, packet, src)
        b = inject(loaded_net, packet, src)
        assert a.delivered == b.delivered
        checked += 1
    assert checked == 600


# what a template body is drawn from: literal text (no single brace, no
# section header, no line break but "\n"), literal brace pairs and slots
BODY_TEXT = st.text(alphabet="ab #%sd-:\t\n", max_size=6)
# slot values: braces, "%" and format specifiers are text like any other
SLOT_VALUE = st.text(alphabet="ab {}%#sd\n", max_size=5)


@st.composite
def bound_sections(draw):
    """A dialect, one of its sections with a drawn body, fixed values for
    some of the section's slots and arguments for the rest."""
    vendor = draw(st.sampled_from(sorted(_TEMPLATE_SLOTS)))
    section = draw(st.sampled_from(sorted(_TEMPLATE_SLOTS[vendor])))
    slots = _TEMPLATE_SLOTS[vendor][section]
    pieces = [BODY_TEXT, st.sampled_from(("{{", "}}"))]
    if slots:  # a slot may be written twice, or not at all
        pieces.append(st.sampled_from(slots).map(lambda slot: "{" + slot + "}"))
    body = "".join(draw(st.lists(st.one_of(pieces), max_size=10))).strip("\n")
    fixed = {slot: draw(SLOT_VALUE) for slot in slots if draw(st.booleans())}
    args = [draw(SLOT_VALUE) for slot in slots if slot not in fixed]
    return vendor, section, body, fixed, args


def old_section_loc(bound_body: str) -> int | None:
    """The non-comment lines of a bound body, or None when a line starts
    with an open slot ``{i}``."""
    count = 0
    for line in bound_body.splitlines():
        line = line.strip()
        if line.startswith("{") and not line.startswith("{{"):
            return None
        count += bool(line) and not line.startswith("#")
    return count


@settings(max_examples=300, deadline=None)
@given(bound_sections())
def test_line_builders_write_what_str_format_writes(drawn):
    vendor, section, body, fixed, args = drawn
    text = "".join(f"[{name}]\n{body if name == section else ''}\n"
                   for name in _TEMPLATE_SLOTS[vendor])
    with tempfile.TemporaryDirectory() as root:
        (Path(root) / f"{vendor}.tmpl").write_text(text, encoding="utf-8")
        template = load_template(vendor, Path(root))
    assert template.sections[section] == body
    open_slots = [slot for slot in _TEMPLATE_SLOTS[vendor][section] if slot not in fixed]

    def bind(match: re.Match) -> str:
        slot = match.group(1)
        if slot is None:  # a literal brace pair
            return match.group()
        if slot in fixed:
            return fixed[slot].replace("{", "{{").replace("}", "}}")
        return "{%d}" % open_slots.index(slot)

    bound_body = re.sub(r"\{\{|\}\}|\{(\w+)\}", bind, body)
    bound = template.bind(section, **fixed)
    assert bound.line(*args) == bound_body.format(*args)
    assert bound.loc == old_section_loc(bound_body)
