import argparse
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestfw import cli, render, sim
from forestfw.cli import main
from forestfw.diagnostics import InputError
from forestfw.policy_lang import parser
from forestfw.policy_lang.syntax import PortRange
from conftest import FIXTURES

POLICY = str(FIXTURES / "scada_plant.policyml")
POLICY_FIXED = str(FIXTURES / "scada_plant_fixed.policyml")
TOPOLOGY = str(FIXTURES / "topology.graphml")
BEST_PRACTICE = str(FIXTURES / "bestpractice" / "scada_isa.policyml")
GOLDEN = Path(__file__).parent / "golden"


def test_check_flags_the_published_overlap(capsys, monkeypatch):
    """The whole report, frozen in a golden file: the one overlap and its
    witness, run from the fixture directory so the policy path is as written."""
    monkeypatch.chdir(FIXTURES)
    code = main(["check", "--policy", "scada_plant.policyml", "--topology", TOPOLOGY])
    assert code == 1
    assert capsys.readouterr().out == (GOLDEN / "scada_plant_check.txt").read_text(encoding="utf-8")


def test_check_reports_the_frozen_overlaps(capsys, monkeypatch):
    """Several overlaps through both-way rules, service and port groups and
    four protocols: the whole report, witness order included, is the one
    frozen in a golden file."""
    monkeypatch.chdir(GOLDEN)
    code = main(["check", "--policy", "overlaps.policyml", "--topology", TOPOLOGY])
    assert code == 1
    assert capsys.readouterr() == ((GOLDEN / "overlaps_check.txt").read_text(encoding="utf-8"), "")


def test_check_passes_corrected_policy(capsys):
    code = main(["check", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--best-practice", BEST_PRACTICE])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("OK:")


def test_check_parses_each_library_once_per_command(monkeypatch, capsys):
    # the policy and the best-practice file both import the two system
    # libraries; each command parses each of them once, and a new command
    # parses them again
    parsed: list[str] = []
    parse_file = parser._parse_file

    def counting(text, file):
        parsed.append(Path(file).name)
        return parse_file(text, file)

    monkeypatch.setattr(parser, "_parse_file", counting)
    argv = ["check", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
            "--best-practice", BEST_PRACTICE]
    for runs in (1, 2):
        assert main(argv) == 0
        assert sorted(parsed) == sorted(runs * ["scada_plant_fixed.policyml", "scada_isa.policyml",
                                                "iana_services.policyml", "iana_icmp.policyml"])
    capsys.readouterr()


def test_check_prefixes_and_builds_each_library_service_once_per_command(monkeypatch, capsys):
    # the policy and the best-practice file share the import memo, so each
    # library's declarations are prefixed once and each of its services
    # built once per command; a new command does both again
    prefixed: list[str] = []
    built: list[str] = []
    prefix_decls, build_service = parser._prefix_decls, parser._Resolver._build_service

    def counting_prefix(decls, prefix):
        prefixed.append(prefix)
        return prefix_decls(decls, prefix)

    def counting_build(resolver, decl):
        built.append(decl.name)
        return build_service(resolver, decl)

    monkeypatch.setattr(parser, "_prefix_decls", counting_prefix)
    monkeypatch.setattr(parser._Resolver, "_build_service", counting_build)
    argv = ["check", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
            "--best-practice", BEST_PRACTICE]
    for runs in (1, 2):
        assert main(argv) == 0
        assert sorted(prefixed) == sorted(runs * ["iana_services", "iana_icmp"])
        library = [name for name in built if name.startswith(("iana_services.", "iana_icmp."))]
        assert len(library) == runs * len(set(library)) >= runs * 24
    capsys.readouterr()


def test_check_missing_file_is_usage_error(capsys):
    code = main(["check", "--policy", "/nonexistent.policyml", "--topology", TOPOLOGY])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_emit_alloy(tmp_path, capsys):
    target = tmp_path / "model.als"
    main(["check", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
          "--emit-alloy", str(target)])
    text = target.read_text()
    assert text == (GOLDEN / "scada_plant_fixed.als").read_text(encoding="utf-8")
    # byte-stable across runs
    main(["check", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
          "--emit-alloy", str(tmp_path / "model2.als")])
    assert (tmp_path / "model2.als").read_text() == text


def test_compile_writes_expected_tree(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    code = main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir), "--best-practice", BEST_PRACTICE, "--ospf"])
    assert code == 0
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [
        "GW.asa.txt", "GW.iptables.txt", "GW.neutral.acl",
        "R1.asa.txt", "R1.iptables.txt", "R1.neutral.acl",
        "R2.asa.txt", "R2.iptables.txt", "R2.neutral.acl",
        "manifest.json", "metrics.txt", "topology.graphml",
        "zone_conduit.dot", "zone_firewall.dot",
    ]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["options"]["ospf"] is True
    assert (out_dir / "topology.graphml").read_bytes() == Path(TOPOLOGY).read_bytes()


def test_compile_metrics_count_the_iptables_files_written(tmp_path, capsys):
    """With --templates, device_loc counts the configs rendered from them."""
    templates = tmp_path / "templates"
    shutil.copytree(Path(render.__file__).parent / "templates", templates)
    iptables = templates / "iptables_like.tmpl"
    text = iptables.read_text()
    assert text.count("*filter\n") == 1
    iptables.write_text(text.replace("*filter\n", "*filter\n:SITE_LOG - [0:0]\n"))
    out_dir = tmp_path / "compiled"
    code = main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir), "--templates", str(templates)])
    assert code == 0
    written = 0
    for path in sorted(out_dir.glob("*.iptables.txt")):
        lines = [line.strip() for line in path.read_text().splitlines()]
        assert ":SITE_LOG - [0:0]" in lines
        written += sum(1 for line in lines if line and not line.startswith("#"))
    metrics = dict(line.split() for line in (out_dir / "metrics.txt").read_text().splitlines())
    assert int(metrics["device_loc"]) == written
    assert f"device LoC {written}," in capsys.readouterr().out


# (a line of the packaged template, its override): sections that write
# blank, indented and "#" lines, and lines that start with a slot, so that
# only the written text tells whether they count (the terminal deny's
# logged match is empty)
LOC_TEMPLATE_EDITS = {
    "blank, indented and # lines": [
        ("*filter\n", "*filter\n\n   # an indented comment\n\t:SITE_LOG - [0:0]\n\n"),
        ("-A {acl}{match} -j {target}\n",
         "\n  -A {acl}{match} -j {target}\n#   {target} for {acl}\n   \n"),
        ("# {text}\n", "  # {text}\n\n"),
        ("COMMIT\n", "# end\n  COMMIT\n#\n"),
    ],
    "lines that start with a slot": [
        ("# {text}\n", "{text}\n"),
        ('-A {acl}{match} -j LOG --log-prefix "{prefix}"\n',
         '   {match}\n-A {acl}{match} -j LOG --log-prefix "{prefix}"\n'),
    ],
}


@pytest.mark.parametrize("edits", sorted(LOC_TEMPLATE_EDITS))
def test_compile_metrics_from_edited_templates_count_the_lines_written(tmp_path, edits):
    """metrics.txt is what counting the written iptables files gives, for
    templates whose sections write blank, indented and comment lines."""
    templates = tmp_path / "templates"
    shutil.copytree(Path(render.__file__).parent / "templates", templates)
    iptables = templates / "iptables_like.tmpl"
    text = iptables.read_text()
    for old, new in LOC_TEMPLATE_EDITS[edits]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    iptables.write_text(text)
    out_dir = tmp_path / "compiled"
    code = main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY, "--ospf",
                 "--best-practice", BEST_PRACTICE, "--out", str(out_dir),
                 "--templates", str(templates)])
    assert code == 0
    written = sum(1 for path in out_dir.glob("*.iptables.txt")
                  for line in path.read_text().splitlines()
                  if line.strip() and not line.strip().startswith("#"))
    source = Path(POLICY_FIXED).read_text().splitlines()
    high = sum(1 for line in source if line.strip() and not line.strip().startswith("//"))
    assert (out_dir / "metrics.txt").read_text() == (
        f"high_level_loc {high}\ndevice_loc {written}\nratio {written / high:.2f}\n")


ASA_RULE = "{src}{sport} {dst}{dport}{log}"
ASA_BIND = "[bind]\naccess-group {acl} {direction} interface {interface}\n"


@pytest.mark.parametrize("vendor, old, new, mark, message", [
    # the ASA rule line as it was written before each port operator
    # followed its own address
    ("asa_like", ASA_RULE, "{src} {dst}{ports}{log}", "{ports}",
     "[rule] has no slot {ports}; its slots are {acl}, {action}, {dport}"),
    ("iptables_like", "-j {target}", "-j {targt}", "{targt}", "[rule] has no slot {targt}"),
    ("asa_like", ASA_BIND, "", None, "no [bind] section"),
    ("asa_like", "[bind]", "[bnid]", "[bnid]", "unknown section [bnid]"),
    ("iptables_like", "# {firewall} packet", "# {firewall packet", "{firewall packet",
     "unpaired '{' in [header]"),
    ("asa_like", None, None, None, "no template for vendor 'asa_like'"),
])
def test_compile_rejects_a_bad_template(tmp_path, capsys, vendor, old, new, mark, message):
    templates = tmp_path / "templates"
    shutil.copytree(Path(render.__file__).parent / "templates", templates)
    path = templates / f"{vendor}.tmpl"
    where = "0:0"
    if old is None:
        path.unlink()
    else:
        text = path.read_text()
        assert text.count(old) == 1
        text = text.replace(old, new)
        path.write_text(text)
        if mark is not None:
            offset = text.index(mark)
            line_start = text.rfind("\n", 0, offset) + 1
            where = f"{text.count(chr(10), 0, offset) + 1}:{offset - line_start + 1}"
    out_dir = tmp_path / "compiled"
    code = main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir), "--templates", str(templates)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"forestfw: {path}:{where}: error: {message}")
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_compile_aborts_without_writing_on_overlap(tmp_path, capsys):
    out_dir = tmp_path / "never"
    code = main(["compile", "--policy", POLICY, "--topology", TOPOLOGY,
                 "--out", str(out_dir)])
    assert code == 1
    assert "rule overlap" in capsys.readouterr().err
    assert not out_dir.exists()


def test_compile_refuses_to_clobber_foreign_directory(tmp_path, capsys):
    out_dir = tmp_path / "precious"
    out_dir.mkdir()
    (out_dir / "keep.txt").write_text("do not delete")
    code = main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir)])
    assert code == 2
    assert (out_dir / "keep.txt").exists()


def test_compile_replaces_previous_output(tmp_path):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir)]) == 0
    assert main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "manifest.json").exists()


def test_recompile_leaves_identical_output_untouched(tmp_path):
    """Unchanged inputs find their output in place and create no file; a
    tampered, extra or missing file gets the whole directory rewritten."""
    out_dir = tmp_path / "compiled"
    args = ["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY, "--out", str(out_dir)]

    def files() -> dict[str, tuple[int, bytes]]:
        return {p.name: (p.stat().st_ino, p.read_bytes()) for p in out_dir.iterdir()}

    assert main(args) == 0
    first = files()
    assert main(args) == 0
    assert files() == first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["compiled"]  # no staging left

    for tamper in (lambda: (out_dir / "R1.asa.txt").write_text("edited\n"),
                   lambda: (out_dir / "extra.txt").write_text("stale\n"),
                   lambda: (out_dir / "metrics.txt").unlink()):
        tamper()
        assert main(args) == 0
        rewritten = files()
        assert {name: data for name, (_, data) in rewritten.items()} == \
            {name: data for name, (_, data) in first.items()}
        assert all(rewritten[name][0] != first[name][0] for name in first)
        first = rewritten


def test_simulate_passes_on_fixture(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
          "--out", str(out_dir), "--ospf"])
    capsys.readouterr()
    code = main(["simulate", "--out", str(out_dir),
                 "--scan-ports", "0-128,443,1521"])
    out = capsys.readouterr().out
    assert code == 0
    assert "LEAK" not in out
    assert "FAIL" not in out.replace("positive vetting", "")
    assert "0 leak(s)" in out


def test_simulate_detects_tampered_config(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
          "--out", str(out_dir)])
    acl_file = out_dir / "R2.neutral.acl"
    lines = [l for l in acl_file.read_text().splitlines()
             if "dport~[1521]" not in l]
    acl_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL corp_scada_oracle" in out


def test_simulate_missing_manifest_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path)])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_manifest_is_read_as_every_other_input(tmp_path, capsys):
    """A missing manifest is an InputError, not a finding, and a byte that
    is not UTF-8 is named at its line and column."""
    with pytest.raises(InputError, match="manifest.json:0:0: error: cannot read: "):
        sim.load_compiled(tmp_path)
    out_dir = _compiled(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    lines = manifest_path.read_bytes().split(b"\n")
    lines[3] = lines[3][:5] + b"\xff" + lines[3][5:]
    manifest_path.write_bytes(b"\n".join(lines))
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"forestfw: {manifest_path}:4:6: error: not UTF-8: byte 0xff "
                            f"(invalid start byte)\n")
    assert captured.out == ""


def test_graph_writes_two_dot_files(tmp_path, capsys):
    out_dir = tmp_path / "graphs"
    code = main(["graph", "--topology", TOPOLOGY, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "zone_conduit.dot").read_text().startswith("graph zone_conduit")
    assert (out_dir / "zone_firewall.dot").read_text().startswith("graph zone_firewall")


@pytest.mark.parametrize("command, target, message", [
    ("check", "missing/model.als", "cannot write {}: No such file or directory"),
    ("check", "blocker_dir", "cannot write {}: Is a directory"),
    ("compile", "blocker/out", "cannot create directory {}: File exists"),
    ("graph", "blocker", "cannot create directory {}: File exists"),
])
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, command, target, message):
    # "blocker" is a regular file where a directory has to go, and
    # "blocker_dir" a directory where a file has to go
    (tmp_path / "blocker").write_text("not a directory")
    (tmp_path / "blocker_dir").mkdir()
    target = tmp_path / target
    args = {
        "check": ["--policy", POLICY_FIXED, "--topology", TOPOLOGY, "--emit-alloy", str(target)],
        "compile": ["--policy", POLICY_FIXED, "--topology", TOPOLOGY, "--out", str(target)],
        "graph": ["--topology", TOPOLOGY, "--out", str(target)],
    }[command]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    failed = target.parent if command == "compile" else target
    assert err == f"forestfw: {message.format(failed)}\n"
    assert (tmp_path / "blocker").read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "blocker_dir"]
    assert not any((tmp_path / "blocker_dir").iterdir())


def test_graph_bad_topology_path(capsys):
    assert main(["graph", "--topology", "/none.graphml", "--out", "/tmp/x"]) == 2


def test_parse_error_exits_with_findings(tmp_path, capsys):
    bad = tmp_path / "bad.policyml"
    bad.write_text("service s { protocol ,, }")
    code = main(["check", "--policy", str(bad), "--topology", TOPOLOGY])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_graph_on_empty_topology_writes_empty_graphs(tmp_path, capsys):
    empty = tmp_path / "empty.graphml"
    empty.write_text('<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
                     "<graph></graph></graphml>")
    out_dir = tmp_path / "graphs"
    assert main(["graph", "--topology", str(empty), "--out", str(out_dir)]) == 0
    assert (out_dir / "zone_conduit.dot").read_text() == "graph zone_conduit {\n}\n"


@pytest.mark.parametrize("ports, message", [
    ("5-x", "expected PORT or LO-HI"),
    ("-3", "expected PORT or LO-HI"),
    ("80,http", "expected PORT or LO-HI"),
    ("10-5", "range is reversed"),
    ("70000", "ports run 0-65535"),
    ("0-65536", "ports run 0-65535"),
    (",", "empty scan port list"),
    # more digits than int() converts on CPython's default limit
    pytest.param("9" * 5000, "ports run 0-65535", id="5000 nines"),
    pytest.param("9" * 5000 + "-5", "range is reversed", id="5000 nines-5"),
])
def test_simulate_rejects_bad_scan_ports(tmp_path, capsys, ports, message):
    # the port list is checked before the compile directory is read
    code = main(["simulate", "--out", str(tmp_path), "--scan-ports", ports])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("forestfw: ") and message in captured.err
    assert captured.out == ""


def test_port_list_reads_leading_zeros_of_any_length():
    assert cli._parse_port_list("0" * 5000 + "80-00443") == (PortRange(80, 443),)


def test_simulate_accepts_spaced_and_single_port_lists(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
          "--out", str(out_dir), "--ospf"])
    capsys.readouterr()
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", " 0 - 64 , 443,65535"])
    assert code == 0
    assert "0 leak(s)" in capsys.readouterr().out


def _compiled(tmp_path, capsys):
    out_dir = tmp_path / "compiled"
    assert main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return out_dir


def _web_service(key, value):
    """An edit setting the key ``key`` of the plant's tcp/80 service to ``value``."""
    def edit(manifest):
        web = manifest["services"]["iana_services.http"]
        assert web["dest_ports"] == [[80, 80]]
        web[key] = value
    return edit


def _web_dest_ports(ranges):
    return _web_service("dest_ports", ranges)


@pytest.mark.parametrize("edit, key", [
    (lambda m: m["flows"][0].__setitem__("dst_zone", "nowhere"), "'nowhere'"),
    # a reversed or out-of-range port range once crashed or was vetted as written
    (_web_dest_ports([[90, 80]]),
     "dest_ports [90, 80], not an ascending range of integers within 0-65535"),
    (_web_dest_ports([[70000, 70000]]), "dest_ports [70000, 70000], not an ascending"),
    (_web_dest_ports([[-5, 80]]), "dest_ports [-5, 80], not an ascending"),
    # JSON true and floats equal integers in Python: once vetted as icmp, tcp or port 80
    (_web_service("protocol", True), "protocol true, not an integer"),
    (_web_service("protocol", 6.0), "protocol 6.0, not an integer"),
    (_web_dest_ports([[80.0, 80.5]]), "dest_ports [80.0, 80.5], not an ascending range of int"),
    (_web_dest_ports([[True, 65535]]), "dest_ports [true, 65535], not an ascending range of int"),
    # once vetted as 18/26 passed: no route reads an ACL bound to an unknown interface
    (lambda m: next(a for a in m["assignments"] if a["firewall"] == "GW"
                    and a["interface"] == "eth0").__setitem__("interface", "loc6l"),
     "binding GW loc6l inbound filters no route"),
    # a manifest written before schema 2 records the model and no schema
    (lambda m: [m.pop("schema"), m.update(zones={}, conduits=[], firewall_interfaces={})],
     "schema 1, not 2: compile the policy again"),
    (lambda m: m.__setitem__("optoins", m.pop("options")),
     "the manifest has keys assignments, flows, optoins, schema, services, "
     "not assignments, flows, options, schema, services"),
    (lambda m: m["assignments"][0].__setitem__("file", "GW.neutral.acl"),
     "an assignment has keys acl, direction, file, firewall, interface, "
     "not acl, direction, firewall, interface"),
    (lambda m: m["flows"][0].__setitem__("service", "iana_services.nntp"),
     "flow 'file_transfer_rule' names unknown service 'iana_services.nntp'"),
], ids=["flow_zone",
        "port_range_reversed", "port_range_above", "port_range_below",
        "protocol_bool", "protocol_float", "port_float", "port_bool",
        "binding_interface", "schema_1", "misspelled_key", "extra_key", "flow_service"])
def test_simulate_inconsistent_manifest_is_usage_error(tmp_path, capsys, edit, key):
    out_dir = _compiled(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {manifest_path}:0:0: error: ")
    assert key in captured.err and captured.out == ""


def test_simulate_manifest_with_a_key_twice_is_usage_error(tmp_path, capsys):
    """A duplicate key is refused, not read as its last value."""
    out_dir = _compiled(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    text = manifest_path.read_text()
    assert text.count(' "schema": 2,\n') == 1
    manifest_path.write_text(text.replace(' "schema": 2,\n', ' "schema": 1,\n "schema": 2,\n'))
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"forestfw: {manifest_path}:0:0: error: malformed manifest: "
                            f"key \"schema\" appears twice in one object\n")


@pytest.mark.parametrize("edit, where, message", [
    (None, "0:0", "cannot read: No such file or directory"),
    (lambda text: text[: len(text) // 2], r"[1-9]\d*:\d+", "malformed GraphML: "),
    # a finding in the copy is bad compile output, not a policy finding
    (lambda text: text.replace(">firewall<", ">router<", 1), "0:0",
     "device 'R1' has unknown kind 'router'"),
], ids=["missing", "malformed", "device_kind"])
def test_simulate_bad_topology_copy_is_usage_error(tmp_path, capsys, edit, where, message):
    """Simulate derives the model from the topology copy; an error there
    names the copy, at its line and column when it does not parse."""
    out_dir = _compiled(tmp_path, capsys)
    topology = out_dir / "topology.graphml"
    if edit is None:
        topology.unlink()
    else:
        topology.write_text(edit(topology.read_text()))
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert re.match(f"forestfw: {re.escape(str(topology))}:{where}: error: {re.escape(message)}",
                    captured.err)
    assert captured.out == ""


def test_simulate_bad_shared_service_names_the_first_flow_carrying_it(tmp_path, capsys):
    """The manifest writes each service once, and the flows that name it
    share one Service: a bad range there names the service entry."""
    out_dir = _compiled(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    smtp = [f for f in manifest["flows"] if f["service"] == "iana_services.smtp"]
    assert len({f["rule"] for f in smtp}) == 2
    loaded = sim.load_compiled(out_dir)
    assert len({id(flow.service) for flow in loaded.flows}) == len(manifest["services"])
    manifest["services"]["iana_services.smtp"]["dest_ports"] = [[90, 80]]
    manifest_path.write_text(json.dumps(manifest))
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {manifest_path}:0:0: error: malformed manifest: "
                                   f"service 'iana_services.smtp' has dest_ports [90, 80]")


def test_simulate_manifest_binding_one_key_twice_is_usage_error(tmp_path, capsys):
    """A second ACL bound to GW's eth0 inbound is refused, naming the
    manifest and the key, instead of replacing the first binding."""
    out_dir = _compiled(tmp_path, capsys)
    manifest_path = out_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    gw = [a for a in manifest["assignments"] if a["firewall"] == "GW"]
    first = next(a for a in gw if (a["interface"], a["direction"]) == ("eth0", "inbound"))
    other = next(a["acl"] for a in gw if a["acl"] != first["acl"])
    manifest["assignments"].append({**first, "acl": other})
    manifest_path.write_text(json.dumps(manifest))
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {manifest_path}:0:0: error: ")
    assert "GW eth0 inbound" in captured.err and captured.out == ""


def test_simulate_bad_neutral_address_names_file_and_line(tmp_path, capsys):
    out_dir = _compiled(tmp_path, capsys)
    acl_file = out_dir / "R1.neutral.acl"
    lines = acl_file.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if "10.0.0.0/29" in line)
    lines[lineno - 1] = lines[lineno - 1].replace("10.0.0.0/29", "10.999.0.0/29", 1)
    acl_file.write_text("\n".join(lines) + "\n")
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {acl_file}:{lineno}:0: error: ")
    assert "10.999.0.0" in captured.err


def test_simulate_bad_neutral_action_names_file_and_line(tmp_path, capsys):
    out_dir = _compiled(tmp_path, capsys)
    acl_file = out_dir / "R1.neutral.acl"
    lines = acl_file.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if "permit~tcp~" in line)
    lines[lineno - 1] = lines[lineno - 1].replace("permit~", "allow~", 1)
    acl_file.write_text("\n".join(lines) + "\n")
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {acl_file}:{lineno}:0: error: ")
    assert "unknown action 'allow'" in captured.err and captured.out == ""


def test_simulate_duplicate_neutral_acl_names_file_and_line(tmp_path, capsys):
    out_dir = _compiled(tmp_path, capsys)
    acl_file = out_dir / "R1.neutral.acl"
    text = acl_file.read_text()
    lineno = len(text.splitlines()) + 1
    duplicate = render.NEUTRAL_HEADER + "acl_2\n  " + render.TERMINAL_DENY_LINE + "\n"
    acl_file.write_text(text + duplicate)
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {acl_file}:{lineno}:0: error: ")
    assert "duplicate ACL 'acl_2'" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["check", "compile", "graph"])
def test_truncated_graphml_names_the_topology_file(tmp_path, capsys, command):
    truncated = tmp_path / "truncated.graphml"
    text = (FIXTURES / "topology.graphml").read_text()
    truncated.write_text(text[: len(text) // 2])
    argv = {"check": ["check", "--policy", POLICY_FIXED],
            "compile": ["compile", "--policy", POLICY_FIXED, "--out", str(tmp_path / "c")],
            "graph": ["graph", "--out", str(tmp_path / "g")]}[command]
    code = main(argv + ["--topology", str(truncated)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {truncated}:")
    assert "malformed GraphML" in captured.err and "<topology>" not in captured.err
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("command", ["check", "compile", "graph"])
def test_overlapping_zone_cidrs_name_the_topology_file(tmp_path, capsys, command):
    # z3's 10.0.0.16/29 widened to 10.0.0.0/28 overlaps z1's 10.0.0.0/29
    overlapping = tmp_path / "overlap.graphml"
    text = (FIXTURES / "topology.graphml").read_text()
    overlapping.write_text(text.replace("10.0.0.16/29", "10.0.0.0/28"))
    argv = {"check": ["check", "--policy", POLICY_FIXED],
            "compile": ["compile", "--policy", POLICY_FIXED, "--out", str(tmp_path / "c")],
            "graph": ["graph", "--out", str(tmp_path / "g")]}[command]
    code = main(argv + ["--topology", str(overlapping)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"{overlapping}:0:0: error: zone CIDRs overlap: ")
    assert not (tmp_path / "c").exists()


STRICT_BEST_PRACTICE = """import system.services.iana_services;
zone_group protected_zone { z3 }
policy_rule inbound_bound { any_zone -> protected_zone : iana_services.https }
policy_rule outbound_bound { protected_zone -> any_zone : iana_services.https }
rule_group best_practice { inbound_bound, outbound_bound }
"""


@pytest.mark.parametrize("case", [
    "validation", "model_mismatch", "unknown_zone", "overlap", "best_practice"])
def test_check_and_compile_report_the_same_gate_errors(tmp_path, capsys, case):
    fixed = (FIXTURES / "scada_plant_fixed.policyml").read_text()
    declared = (FIXTURES / "zone_conduit.graphml").read_text()
    extra = []
    if case == "validation":
        fixed += "service anytcp { protocol=tcp; }\n"
    elif case == "model_mismatch":
        declared = declared.replace('<edge source="z1" target="z2"/>', "")
    elif case == "unknown_zone":
        fixed = fixed.replace("scada_managed_firewalls { fwz2 }",
                              "scada_managed_firewalls { fwz2, fwz9 }")
    elif case == "overlap":
        fixed = (FIXTURES / "scada_plant.policyml").read_text()
    else:
        (tmp_path / "strict.policyml").write_text(STRICT_BEST_PRACTICE)
        extra = ["--best-practice", str(tmp_path / "strict.policyml")]
    policy = tmp_path / "policy.policyml"
    policy.write_text(fixed)
    (tmp_path / "zone_conduit.graphml").write_text(declared)
    args = ["--policy", str(policy), "--topology", TOPOLOGY, *extra]

    check_code = main(["check", *args])
    check_out = capsys.readouterr().out
    compile_code = main(["compile", *args, "--out", str(tmp_path / "out")])
    compile_err = capsys.readouterr().err

    def errors(text):
        return [line for line in text.splitlines() if ": error: " in line]

    assert check_code == compile_code == 1
    assert errors(check_out) and errors(check_out) == errors(compile_err)
    assert all(line.startswith(f"{policy}:") for line in errors(check_out))
    assert "<policy>" not in check_out + compile_err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ports, col", [("²", 16), ("1-³", 18)])
def test_non_ascii_digit_is_a_syntax_error(tmp_path, capsys, ports, col):
    policy = tmp_path / "digits.policyml"
    policy.write_text(f"port_group p {{ {ports} }}\n")
    code = main(["check", "--policy", str(policy), "--topology", TOPOLOGY])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"{policy}:1:{col}: error: non-ASCII digit")
    assert "Traceback" not in err


NO_FIREWALL_TOPOLOGY = """<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="kind" for="node" attr.name="kind" attr.type="string"/>
  <key id="zone" for="node" attr.name="zone" attr.type="string"/>
  <key id="cidr" for="node" attr.name="cidr" attr.type="string"/>
  <graph edgedefault="undirected">
    <node id="h1"><data key="kind">host</data><data key="zone">z1</data>
      <data key="cidr">10.0.0.1/32</data></node>
    <node id="h3"><data key="kind">host</data><data key="zone">z3</data>
      <data key="cidr">10.0.0.3/32</data></node>
    <edge source="h1" target="h3"/>
  </graph>
</graphml>
"""


def test_compile_without_firewalls_reports_no_valid_path(tmp_path, capsys):
    topology = tmp_path / "hosts.graphml"
    topology.write_text(NO_FIREWALL_TOPOLOGY)
    policy = tmp_path / "one_rule.policyml"
    policy.write_text(
        "import system.services.iana_services;\n"
        "policy_rule r { z1 -> z3 : iana_services.https }\n"
        "rule_group rules { r }\n"
        "reporting_rule report { use_case=verification; }\n"
        "policy p { rules; report; }\n")
    args = ["--policy", str(policy), "--topology", str(topology)]
    assert main(["check", *args]) == 0
    capsys.readouterr()
    code = main(["compile", *args, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"{policy}:0:0: error: no valid path for flow 'r': z1 -> z3")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reader", ["policy", "best_practice", "topology"])
def test_undecodable_input_file_is_an_io_error(tmp_path, capsys, reader):
    # the first bad byte sits on line 2, after three characters
    bad = tmp_path / f"bad_{reader}"
    bad.write_bytes(b"// ok\nabc\xff\xfe bad\n")
    files = {"policy": POLICY_FIXED, "best_practice": BEST_PRACTICE, "topology": TOPOLOGY}
    files[reader] = str(bad)
    code = main(["check", "--policy", files["policy"], "--topology", files["topology"],
                 "--best-practice", files["best_practice"]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"forestfw: {bad}:2:4: error: not UTF-8: byte 0xff "
                            f"(invalid start byte)\n")
    assert captured.out == ""


def test_undecodable_library_is_an_io_error(tmp_path, capsys):
    lib = tmp_path / "mylib" / "svc.policyml"
    lib.parent.mkdir()
    lib.write_bytes(b"service web { comment=\"caf\xe9\"; }\n")
    policy = tmp_path / "policy.policyml"
    policy.write_text("import mylib.svc;\n")
    code = main(["check", "--policy", str(policy), "--topology", TOPOLOGY])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"forestfw: {lib}:1:27: error: not UTF-8: byte 0xe9 "
                            f"(invalid continuation byte)\n")


@pytest.mark.parametrize("kind", [
    "policy", "best_practice", "topology", "declared_model", "library",
    "manifest", "neutral", "topology_copy"])
def test_unreadable_input_is_one_io_error(tmp_path, capsys, monkeypatch, kind):
    """Every input is read by one reader: a file that cannot be read, here
    a directory where the file should be (or, for a library, which the
    importer skips when it is a directory, a read that raises), exits 2
    with one diagnostic line naming it."""
    if kind in ("manifest", "neutral", "topology_copy"):
        out_dir = _compiled(tmp_path, capsys)
        path = out_dir / {"manifest": "manifest.json", "neutral": "R1.neutral.acl",
                          "topology_copy": "topology.graphml"}[kind]
        args = ["simulate", "--out", str(out_dir), "--scan-ports", "0-64"]
    else:
        for source in (POLICY_FIXED, BEST_PRACTICE, TOPOLOGY, FIXTURES / "zone_conduit.graphml"):
            shutil.copy(source, tmp_path)
        policy = tmp_path / "scada_plant_fixed.policyml"
        path = tmp_path / {"policy": policy.name, "best_practice": "scada_isa.policyml",
                           "topology": "topology.graphml",
                           "declared_model": "zone_conduit.graphml",
                           "library": "mylib/svc.policyml"}[kind]
        args = ["check", "--policy", str(policy), "--topology", str(tmp_path / "topology.graphml"),
                "--best-practice", str(tmp_path / "scada_isa.policyml")]
    if kind == "library":
        path.parent.mkdir()
        path.write_text("service web { protocol=tcp; tcp.dest_port=80; }\n")
        policy.write_text("import mylib.svc;\n" + policy.read_text())
        read_bytes = Path.read_bytes

        def refused(self):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", refused)
        reason = "Permission denied"
    else:
        path.unlink()
        path.mkdir()
        reason = "Is a directory"
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"forestfw: {path}:0:0: error: cannot read: {reason}\n"
    assert captured.out == ""


def test_template_that_is_not_utf8_is_named_at_its_line(tmp_path, capsys):
    templates = tmp_path / "templates"
    shutil.copytree(Path(render.__file__).parent / "templates", templates)
    path = templates / "asa_like.tmpl"
    lines = path.read_bytes().split(b"\n")
    lines[1] = b"ab\xff" + lines[1]
    path.write_bytes(b"\n".join(lines))
    out_dir = tmp_path / "compiled"
    code = main(["compile", "--policy", POLICY_FIXED, "--topology", TOPOLOGY,
                 "--out", str(out_dir), "--templates", str(templates)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"forestfw: {path}:2:3: error: not UTF-8: byte 0xff "
                            f"(invalid start byte)\n")
    assert not out_dir.exists()


def test_simulate_undecodable_neutral_acl_is_an_io_error(tmp_path, capsys):
    out_dir = _compiled(tmp_path, capsys)
    acl_file = out_dir / "R1.neutral.acl"
    lines = acl_file.read_bytes().split(b"\n")
    lines[2] = b"\xc3" + lines[2]
    acl_file.write_bytes(b"\n".join(lines))
    code = main(["simulate", "--out", str(out_dir), "--scan-ports", "0-64"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"forestfw: {acl_file}:3:1: error: not UTF-8: byte 0xc3 ")
    assert captured.out == ""


def test_firewall_interface_named_local_is_rejected(tmp_path, capsys):
    # R1's interface toward corp renamed to the firewall's local stage
    text = (FIXTURES / "topology.graphml").read_text()
    edge = '<edge source="R1" target="corp">\n      <data key="if_a">eth0</data>'
    assert edge in text
    topology = tmp_path / "local.graphml"
    topology.write_text(text.replace(edge, edge.replace("eth0", "local")))
    code = main(["compile", "--policy", POLICY_FIXED, "--topology", str(topology),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"{topology}:0:0: error: interface 'local' on firewall 'R1': the name is reserved "
        f"for the firewall's local stage\n")
    assert not (tmp_path / "out").exists()


# One argument list per row: no command, an option first and an unknown
# command (the full tree either way), each command's help, a missing
# required option, an extra positional, a port list that only the
# command itself rejects, and abbreviated and ``--opt=value`` options,
# which only argparse reads.
_ARGV_MATRIX = [
    [], ["--help"], ["-h", "check"], ["bogus"], ["--bogus", "check"],
    ["check", "--help"], ["compile", "--help"], ["simulate", "--help"], ["graph", "--help"],
    ["check", "--policy", "p"],
    ["compile", "--policy", "p", "--topology", "t"],
    ["simulate", "--scan-ports", "80"],
    ["graph", "--out", "o"],
    ["check", "--policy", "p", "--topology", "t", "extra"],
    ["compile", "--policy", "p", "--topology", "t", "--out", "o", "extra"],
    ["simulate", "--out", "o", "extra"],
    ["graph", "--topology", "t", "--out", "o", "extra"],
    ["simulate", "--out", "o", "--scan-ports", "10-5"],
    ["check", "--pol", "p", "--topology", "t"],
    ["graph", "--topo", "t", "--out=o"],
    ["simulate", "--out=o", "--scan", "10-5"],
    ["compile", "--policy=p", "--topology", "t", "--out", "o", "--osp"],
]


@pytest.mark.parametrize("argv", _ARGV_MATRIX, ids=" ".join)
def test_one_command_tree_reads_as_the_full_tree(argv, monkeypatch, capsys):
    """``main`` reads each line as the full argparse tree alone does: its
    exit code, output and the namespace the command receives are those
    of a ``main`` whose table read refuses every line."""
    monkeypatch.setenv("COLUMNS", "80")
    received = []
    for name in ("check", "compile", "simulate", "graph"):
        handler = getattr(cli, f"cmd_{name}")
        monkeypatch.setattr(cli, f"cmd_{name}",
                            lambda args, handler=handler: received.append(args) or handler(args))

    def run(full: bool):
        received.clear()
        with monkeypatch.context() as patch:
            if full:
                patch.setattr(cli, "_read_command_line", lambda argv: None)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, capsys.readouterr(), list(received)

    assert run(full=False) == run(full=True)


def test_main_reads_well_formed_lines_without_a_parser_and_runs_the_bound_handler(
        monkeypatch, capsys):
    """A well-formed line builds no parser; any other line builds the
    top-level parser and the subparsers of all four commands.  Both run
    the ``cmd_*`` the module holds when ``main`` is called (a tracer
    replaces them between calls)."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    received = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: received.append(args) or 0)
    assert main(["check", "--policy", "p", "--topology", "t"]) == 0
    assert built == []
    tree = ["forestfw", "forestfw check", "forestfw compile", "forestfw simulate", "forestfw graph"]
    assert main(["check", "--pol", "p", "--topology", "t"]) == 0
    assert built == tree
    assert [(args.command, args.policy, args.topology) for args in received] == [("check", "p", "t")] * 2
    assert capsys.readouterr() == ("", "")
    built.clear()
    with pytest.raises(SystemExit) as exc:
        main(["check", "--policy", "p", "--topology"])
    assert exc.value.code == 2
    assert built == tree
    assert len(received) == 2


_COMMAND_NAMES = list(cli._COMMANDS)
_FLAGS = sorted({flag for _, options in cli._COMMANDS.values() for flag, _ in options})
_VALUES = ["p", "t", "o", "80", "0-1023,8080", "check", "a b", ""]


_WORD = st.one_of(
    st.sampled_from(_COMMAND_NAMES + _FLAGS + _VALUES),
    st.sampled_from(_FLAGS).map(lambda flag: flag[:5]),  # abbreviations
    st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)).map("=".join),
    st.sampled_from(["-h", "--help", "--", "-", "-x", "-5", "--bogus", "bogus"]))

# a drawn word alone, a drawn word and a value, or a flag and a drawn word
_NOISE = st.one_of(_WORD.map(lambda word: [word]),
                   st.tuples(_WORD, st.sampled_from(_VALUES)).map(list),
                   st.tuples(st.sampled_from(_FLAGS), _WORD).map(list))


def _option_words(option):
    flag, kwargs = option
    if kwargs.get("action") == "store_true":
        return st.just([flag])
    return st.sampled_from(_VALUES).map(lambda value: [flag, value])


def _line(name: str, noise: bool):
    """A command's line: its required options and some drawn ones, some
    repeated, in any order, each value option with a value; with
    ``noise``, drawn words among them."""
    options = cli._COMMANDS[name][1]
    required = [[flag, "v"] for flag, kwargs in options if kwargs.get("required")]
    part = st.sampled_from(options).flatmap(_option_words)
    drawn = st.lists(st.one_of(part, _NOISE) if noise else part, max_size=6)
    return drawn.flatmap(lambda parts: st.permutations(parts + required)).map(
        lambda parts: [name, *(word for part in parts for word in part)])


# well-formed lines, the same with drawn words among the options, and drawn words
_ARGV = st.one_of(
    st.sampled_from(_COMMAND_NAMES).flatmap(lambda name: _line(name, noise=False)),
    st.sampled_from(_COMMAND_NAMES).flatmap(lambda name: _line(name, noise=True)),
    st.lists(_WORD, max_size=8))


@settings(max_examples=400, deadline=None)
@given(_ARGV)
def test_table_read_equals_the_full_tree(argv):
    """Whenever ``main`` reads a line from the table, the full argparse
    tree accepts the line and gives an equal namespace."""
    args = cli._read_command_line(argv)
    if args is not None:
        assert cli.build_parser().parse_args(argv) == args


@pytest.mark.parametrize("name", _COMMAND_NAMES)
def test_table_reads_each_commands_well_formed_lines(name):
    """The table read is not vacuous: every command's full line, written
    with every option once, is read from the table."""
    argv = [name]
    for flag, kwargs in cli._COMMANDS[name][1]:
        argv += [flag] if kwargs.get("action") == "store_true" else [flag, "x"]
    args = cli._read_command_line(argv)
    assert args is not None and args == cli.build_parser().parse_args(argv)
