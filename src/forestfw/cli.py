"""Command-line front end: check, compile, simulate, graph.

Exit codes: 0 success, 1 findings (validation, overlap, best-practice,
model mismatch, vetting failures), 2 usage or I/O errors.  ``compile``
never writes anything when a verification stage fails; output lands in
the target directory atomically, and a target that already holds it is
left untouched.

``main`` reads a well-formed command line straight from ``_COMMANDS``:
a command, then only that command's long options spelled in full, each
value option followed by one value that does not start with ``-``, and
every required option given.  It builds the namespace argparse would
give that line and builds no parser.  Any other line (help, an
abbreviation, ``--opt=value``, a missing or extra argument) goes to
the argparse tree of all four commands, which prints the help, usage
and error text.  Both paths look the ``cmd_*`` function up when
``main`` is called, so each command runs the one this module holds at
that moment.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from forestfw import checker, render, sim
from forestfw.diagnostics import CompileError, InputError, PolicyError, has_errors, read_text
from forestfw.netgen import CompileOptions, compile_policy, verify_policy
from forestfw.policy_lang import default_importer, parse_policy
from forestfw.policy_lang.syntax import PORT_MAX, PORT_MIN, PolicySpec, PortRange
from forestfw.topo_model import (
    Topology,
    ZoneConduitModel,
    build_zone_firewall_model,
    derive_zone_conduit,
    export_graph,
    load_declared_model,
    load_topology,
)

OK = 0
FINDINGS = 1
USAGE = 2


def _write(path: Path, text: str | None = None) -> None:
    """Write ``text`` to the file ``path``; without text, make the
    directory ``path`` and its parents."""
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
        else:
            path.write_text(text, encoding="utf-8")
    except OSError as exc:
        what = "create directory" if text is None else "write"
        raise _UsageError(f"cannot {what} {path}: {exc.strerror or exc}") from exc


class _UsageError(Exception):
    pass


def _load_policy(path: Path, import_memo: dict) -> PolicySpec:
    importer = default_importer(search_paths=(path.parent,))
    return parse_policy(read_text(path), importer, file=str(path), import_memo=import_memo)


def _load_declared(spec: PolicySpec, policy_path: Path) -> ZoneConduitModel | None:
    if spec.declared_model is None:
        return None
    model_path = policy_path.parent / spec.declared_model
    return load_declared_model(read_text(model_path), str(model_path))


def _load_topology(path: Path) -> Topology:
    return load_topology(read_text(path), str(path))


def _gate_inputs(args: argparse.Namespace,
                 ospf: bool = False) -> tuple[PolicySpec, Topology, CompileOptions]:
    """The policy, topology and gate options a ``check`` or ``compile``
    command line names."""
    policy_path = Path(args.policy)
    import_memo: dict = {}  # a library both files import is parsed once
    spec = _load_policy(policy_path, import_memo)
    topo = _load_topology(Path(args.topology))
    options = CompileOptions(
        ospf=ospf,
        best_practice=(_load_policy(Path(args.best_practice), import_memo)
                       if args.best_practice else None),
        declared_model=_load_declared(spec, policy_path),
    )
    return spec, topo, options


def cmd_check(args: argparse.Namespace) -> int:
    spec, topo, options = _gate_inputs(args)
    _, flows, diags = verify_policy(spec, topo, options)
    for diag in diags:
        print(diag)
    if args.emit_alloy and flows is not None:
        _write(Path(args.emit_alloy), checker.emit_alloy(spec, flows))
    if has_errors(diags):
        return FINDINGS
    print(f"OK: {len(flows)} flows, no overlaps"
          + (", best practice satisfied" if args.best_practice else ""))
    return OK


def cmd_compile(args: argparse.Namespace) -> int:
    spec, topo, options = _gate_inputs(args, ospf=args.ospf)
    policy = compile_policy(spec, topo, options)

    out_dir = Path(args.out)
    _write(out_dir.parent)
    templates = Path(args.templates) if args.templates else None
    cache = render.RenderCache(policy.log_denies)  # lives for this command only
    files: dict[str, str] = {}
    for firewall in policy.firewalls():
        files[render.neutral_file(firewall)] = render.render_neutral_file(policy, firewall, cache)
        files[f"{firewall}.iptables.txt"] = render.render_device(
            policy, firewall, "iptables_like", templates, cache)
        files[f"{firewall}.asa.txt"] = render.render_device(
            policy, firewall, "asa_like", templates, cache)
    files["zone_firewall.dot"] = export_graph(policy.model, "zone_firewall")
    files["zone_conduit.dot"] = export_graph(policy.model, "zone_conduit")
    files["manifest.json"] = render.manifest_json(policy)
    files[render.TOPOLOGY_FILE] = topo.document
    metrics = render.loc_metrics(spec, cache.iptables_loc)
    files["metrics.txt"] = (f"high_level_loc {metrics.high_level_loc}\n"
                            f"device_loc {metrics.device_loc}\n"
                            f"ratio {metrics.ratio:.2f}\n")
    if args.emit_alloy:
        files["policy.als"] = checker.emit_alloy(spec, policy.flows)
    _write_output(out_dir, files)

    print(f"compiled {len(policy.flows)} flows onto {len(policy.firewalls())} firewalls "
          f"-> {out_dir}")
    print(f"high-level LoC {metrics.high_level_loc}, device LoC {metrics.device_loc}, "
          f"ratio {metrics.ratio:.1f}")
    return OK


def _write_output(out_dir: Path, files: dict[str, str]) -> None:
    """Make ``out_dir`` hold exactly ``files``.  A directory that already
    does is left as it is, so recompiling unchanged inputs creates no
    file; otherwise the files are written to a directory beside it, which
    then replaces it whole."""
    if _holds(out_dir, files):
        return
    staging = Path(tempfile.mkdtemp(prefix=".forestfw-", dir=out_dir.parent or Path(".")))
    try:
        for name, text in files.items():
            _write(staging / name, text)
        _replace_dir(staging, out_dir)
    finally:
        if staging.exists():
            shutil.rmtree(staging, ignore_errors=True)


def _holds(directory: Path, files: dict[str, str]) -> bool:
    """Whether ``directory`` holds exactly ``files``: regular files of
    those names, each with the bytes ``_write`` would write."""
    try:
        with os.scandir(directory) as entries:
            found = {entry.name: entry.is_file(follow_symlinks=False) for entry in entries}
        return (found.keys() == files.keys() and all(found.values())
                and all((directory / name).read_bytes() == text.encode("utf-8")
                        for name, text in files.items()))
    except OSError:
        return False


def _replace_dir(staging: Path, target: Path) -> None:
    if target.exists():
        if target.is_dir() and (not any(target.iterdir()) or (target / "manifest.json").exists()):
            shutil.rmtree(target)
        else:
            raise _UsageError(f"refusing to overwrite {target}: not a compile output directory")
    os.replace(staging, target)


def cmd_simulate(args: argparse.Namespace) -> int:
    scan = None
    if args.scan_ports:
        scan = sim.ScanSpec(ports=_parse_port_list(args.scan_ports))
    net = sim.load_compiled(args.out)

    failures = 0
    for result in sim.vet_positive(net):
        print(result.line())
        if not result.outcome:
            failures += 1
    leaks = sim.vet_negative(net, scan)
    for leak in leaks:
        print(leak.line())
    print(f"positive vetting: {len(net.flows) - failures}/{len(net.flows)} passed; "
          f"negative vetting: {len(leaks)} leak(s)")
    return OK if failures == 0 and not leaks else FINDINGS


def cmd_graph(args: argparse.Namespace) -> int:
    model = derive_zone_conduit(build_zone_firewall_model(_load_topology(Path(args.topology))))
    out_dir = Path(args.out)
    _write(out_dir)
    for flavor in ("zone_firewall", "zone_conduit"):
        _write(out_dir / f"{flavor}.dot", export_graph(model, flavor))
    print(f"wrote 2 graphs -> {out_dir}")
    return OK


_PORT_ITEM = re.compile(r"(\d+)\s*(?:-\s*(\d+))?", re.ASCII)


def _port_number(digits: str) -> int:
    """The number ``digits`` spell, or PORT_MAX + 1 for any larger one: a
    run longer than a port is never handed to ``int``, which CPython
    refuses beyond 4,300 digits unless that limit is raised."""
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= len(str(PORT_MAX)) else PORT_MAX + 1


def _parse_port_list(text: str) -> tuple[PortRange, ...]:
    """Parse ``--scan-ports``: comma-separated ports and ``LO-HI`` ranges."""
    ranges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        match = _PORT_ITEM.fullmatch(part)
        if match is None:
            raise _UsageError(f"bad scan port {part!r}: expected PORT or LO-HI")
        lo = _port_number(match.group(1))
        hi = _port_number(match.group(2)) if match.group(2) else lo
        if hi > PORT_MAX:
            raise _UsageError(f"bad scan port {part!r}: ports run {PORT_MIN}-{PORT_MAX}")
        if lo > hi:
            raise _UsageError(f"bad scan port {part!r}: range is reversed")
        ranges.append(PortRange(lo, hi))
    if not ranges:
        raise _UsageError(f"empty scan port list {text!r}")
    return tuple(ranges)


# The commands in help order: each one's help line and its options, an
# option being its flag and the keyword arguments of ``add_argument``.
# ``_read_command_line`` reads it too, and knows of those arguments only
# ``required``, ``default`` and ``action="store_true"``.
_COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...]]] = {
    "check": ("parse, validate, and formally check a policy", (
        ("--policy", {"required": True, "help": "policy file (.policyml)"}),
        ("--topology", {"required": True, "help": "network topology (GraphML)"}),
        ("--best-practice", {"help": "best-practice bounds (.policyml)"}),
        ("--emit-alloy", {"help": "write a relational model export to this file"}),
    )),
    "compile": ("compile a checked policy to device configs", (
        ("--policy", {"required": True}),
        ("--topology", {"required": True}),
        ("--out", {"required": True, "help": "output directory"}),
        ("--best-practice", {}),
        ("--ospf", {"action": "store_true",
                    "help": "permit OSPF neighbour multicast on every interface"}),
        ("--emit-alloy", {"action": "store_true",
                          "help": "also write policy.als into the output directory"}),
        ("--templates", {"help": "override the device template directory"}),
    )),
    "simulate": ("vet a compiled directory in the simulator", (
        ("--out", {"required": True, "help": "compile output directory"}),
        ("--scan-ports", {"help": "negative-vetting ports, e.g. 0-1023,8080 "
                                  "(default: 0-1023 plus every declared port)"}),
    )),
    "graph": ("export Zone-Firewall and Zone-Conduit graphs", (
        ("--topology", {"required": True}),
        ("--out", {"required": True, "help": "output directory"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``forestfw`` parser: the top level and all four commands."""
    parser = argparse.ArgumentParser(
        prog="forestfw",
        description="Compile and verify topology-independent firewall policy.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            command_parser.add_argument(flag, **kwargs)
        # looked up on each build, so a cmd_* replaced on this module is the one run
        command_parser.set_defaults(func=globals()[f"cmd_{name}"])
    return parser


def _read_command_line(argv: list[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser`` gives a well-formed command line
    (see the module docstring), read from ``_COMMANDS`` without building
    a parser; None for any other line.  As in argparse, a repeated
    option keeps its last value."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    name = argv[0]
    options = dict(_COMMANDS[name][1])
    given: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        kwargs = options.get(argv[i])
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            given[argv[i]] = True
            i += 1
        elif i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            given[argv[i]] = argv[i + 1]
            i += 2
        else:
            return None
    if any(kwargs.get("required") and flag not in given for flag, kwargs in options.items()):
        return None
    args = argparse.Namespace(command=name, func=globals()[f"cmd_{name}"])
    for flag, kwargs in options.items():
        default = False if kwargs.get("action") == "store_true" else kwargs.get("default")
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_command_line(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, InputError) as exc:
        print(f"forestfw: {exc}", file=sys.stderr)
        return USAGE
    except CompileError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return FINDINGS
    except PolicyError as exc:
        print(exc, file=sys.stderr)
        return FINDINGS


if __name__ == "__main__":
    sys.exit(main())
