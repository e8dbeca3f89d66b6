"""Record semantics: plain records are immutable and compare by value;
only the classes a tuple cannot model are dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import forestfw
from forestfw import canonical, checker, diagnostics, header_space, netgen, render, sim, topo_model
from forestfw.policy_lang import syntax

RECORDS = [
    sim.TraceHop, sim.InjectResult, sim.VetResult, sim.Leak, sim.ScanSpec,
    header_space.Packet,
    netgen.AclRule, netgen.Acl, netgen.InterfaceAssignment,
    syntax.FlowRule, syntax.SetExpr, syntax.ServiceGroup, syntax.PortGroup,
    syntax.ZoneGroup, syntax.HighLevelRule, syntax.ReportingRule,
    topo_model.Device, topo_model.Link, topo_model.Zone, topo_model.Conduit,
    topo_model.ModelMismatch,
    checker.OverlapWitness, checker.OverlapReport,
    canonical.CanonicalSlice, canonical.BestPractice, canonical.Violation,
    render.LocMetrics,
    diagnostics.Diagnostic,
]

# the classes that need what a tuple cannot give: values of distinct
# types that must not compare equal, identity equality, or mutable state
DATACLASSES = {
    "Value", "VInt", "VRange", "VName", "VString", "VList", "VBlock",
    "DeviceTemplate", "PolicySpec", "Topology", "ZoneConduitModel", "ZoneFirewallModel",
    "CompileOptions", "NetworkPolicy", "SimNetwork",
}

PROVENANCE = {"origin_rule": "r", "origin_service": "s", "service_comment": "c",
              "flow_dir": "return"}


def build(cls, tag: str = "a"):
    """An instance of ``cls`` with every parameter set to a tagged placeholder."""
    return cls(**{name: f"{tag}.{name}" for name in inspect.signature(cls).parameters})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable_and_compares_by_value(cls):
    record = build(cls)
    for name in inspect.signature(cls).parameters:
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
        assert getattr(record, name) == f"a.{name}"
    twin = build(cls)
    assert twin == record and not twin != record and hash(twin) == hash(record)
    other = build(cls, "b")
    assert other != record and not other == record
    assert repr(record).startswith(f"{cls.__name__}(")
    if cls is netgen.AclRule:
        # the provenance fields record where a rule came from, not what it does
        for name, value in PROVENANCE.items():
            moved = record._replace(**{name: value})
            assert moved == record and not moved != record and hash(moved) == hash(record)
        assert {record, record._replace(**PROVENANCE)} == {record}
        assert record._replace(comment="other") != record
        assert record.match_key() == tuple(getattr(record, name) for name in (
            "action", "protocol", "src", "dst", "sport", "dport", "state", "log"))


def test_dataclasses_are_only_the_records_a_tuple_cannot_be():
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(forestfw.__path__, "forestfw.")]
    found = {name for module in modules for name, value in vars(module).items()
             if inspect.isclass(value) and value.__module__ == module.__name__
             and dataclasses.is_dataclass(value)}
    assert found == DATACLASSES
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


def test_service_is_a_tuple_record_with_its_key_derived_at_construction():
    """``Service`` is a tuple of its six fields, none settable, plus the
    value key normalized when it is built, by ``_replace`` too."""
    Service, PortRange = syntax.Service, syntax.PortRange
    svc = Service("s", 6, (PortRange(90, 99), PortRange(80, 89)), comment="c")
    assert isinstance(svc, tuple) and len(svc) == 6
    for name in (*svc._fields, "_value_key", "other"):
        with pytest.raises(AttributeError):
            setattr(svc, name, "other")
        if name != "other":
            with pytest.raises(AttributeError):
                delattr(svc, name)
    assert svc.value_key() == (6, (PortRange(80, 99),), (), ())
    twin = Service(*svc)
    assert twin == svc and hash(twin) == hash(svc) and twin.value_key() == svc.value_key()
    moved = svc._replace(source_ports=(PortRange(1, 1),))
    assert moved.value_key() == (6, (PortRange(1, 1),), (), ())
    renamed = svc._replace(comment="d")
    assert renamed != svc and renamed.value_key() == svc.value_key()
