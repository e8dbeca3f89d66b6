"""The high-level policy language: lexer, parser, validator, expansion.

A ``.policyml`` file declares services, groups, inter-zone permit rules,
reporting rules, and one global policy object.  Parsing yields a fully
name-resolved :class:`~forestfw.policy_lang.syntax.PolicySpec`;
:func:`~forestfw.policy_lang.expand.expand_rules` turns it into the flat,
group-free set of permitted inter-zone flows that every later stage
consumes.
"""

from forestfw.policy_lang.expand import expand_rules
from forestfw.policy_lang.parser import default_importer, parse_policy
from forestfw.policy_lang.syntax import (
    FlowRule,
    HighLevelRule,
    PolicySpec,
    PortRange,
    ReportingRule,
    Service,
    ServiceSet,
    SetExpr,
    ZoneGroup,
)
from forestfw.policy_lang.validate import validate_spec

__all__ = [
    "FlowRule",
    "HighLevelRule",
    "PolicySpec",
    "PortRange",
    "ReportingRule",
    "Service",
    "ServiceSet",
    "SetExpr",
    "ZoneGroup",
    "default_importer",
    "expand_rules",
    "parse_policy",
    "validate_spec",
]
