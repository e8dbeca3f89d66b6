"""Expansion of the global policy into flat inter-zone flows."""

from __future__ import annotations

from forestfw.diagnostics import PolicyError
from forestfw.policy_lang.syntax import FlowRule, PolicySpec


def expand_rules(spec: PolicySpec) -> list[FlowRule]:
    """Expand every rule of the global policy's rule group into FlowRules.

    Zone groups expand to their member zones (cross product), ``<->`` to
    both directions, and service groups to one flow per member service.
    Output order is deterministic: rule declaration order, then
    lexicographic within a rule.  Only permit flows exist; there is
    nothing here a deny could come from.
    """
    if spec.global_policy is None:
        raise PolicyError("policy has no global policy object", spec.file)
    rule_names = spec.rule_groups[spec.global_policy.rule_group]

    flows: list[FlowRule] = []
    for rule_name in rule_names:
        rule = spec.rules[rule_name]
        left = sorted(spec.zone_set(rule.left))
        right = sorted(spec.zone_set(rule.right))
        if not left or not right:
            raise PolicyError(f"rule {rule_name!r} references an empty zone group",
                              *spec.position_of(rule_name))
        if not rule.services:
            raise PolicyError(f"rule {rule_name!r} has an empty service set",
                              *spec.position_of(rule_name))
        directions = [(left, right, rule.left, rule.right)]
        if rule.operator == "<->":
            directions.append((right, left, rule.right, rule.left))
        for src_zones, dst_zones, src_ref, dst_ref in directions:
            for src in src_zones:
                for dst in dst_zones:
                    if src == dst:
                        raise PolicyError(
                            f"rule {rule_name!r} expands to a flow from zone "
                            f"{src!r} to itself", *spec.position_of(rule_name))
                    for svc in rule.services:  # ServiceSet iterates name-sorted
                        flows.append(FlowRule(rule_name, src, dst, svc, src_ref, dst_ref))
    return flows
