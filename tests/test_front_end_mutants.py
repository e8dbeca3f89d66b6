"""Golden oracle for the policy front end: one single-token mutant per
token of the fixture policies, the best-practice fixture, the two
``system.services`` library files and ``tests/golden/overlaps.policyml``.

A mutant deletes, duplicates or replaces its token (replacements from a
fixed list), chosen by a seeded generator.  Each one is recorded as one
line: the first :class:`PolicyError`, or ``ok`` and a short hash of the
pretty-printed spec, the validator's diagnostics, every service's fields
and the expansion.  A library mutant is imported by the fixed plant
policy.  The golden file holds every diagnostic, with its file, line and
column, that the front end gives on these inputs, so a rewrite of the
parser or resolver must reproduce it line for line.

Regenerate only for an intended change of a diagnostic:
``PYTHONPATH=src python tests/test_front_end_mutants.py``.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

from forestfw.diagnostics import PolicyError
from forestfw.policy_lang import expand_rules, parse_policy, validate_spec
from forestfw.policy_lang.lexer import Source, scan
from support import pretty_print

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "front_end_mutants.txt"
LIBRARY_ROOT = ROOT / "src" / "forestfw" / "policy_lang" / "library"
FILES = [
    "fixtures/scada_plant.policyml",
    "fixtures/scada_plant_fixed.policyml",
    "fixtures/bestpractice/scada_isa.policyml",
    "src/forestfw/policy_lang/library/system/services/iana_icmp.policyml",
    "src/forestfw/policy_lang/library/system/services/iana_services.policyml",
    "tests/golden/overlaps.policyml",
]
# the policy that imports a mutated library file
LIBRARY_HOST = "fixtures/scada_plant_fixed.policyml"
REPLACEMENTS = ("{", "}", ";", ",", ":", "=", ".", "->", "<->", "0", "99999", "x", '"s"')
SEED = 30


def _texts() -> dict[str, str]:
    return {label: (ROOT / label).read_text(encoding="utf-8") for label in FILES}


def _importer(texts: dict[str, str]):
    """Library names resolved to repository-relative labels, with the
    mutated text of a library file in ``texts``."""
    def resolve(dotted: str) -> tuple[str, str] | None:
        path = (LIBRARY_ROOT / Path(*dotted.split("."))).with_suffix(".policyml")
        if not path.is_file():
            return None
        label = path.relative_to(ROOT).as_posix()
        return label, texts[label] if label in texts else path.read_text(encoding="utf-8")
    return resolve


def _plain(ranges) -> tuple:
    return tuple(tuple(r) for r in ranges)


def outcome(texts: dict[str, str], main: str) -> str:
    """The first diagnostic of parsing ``main``, or ``ok`` and a hash of
    everything the front end made of it."""
    try:
        spec = parse_policy(texts[main], _importer(texts), file=main)
    except PolicyError as exc:
        return str(exc)
    parts = [pretty_print(spec), *map(str, validate_spec(spec))]
    for svc in spec.services.values():
        _, sports, dports, icmp = svc.value_key()
        parts.append(repr((svc.name, svc.protocol, _plain(svc.source_ports),
                           _plain(svc.dest_ports), _plain(svc.icmp_types), svc.comment,
                           _plain(sports), _plain(dports), _plain(icmp))))
    try:
        parts.extend(repr(f[:3] + (f.service.name, f.src_ref, f.dst_ref))
                     for f in expand_rules(spec))
    except PolicyError as exc:
        parts.append(str(exc))
    return "ok " + hashlib.sha256("\n".join(parts).encode()).hexdigest()[:12]


def mutant_lines() -> list[str]:
    rng = random.Random(SEED)
    texts = _texts()
    lines: list[str] = []
    for label in FILES:
        text = texts[label]
        source = Source(text, label)
        toks = scan(source)
        main = LIBRARY_HOST if label.startswith("src/") else label
        for k, tok in enumerate(toks[:-1]):  # not the end of text
            start = source.offset(k)
            end = start + len(tok)
            op = rng.choice(("delete", "duplicate", "replace"))
            if op == "delete":
                mutated = text[:start] + " " + text[end:]
            elif op == "duplicate":
                mutated = text[:end] + " " + tok + text[end:]
            else:
                new = rng.choice(REPLACEMENTS)
                op = f"replace {new}"
                mutated = text[:start] + " " + new + " " + text[end:]
            lines.append(f"{label} {k} {op}\t{outcome({**texts, label: mutated}, main)}")
    return lines


def test_front_end_mutants_match_the_golden_file():
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = mutant_lines()
    assert len(got) == len(want)
    diffs = [(w, g) for w, g in zip(want, got) if w != g]
    assert not diffs, f"{len(diffs)} mutants differ, first: {diffs[0]}"


def test_mutants_reach_every_kind_of_outcome():
    """The oracle is not vacuous: mutants parse clean, fail to parse, and
    fail in the resolver, in the main files and in the libraries."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    outcomes = [line.split("\t", 1)[1] for line in lines]
    assert sum(o.startswith("ok ") for o in outcomes) > 30
    assert any("expected" in o for o in outcomes)
    assert any("undeclared" in o for o in outcomes)
    assert any(o.startswith("src/forestfw/policy_lang/library/") for o in outcomes)


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(mutant_lines()) + "\n", encoding="utf-8")
