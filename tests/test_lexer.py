import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forestfw.policy_lang
from forestfw.diagnostics import PolicyError
from forestfw.policy_lang import (
    default_importer,
    expand_rules,
    parse_policy,
    validate_spec,
)
from forestfw.policy_lang.lexer import NewlineIndex
from conftest import FIXTURES
from support import (
    declaration_order,
    declaration_positions,
    generated_policy_sources,
    pretty_print,
    tokenize,
    tokenize_by_char,
)


def kinds_and_values(text):
    return [(t.kind, t.value) for t in tokenize(text) if t.kind != "eof"]


def test_zone_group_tokens():
    assert kinds_and_values("zone_group g { a, b }") == [
        ("kw", "zone_group"), ("ident", "g"), ("punct", "{"),
        ("ident", "a"), ("punct", ","), ("ident", "b"), ("punct", "}"),
    ]


def test_comment_dropped():
    tokens = kinds_and_values("// note\nservice s {}")
    assert tokens == [("kw", "service"), ("ident", "s"), ("punct", "{"), ("punct", "}")]


def test_attribute_assignment_tokens():
    assert kinds_and_values("tcp.dest_port=8080;") == [
        ("ident", "tcp"), ("punct", "."), ("ident", "dest_port"),
        ("punct", "="), ("int", "8080"), ("punct", ";"),
    ]


def test_arrow_operators():
    assert kinds_and_values("a -> b") == [("ident", "a"), ("punct", "->"), ("ident", "b")]
    assert kinds_and_values("a <-> b") == [("ident", "a"), ("punct", "<->"), ("ident", "b")]


def test_string_forms_normalized():
    plain = tokenize('comment="Internal Web";')
    typographic = tokenize("comment=``Internal Web'';")
    assert plain[2].value == typographic[2].value == "Internal Web"


def test_positions_attached():
    text = "service s {\n  protocol=tcp;\n}"
    protocol = next(t for t in tokenize(text) if t.value == "protocol")
    assert protocol.offset == 14
    assert NewlineIndex(text).line_col(protocol.offset) == (2, 3)


def test_lexical_error_has_position():
    with pytest.raises(PolicyError) as err:
        tokenize("service $bad {}")
    assert "unexpected character" in str(err.value)
    assert ":1:9:" in str(err.value)


def test_unterminated_string():
    with pytest.raises(PolicyError, match="unterminated string"):
        tokenize('comment="oops')


@pytest.mark.parametrize("text, col, digit", [
    ("port_group p { ² }", 16, "²"),
    ("port_group p { 1-³ }", 18, "³"),
    ("port_group p { 12٣ }", 16, "٣"),
    ("port_group p { ١٢ }", 16, "١"),
])
def test_non_ascii_digit_is_a_lexical_error(text, col, digit):
    with pytest.raises(PolicyError) as err:
        tokenize(text, "p.policyml")
    assert str(err.value) == f"p.policyml:1:{col}: error: non-ASCII digit {digit!r} in a number"
    with pytest.raises(PolicyError) as err:
        parse_policy(text, file="p.policyml")
    assert err.value.diagnostic.col == col


def test_numeric_letters_stay_inside_names():
    # str.isalnum accepts them after the first character of a name
    assert kinds_and_values("a² b½") == [("ident", "a²"), ("ident", "b½")]
    with pytest.raises(PolicyError, match=r"1:1: error: unexpected character '½'"):
        tokenize("½")


# ---------------------------------------------------------------------------
# the character-at-a-time tokenizer (tests/support.py) as oracle

def outcome(text):
    """The tokens, each with the line and column of its offset, or the error."""
    lines = NewlineIndex(text)
    try:
        return [(t.kind, t.value, *lines.line_col(t.offset))
                for t in tokenize(text, "t.policyml")]
    except PolicyError as err:
        d = err.diagnostic
        return ("error", d.message, d.line, d.col)


def oracle_outcome(text):
    """The oracle's tokens or error; a number the oracle reads with a
    non-ASCII digit must instead be a lexical error at that number."""
    tokens, error = tokenize_by_char(text, "t.policyml")
    for tok in tokens:
        if tok.kind == "int" and not tok.value.isascii():
            digit = next(ch for ch in tok.value if not ch.isascii())
            return ("error", f"non-ASCII digit {digit!r} in a number", tok.line, tok.col)
    if error is not None:
        d = error.diagnostic
        return ("error", d.message, d.line, d.col)
    return [tuple(t) for t in tokens]


# the language's alphabet, with the multi-character forms whole
FRAGMENTS = (
    list("abz_AZ019 \t\r\n{}();,:=.^\\-<>\"'`/$#é") +
    ["``", "''", "//", "->", "<->", "\n\n", "  ", "service", "port_group", "import",
     "ß", "Ж", "²", "³", "١", "٣", "½", "Ⅻ", "\u00a0", "\x0c"]
)
policy_text = st.lists(st.sampled_from(FRAGMENTS), max_size=60).map("".join)

# declarations: a head, a few words and symbols, a closing brace
HEADS = (
    "import", "load_zone_conduit_model", "service s {", "service_group g {",
    "port_group p {", "zone_group g {", "policy_rule r { z1 -> z2 :", "rule_group rg {",
    "reporting_rule r {", "policy p {",
)
WORDS = (
    "s", "g", "z1", "protocol", "tcp", "icmp", "tcp.dest_port", "icmp.type", "comment",
    "granularity.network", "zone_or_group", "iana_services.http",
    "{", "}", ";", ",", ":", "=", ".", "^", "\\", "-", "->", '"a b"', "``c''", "// note\n",
    "0", "80", "65535", "70000", "1" * 5000, "²", "١", "1²",
)
declarations = st.lists(
    st.tuples(st.sampled_from(HEADS), st.lists(st.sampled_from(WORDS), max_size=8))
    .map(lambda decl: " ".join((decl[0], *decl[1], "}"))),
    max_size=6,
).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(policy_text)
def test_tokenize_agrees_with_character_oracle(text):
    assert outcome(text) == oracle_outcome(text)


def _policy_sources():
    library = Path(forestfw.policy_lang.__file__).parent / "library"
    sources = {str(p.relative_to(FIXTURES)): p.read_text(encoding="utf-8")
               for p in sorted(FIXTURES.rglob("*.policyml"))}
    sources.update({p.name: p.read_text(encoding="utf-8")
                    for p in sorted(library.rglob("*.policyml"))})
    sources.update(generated_policy_sources())
    return sources


POLICY_SOURCES = _policy_sources()


@pytest.mark.parametrize("name", sorted(POLICY_SOURCES))
def test_tokenize_agrees_with_character_oracle_on_real_policies(name):
    text = POLICY_SOURCES[name]
    tokens = outcome(text)
    assert isinstance(tokens, list) and len(tokens) > 10
    assert tokens == oracle_outcome(text)


@pytest.mark.parametrize("name", sorted(POLICY_SOURCES))
def test_warm_import_memo_parses_like_a_cold_one(name):
    text = POLICY_SOURCES[name]
    importer = default_importer(search_paths=(FIXTURES,))
    memo: dict = {}
    cold = parse_policy(text, importer, import_memo=memo)
    parsed = dict(memo)
    assert len(parsed) >= len(set(cold.imports))
    warm = parse_policy(text, importer, import_memo=memo)
    # every import was served from the memo, none parsed again
    assert memo.keys() == parsed.keys()
    assert all(memo[key] is raw for key, raw in parsed.items())
    assert pretty_print(warm) == pretty_print(cold)
    assert warm.services == cold.services
    assert declaration_positions(warm) == declaration_positions(cold)


def oracle_declaration_positions(text):
    """The oracle's line and column of each top-level declaration's name."""
    tokens, error = tokenize_by_char(text)
    assert error is None
    positions = {}
    depth = 0
    for tok, after in zip(tokens, tokens[1:]):
        if tok.kind == "punct" and tok.value in ("{", "}"):
            depth += 1 if tok.value == "{" else -1
        elif depth == 0 and tok.kind == "kw" and tok.value not in (
                "import", "load_zone_conduit_model"):
            positions[after.value] = (after.line, after.col)
    return positions


@pytest.mark.parametrize("name", sorted(POLICY_SOURCES))
def test_declaration_positions_agree_with_character_oracle(name):
    text = POLICY_SOURCES[name]
    importer = default_importer(search_paths=(FIXTURES,))
    spec = parse_policy(text, importer)
    expected = oracle_declaration_positions(text)
    assert [decl for _, decl in declaration_order(spec)] == list(expected)
    for dotted in spec.imports:
        prefix = dotted.rsplit(".", 1)[-1]
        _, library = importer(dotted)
        expected.update((f"{prefix}.{decl}", position)
                        for decl, position in oracle_declaration_positions(library).items())
    assert declaration_positions(spec) == expected


# a global policy over the rules named in its rule group
GLOBAL_POLICY = "rule_group g {{ {} }}\nreporting_rule rep {{ use_case=none; }}\npolicy pol {{ g; rep; }}\n"
IMPORTS_LIBRARY = "// the library\n\nimport mylib.svc;\n"
SELF_FLOW = ("zone_group a { z1 }\nservice web { protocol=tcp; tcp.dest_port=80; }\n"
             "   policy_rule r { z1 -> a : web }\n")


@pytest.mark.parametrize("main, library, check, want", [
    pytest.param("service s { protocol=tcp; }\n  service s { protocol=udp; }\n", "", None,
                 "p.policyml:2:11: error: duplicate declaration of 's'", id="duplicate"),
    pytest.param(IMPORTS_LIBRARY, "service s { protocol=tcp; }\n  service s { protocol=udp; }\n",
                 None, "mylib/svc.policyml:2:11: error: duplicate declaration of 'svc.s'",
                 id="duplicate_in_library"),
    pytest.param("\n\tservice web { protocol=tcp; tcp.dest_port=web_ports; }\n", "", None,
                 "p.policyml:2:10: error: undeclared port group 'web_ports'",
                 id="undeclared_port_group"),
    pytest.param(IMPORTS_LIBRARY, "\n\tservice web { protocol=tcp; tcp.dest_port=web_ports; }\n",
                 None, "mylib/svc.policyml:2:10: error: undeclared port group 'web_ports'",
                 id="undeclared_port_group_in_library"),
    pytest.param("zone_group a { z1 }\nservice web { protocol=tcp;\n  tcp.dest_port=70000; }\n", "",
                 validate_spec,
                 "p.policyml:2:9: error: port range 70000-70000 outside 0-65535 in service 'web'",
                 id="port_range"),
    pytest.param(IMPORTS_LIBRARY,
                 "// a port out of range\nservice web { protocol=tcp; tcp.dest_port=70000; }\n",
                 validate_spec, "mylib/svc.policyml:2:9: error: port range 70000-70000 outside "
                 "0-65535 in service 'svc.web'", id="port_range_in_library"),
    pytest.param(SELF_FLOW + GLOBAL_POLICY.format("r"), "", expand_rules,
                 "p.policyml:3:16: error: rule 'r' expands to a flow from zone 'z1' to itself",
                 id="self_flow"),
    pytest.param(IMPORTS_LIBRARY + GLOBAL_POLICY.format("svc.r"), SELF_FLOW, expand_rules,
                 "mylib/svc.policyml:3:16: error: rule 'svc.r' expands to a flow from zone 'z1' "
                 "to itself", id="self_flow_in_library"),
    pytest.param("service s { protocol=tcp; }\n import  no.such.lib;\n", "", None,
                 "p.policyml:2:10: error: unresolved import 'no.such.lib'", id="unresolved_import"),
    pytest.param(IMPORTS_LIBRARY, "service s { protocol=tcp; }\n import  no.such.lib;\n", None,
                 "mylib/svc.policyml:2:10: error: unresolved import 'no.such.lib'",
                 id="unresolved_import_in_library"),
])
def test_errors_after_parsing_name_the_declaring_file_and_position(main, library, check, want):
    """The first error of parsing ``main``, which may import the library
    ``mylib.svc``, and then of ``check`` on the spec: a diagnostic found
    after the parse names the file that declares the name, at its LINE:COL."""
    importer = {"mylib.svc": ("mylib/svc.policyml", library)}.get
    try:
        spec = parse_policy(main, importer, file="p.policyml")
        if check is validate_spec:
            error = str(validate_spec(spec)[0])
        elif check is expand_rules:
            expand_rules(spec)
    except PolicyError as err:
        error = str(err)
    assert error == want


@pytest.mark.parametrize("tail", [" ", "\t", "\n", "// c\n"],
                         ids=["spaces", "tabs", "blank_lines", "comment_lines"])
def test_scan_is_linear_in_trailing_blanks(tail):
    text = "service s { protocol=tcp; }" + tail * 200_000
    start = time.perf_counter()
    tokens = tokenize(text)
    assert time.perf_counter() - start < 1.0
    assert [t.value for t in tokens[-2:]] == ["}", ""]
    assert tokens[-1].offset == len(text)
    # a lexical error after the blanks is found as fast
    start = time.perf_counter()
    with pytest.raises(PolicyError, match="unexpected character '\\$'"):
        tokenize(text + "$")
    assert time.perf_counter() - start < 1.0


@settings(max_examples=1000, deadline=None)
@given(st.one_of(policy_text, declarations))
def test_no_text_raises_anything_but_policy_error(text):
    for parse in (tokenize, parse_policy):
        try:
            parse(text)
        except PolicyError:
            pass


@pytest.mark.parametrize("text", [
    pytest.param("reporting_rule r { a=" + "{" * 3000 + " }", id="nested_blocks"),
    pytest.param("port_group p { " + "1" * 5000 + " }", id="long_port"),
    pytest.param("service s { protocol=" + "9" * 5000 + "; }", id="long_protocol"),
    pytest.param("".join(f"zone_group g{i} {{ g{i + 1} }} " for i in range(400))
                 + "zone_group g400 { z1 }", id="nested_zone_groups"),
    pytest.param("service s { protocol=tcp; } "
                 + "".join(f"service_group g{i} {{ g{i + 1} }} " for i in range(400))
                 + "service_group g400 { s }", id="nested_service_groups"),
])
def test_pathological_input_is_a_policy_error(text):
    with pytest.raises(PolicyError) as err:
        parse_policy(text, file="p.policyml")
    assert err.value.diagnostic.line == 1
