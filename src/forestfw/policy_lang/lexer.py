"""Tokenizer for the policy language.

Comments run from ``//`` to end of line.  String literals accept plain
double quotes and the typographic ````...''`` form; both are stored
normalized (unquoted).  Numbers are runs of ASCII digits; any other digit
is a lexical error, since it would not read back as a port.

The source is scanned once by one compiled regular expression whose
alternatives are the token classes.  Lines and columns (1-based, one
column per character) come from the offsets of the newlines passed.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from forestfw.diagnostics import PolicyError

KEYWORDS = frozenset(
    {
        "import",
        "load_zone_conduit_model",
        "service",
        "service_group",
        "port_group",
        "zone_group",
        "policy_rule",
        "rule_group",
        "reporting_rule",
        "policy",
    }
)


class Token(NamedTuple):
    kind: str  # "kw", "ident", "int", "string", "punct", "eof"
    value: str
    line: int
    col: int

    def __repr__(self) -> str:  # compact in parser error traces
        return f"{self.kind}:{self.value!r}@{self.line}:{self.col}"


# One match per token, its leading blanks included, or per newline.
# Alternatives are tried in order; ``\w`` is exactly ``str.isalnum`` plus
# ``_``, and ``[^\W\d]`` also admits the numeric characters that are not
# letters, which ``tokenize`` rejects.  Blanks that end the text match
# nothing and are skipped.
_SCAN = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<newline>\n)
    | (?P<comment>//[^\n]*)
    | (?P<string>"[^"\n]*")
    | (?P<typographic>``(?:[^'\n]|'(?!'))*'')
    | (?P<open>"|``)
    | (?P<int>[0-9]+)
    | (?P<word>[^\W\d]\w*)
    | (?P<punct><->|->|[{};,:=.^\\-])
    | (?P<other>[^ \t\r])
    )
    """,
    re.VERBOSE,
)


def _bad_character(ch: str, file: str, line: int, col: int) -> PolicyError:
    if ch.isdigit():
        return PolicyError(f"non-ASCII digit {ch!r} in a number", file, line, col)
    return PolicyError(f"unexpected character {ch!r}", file, line, col)


def tokenize(text: str, file: str = "<policy>") -> list[Token]:
    """Tokenize policy source, attaching line/column to every token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # offset of the current line's first character
    for match in _SCAN.finditer(text):
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        value = match.group(kind)
        col = match.start(kind) - line_start + 1
        if kind == "word":
            if not (value[0].isalpha() or value[0] == "_"):
                raise _bad_character(value[0], file, line, col)
            append(Token("kw" if value in KEYWORDS else "ident", value, line, col))
        elif kind == "punct":
            append(Token("punct", value, line, col))
        elif kind == "int":
            end = match.end()
            if end < len(text) and text[end].isdigit():
                raise _bad_character(text[end], file, line, col)
            append(Token("int", value, line, col))
        elif kind == "string":
            append(Token("string", value[1:-1], line, col))
        elif kind == "typographic":
            append(Token("string", value[2:-2], line, col))
        elif kind == "open":
            raise PolicyError("unterminated string", file, line, col)
        elif kind == "other":
            raise _bad_character(value, file, line, col)
        # comments produce no token
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens
