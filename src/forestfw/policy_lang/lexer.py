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
# Alternatives are tried in order, the most frequent first; no two of them
# match at the same character, except that a string or typographic
# string is tried before the bare opening quote.  ``\w`` is exactly
# ``str.isalnum`` plus ``_``, and ``[^\W\d]`` also admits the numeric
# characters that are not letters, which ``tokenize`` rejects.  Blanks
# that end the text match nothing and are skipped.
_SCAN = re.compile(
    r"""
    [ \t\r]*
    (?:
      (?P<word>[^\W\d]\w*)
    | (?P<punct><->|->|[{};,:=.^\\-])
    | (?P<int>[0-9]+)
    | (?P<newline>\n)
    | (?P<string>"[^"\n]*")
    | (?P<comment>//[^\n]*)
    | (?P<typographic>``(?:[^'\n]|'(?!'))*'')
    | (?P<open>"|``)
    | (?P<other>[^ \t\r])
    )
    """,
    re.VERBOSE,
)

# a Token built without the NamedTuple's Python-level constructor
_new = tuple.__new__


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
        if kind == "word":
            value = match["word"]
            col = match.start("word") - line_start + 1
            first = value[0]
            if not (first.isalpha() or first == "_"):
                raise _bad_character(first, file, line, col)
            append(_new(Token, ("kw" if value in KEYWORDS else "ident", value, line, col)))
        elif kind == "punct":
            append(_new(Token, ("punct", match["punct"], line,
                                match.start("punct") - line_start + 1)))
        elif kind == "int":
            col = match.start("int") - line_start + 1
            end = match.end()
            if end < len(text) and text[end].isdigit():
                raise _bad_character(text[end], file, line, col)
            append(_new(Token, ("int", match["int"], line, col)))
        elif kind == "newline":
            line += 1
            line_start = match.end()
        elif kind != "comment":  # comments produce no token
            value = match[kind]
            col = match.start(kind) - line_start + 1
            if kind == "string":
                append(_new(Token, ("string", value[1:-1], line, col)))
            elif kind == "typographic":
                append(_new(Token, ("string", value[2:-2], line, col)))
            elif kind == "open":
                raise PolicyError("unterminated string", file, line, col)
            else:
                raise _bad_character(value, file, line, col)
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens
