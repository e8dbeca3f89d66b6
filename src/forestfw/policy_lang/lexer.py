"""Tokenizer for the policy language.

Comments run from ``//`` to end of line.  String literals accept plain
double quotes and the typographic ````...''`` form.  Numbers are runs of
ASCII digits; any other digit is a lexical error, since it would not read
back as a port.

:func:`scan` splits a source once, by one ``findall`` of one compiled
regular expression: each match is a run of blanks, newlines and comments,
then one token, and only the token's text is kept, quotes included, so
its first character tells its kind and the parser compares texts
directly.  Positions are derived from the :class:`Source` only for the
tokens a caller asks about, a diagnostic or a declaration's position:
matching again from the last token asked about gives a token's offset,
and a newline index turns an offset into a 1-based line and column (one
column per character).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate

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

# The first characters of the tokens that are not words: the end of the
# text, strings, numbers and punctuation.  Every other token is a word.
NOT_A_WORD = frozenset({"", '"', "`", *"0123456789", *"<-{};,:=.^\\"})
DIGITS = frozenset("0123456789")

# The token alternatives, tried in order, the most frequent first: words
# that start with an ASCII letter, punctuation, numbers, other words and
# strings.  ``\w`` is exactly ``str.isalnum`` plus ``_``, and ``[^\W\d]``
# also admits the numeric characters that are not letters, which ``scan``
# rejects.
_TOKENS = r"""
      [a-zA-Z_]\w*
    | [{};,:=.^\\]|->?|<->
    | [0-9]+
    | [^\W\d]\w*
    | "[^"\n]*"
    | ``(?:[^'\n]|'(?!'))*''
"""
# One match per token: the blanks, newlines and comments before it, then
# the token, the one group.  A character no token starts with makes the
# catch-all take the rest of the text, so a scan never restarts, and
# blanks that end the text match before the end of text: the scan is
# linear.
_SCAN = re.compile(r"(?:[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*)(" + _TOKENS + r"|(?s:.+)|\Z)",
                   re.VERBOSE)


class NewlineIndex:
    """The offsets at which a text's lines start."""

    def __init__(self, text: str):
        lines = text.split("\n")
        lines.pop()
        self.starts = [0, *accumulate(len(line) + 1 for line in lines)]

    def line_col(self, offset: int) -> tuple[int, int]:
        """The 1-based line and column of the character at ``offset``."""
        line = bisect_right(self.starts, offset)
        return line, offset - self.starts[line - 1] + 1


class Source:
    """A source file's label and text, which give a token's position
    when asked for: token ``k`` is the ``k``-th token :func:`scan`
    returns."""

    __slots__ = ("file", "text", "_mark", "_lines")

    def __init__(self, text: str, file: str = "<policy>"):
        self.file = file
        self.text = text
        self._mark = (0, 0)  # a token's index and the offset its match starts at
        self._lines: NewlineIndex | None = None

    def offset(self, k: int) -> int:
        """The offset of token ``k``; cheapest for increasing ``k``."""
        index, start = self._mark
        if k < index:
            index, start = 0, 0
        # the matches tile the text, so matching resumes at a match's start
        for match in _SCAN.finditer(self.text, start):
            if index == k:
                self._mark = (k, match.start())
                return match.start(1)
            index += 1
        raise IndexError(f"no token {k}")

    def line_col(self, k: int) -> tuple[int, int]:
        """The line and column of token ``k``."""
        if self._lines is None:
            self._lines = NewlineIndex(self.text)
        return self._lines.line_col(self.offset(k))

    def error(self, message: str, k: int) -> PolicyError:
        """A diagnostic at token ``k``."""
        return PolicyError(message, self.file, *self.line_col(k))


def scan(source: Source) -> list[str]:
    """The source's token texts, followed by the end of text, ``""``; a
    text that does not lex raises the :class:`PolicyError` of its first
    lexical error."""
    text = source.text
    tokens = _SCAN.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        # blanks at the end of the text match before the end itself
        tokens.pop()
    if not text.isascii():  # a word may start with a numeric non-letter
        for k, tok in enumerate(tokens):
            first = tok[:1]
            if not (first.isascii() or first.isalpha()):
                raise _bad_token(source, tokens, k)
    last = len(tokens) - 2
    if last >= 0 and re.match(_TOKENS, tokens[last], re.VERBOSE) is None:
        raise _bad_token(source, tokens, last)  # the catch-all took the rest
    return tokens


def _bad_token(source: Source, tokens: list[str], k: int) -> PolicyError:
    tok = tokens[k]
    first = tok[0]
    if first == '"' or tok.startswith("``"):
        return source.error("unterminated string", k)
    if first.isdigit():
        # reported at the number it continues, if any
        if k and tokens[k - 1][:1] in DIGITS and \
                source.offset(k - 1) + len(tokens[k - 1]) == source.offset(k):
            k -= 1
        return source.error(f"non-ASCII digit {first!r} in a number", k)
    return source.error(f"unexpected character {first!r}", k)


def kind_of(tok: str) -> str:
    """The kind of a scanned token's text."""
    first = tok[:1]
    if first not in NOT_A_WORD:
        return "kw" if tok in KEYWORDS else "ident"
    if not tok:
        return "eof"
    if first in DIGITS:
        return "int"
    if first == '"' or first == "`":
        return "string"
    return "punct"


def value_of(tok: str) -> str:
    """A scanned token's value: a string's text without its quotes."""
    first = tok[:1]
    if first == '"':
        return tok[1:-1]
    if first == "`":
        return tok[2:-2]
    return tok
