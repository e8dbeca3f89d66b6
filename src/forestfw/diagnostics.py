"""Diagnostics shared by the parser, validator, and compiler.

Diagnostics print as ``<file>:<line>:<col>: <severity>: <message>`` so
editors and humans can jump straight to the offending declaration.
:func:`read_text` is the one reader of input text: policies,
best-practice files, libraries, topologies, declared models, device
templates, manifests, neutral ACL files and topology copies.  A file it
cannot read, or whose bytes are not UTF-8, gets such a diagnostic too.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    message: str
    file: str = "<policy>"
    line: int = 0
    col: int = 0

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: {self.severity}: {self.message}"

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


class PolicyError(Exception):
    """Raised for unrecoverable problems (lexical, parse, compile)."""

    def __init__(self, message: str, file: str = "<policy>", line: int = 0, col: int = 0):
        super().__init__(f"{file}:{line}:{col}: error: {message}")
        self.diagnostic = Diagnostic("error", message, file, line, col)


class InputError(PolicyError):
    """An input file that cannot be read as its format: a topology that
    is not GraphML, a manifest or neutral ACL file that does not parse;
    or an output path that cannot be written.  The command line reports
    it as a usage/IO error."""


class CompileError(Exception):
    """Compilation aborted; carries every diagnostic gathered so far."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics) or "compilation failed")


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diags)


def read_text(path: Path) -> str:
    """The UTF-8 text of the file ``path``, its newlines read as in text
    mode.  A file that cannot be read raises an :class:`InputError`
    naming it; bytes that are not UTF-8 raise one at the line and column
    of the first bad byte."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read: {exc.strerror or exc}", str(path)) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _newlines(data[:exc.start].decode("utf-8")).split("\n")
        raise InputError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                         str(path), len(before), len(before[-1]) + 1) from None
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")
