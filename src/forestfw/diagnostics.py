"""Diagnostics shared by the parser, validator, and compiler.

Diagnostics print as ``<file>:<line>:<col>: <severity>: <message>`` so
editors and humans can jump straight to the offending declaration.
:func:`read_text` reads policies, libraries, topologies, manifests and
neutral ACL files, so that bytes that are not UTF-8 get such a
diagnostic too.
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
    is not GraphML, a manifest or neutral ACL file that does not parse.
    The command line reports it as a usage/IO error."""


class CompileError(Exception):
    """Compilation aborted; carries every diagnostic gathered so far."""

    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics) or "compilation failed")


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diags)


def read_text(path: Path) -> str:
    """The UTF-8 text of the file ``path``, its newlines read as in text
    mode.  An ``OSError`` propagates; bytes that are not UTF-8 raise an
    :class:`InputError` at the line and column of the first bad byte."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _newlines(data[:exc.start].decode("utf-8")).split("\n")
        raise InputError(f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
                         str(path), len(before), len(before[-1]) + 1) from None
    return _newlines(text)


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")
