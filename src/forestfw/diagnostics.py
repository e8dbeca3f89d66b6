"""Diagnostics shared by the parser, validator, and compiler.

Diagnostics print as ``<file>:<line>:<col>: <severity>: <message>`` so
editors and humans can jump straight to the offending declaration.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Diagnostic:
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
