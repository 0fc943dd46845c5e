"""Shared error types.

Every error raised by the library derives from QitError so callers can
catch the whole family; the CLI maps them to exit code 1 diagnostics.
"""

from __future__ import annotations


class QitError(Exception):
    pass


class UnknownOp(QitError):
    pass


class ArityMismatch(QitError):
    pass


class UnboundVariable(QitError):
    pass


class PartialAlgebra(QitError):
    pass


class InfeasibleExhaustive(QitError):
    pass


class InfinitaryArity(QitError):
    pass


class NameClash(QitError):
    pass


class NotSatisfying(QitError):
    """An algebra violates an equation; carries the satisfaction report."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CoherenceFailure(QitError):
    """Eliminator steps disagree on an equation instance; carries a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class FunctorialityViolation(QitError):
    pass


class StageOverflow(QitError):
    """No stage of the size universe is strictly above the one required."""


class NotStabilized(QitError):
    """The staged quotient still distinguishes terms the oracle identifies."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedParameterType(QitError):
    pass


class ParseError(QitError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
