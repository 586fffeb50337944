"""Shared exception types."""

from __future__ import annotations


class CapExceededError(ValueError):
    """An operation was asked to enumerate past its configured cap."""


class ScopeError(ValueError):
    """An assignment does not cover the variables an operation needs."""


class NoViolationError(ValueError):
    """No clause is falsified; the formula is satisfied at this point."""


class SatisfiableError(ValueError):
    """A refutation was requested for a satisfiable formula.

    Carries the satisfying assignment in ``witness``.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SoundnessError(ValueError):
    """The input claimed to be a sound refutation is not one."""


class TextFormatError(ValueError):
    """A line-oriented text input failed to parse."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DimacsError(TextFormatError):
    pass


class ProofTextError(TextFormatError):
    pass


class CircuitTextError(TextFormatError):
    pass
