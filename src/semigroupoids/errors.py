"""Error and report types shared across the package.

Validators raise :class:`ValidationError` with a machine-readable ``code``
and the smallest witness (under index order) of the violated axiom.
Checkers that merely report return :class:`Violation` values instead of
raising.  :class:`InternalInconsistencyError` is reserved for assertions
that can only fire on an implementation bug (proved facts used as free
self-checks).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """A single violated condition with its witness tuple."""

    code: str
    witness: tuple = ()

    def __str__(self) -> str:
        if self.witness:
            return f"{self.code}{self.witness!r}"
        return self.code


class SemigroupoidError(Exception):
    """Base class for all package errors."""


class _CodedError(SemigroupoidError):
    """An error carrying a violation code, its witness and a detail."""

    def __init__(self, code: str, witness: tuple = (), detail: str = ""):
        self.code = code
        self.witness = tuple(witness)
        self.detail = detail
        msg = str(Violation(code, self.witness))
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class ValidationError(_CodedError):
    """Raised when raw data fails a structural axiom."""


class ParseError(SemigroupoidError):
    """Raised on malformed input files or documents."""


class InternalInconsistencyError(_CodedError):
    """A theorem-backed invariant failed; signals a bug, not bad input."""
