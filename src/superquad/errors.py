"""Exception types and check-result values.

Verification predicates report failures as :class:`Violation` values (these
are user-facing data, not internal asserts); constructors and operations with
hard preconditions raise the exception types below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


def format_residual(value) -> str:
    """Compact rendering of scalars, vectors and matrices of rationals."""
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(format_residual(v) for v in value) + ")"
    if isinstance(value, Fraction):
        return str(value)
    return repr(value) if not isinstance(value, (int, str)) else str(value)


@dataclass(frozen=True)
class Violation:
    """A single failed identity with its first witness.

    ``equation`` is a stable identifier ("jacobi", "super-skew", "deh1", ...),
    ``indices`` are the basis indices of the witnessing tuple and ``residual``
    is the nonzero value the identity left behind.
    """

    equation: str
    indices: tuple = ()
    residual: object = None
    detail: str = ""

    def __str__(self) -> str:
        parts = [self.equation]
        if self.indices:
            parts.append("at " + ",".join(str(i) for i in self.indices))
        if self.residual is not None:
            parts.append(f"residual {format_residual(self.residual)}")
        if self.detail:
            parts.append(self.detail)
        return " ".join(parts)


class SuperquadError(Exception):
    """Base class for all errors raised by this package."""


class NotHomogeneous(SuperquadError):
    """A bilinear form or map is neither even nor odd."""


class ValidationError(SuperquadError):
    """A structure failed one of its defining axioms."""

    def __init__(self, violations, message: str = ""):
        if isinstance(violations, Violation):
            violations = [violations]
        self.violations = list(violations)
        text = message or "; ".join(str(v) for v in self.violations)
        super().__init__(text)


class InvalidContext(ValidationError):
    """A double-extension context failed its axioms."""


class ClaimViolated(ValidationError):
    """A decomposition step contradicted the ideal hypotheses."""

    def __init__(self, claim: str, violations=(), message: str = ""):
        self.claim = claim
        super().__init__(violations, message or claim)


class DegenerateInput(SuperquadError):
    """Dual-vector extraction hit a degenerate restriction."""


class DegeneratePairing(SuperquadError):
    """The pairing between an ideal and its complement is singular."""


@dataclass
class ParseError(SuperquadError):
    """A document could not be parsed; carries the offending location. A
    file read or written names its path first, in place of ``input``."""

    message: str
    line: int = 0
    field_name: str = field(default="")
    path: str = ""

    def __str__(self) -> str:
        loc = f"line {self.line}" if self.line else "" if self.path else "input"
        if self.field_name:
            loc = ", ".join(filter(None, (loc, f"field {self.field_name}")))
        return ": ".join(filter(None, (self.path, loc, self.message)))
