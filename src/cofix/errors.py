"""Exception types shared across the package."""

from __future__ import annotations


class CofixError(Exception):
    """Base class for all package errors.

    ``stage`` names the pipeline stage that raised the error.  It is set by
    the three- and four-mapping pipelines and stays ``None`` for standalone
    operations.
    """

    def __init__(self, message: str, *, stage: str | None = None):
        super().__init__(message)
        self.stage = stage

    def __str__(self) -> str:  # pragma: no cover - formatting only
        base = super().__str__()
        if self.stage:
            return f"[{self.stage}] {base}"
        return base


class DomainError(CofixError):
    """A point or argument lies outside the space it is used with."""


class SchemaError(CofixError):
    """A problem file or report dictionary violates the documented schema."""


class BoundViolation(CofixError):
    """Coefficient bounds are broken (negative entry or weight sum >= 1)."""


class ExhaustiveOnInfinite(DomainError):
    """Exhaustive enumeration was requested on a non-enumerable space."""


class RangeInclusionFailure(CofixError):
    """A required image inclusion fails; carries the escaping witness."""

    def __init__(self, message: str, *, witness=None, stage: str | None = None):
        super().__init__(message, stage=stage)
        self.witness = witness


class ConditionViolated(CofixError):
    """A contractive-condition check failed; carries the violation report."""

    def __init__(self, message: str, *, report=None, stage: str | None = None):
        super().__init__(message, stage=stage)
        self.report = report


class Infeasible(CofixError):
    """No valid coefficient tuple covers the supplied pairs."""

    def __init__(self, message: str, *, binding_pair=None, margin: float | None = None):
        super().__init__(message)
        self.binding_pair = binding_pair
        self.margin = margin


class NonInvertibleMapping(CofixError):
    """An affine mapping required to be injective has a singular linear part."""


class NonUniqueCoincidence(CofixError):
    """Exhaustive scanning found coincidence values that disagree."""


class LiftMismatch(CofixError):
    """Lifting a point of coincidence did not reproduce the same point."""


class LiftDisagreement(CofixError):
    """The two lifted points of a four-mapping run differ."""


class RepairFailure(CofixError):
    """Random-table repair could not reach a strictly positive metric."""


class PreconditionError(CofixError):
    """A documented operation precondition does not hold for the arguments."""
