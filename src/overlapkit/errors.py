"""Error taxonomy shared across the toolkit.

Three families map onto the CLI exit codes: invalid input (1), resource
ceilings (2), and internal consistency failures (3). A code-3 error means a
structural fact the machinery relies on failed to hold; it signals a bug,
never bad user input.
"""

from __future__ import annotations

from typing import Any


class OverlapKitError(Exception):
    """Base class; ``details`` carries structured context for error reports."""

    exit_code = 1

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.details = details

    def to_json(self) -> dict:
        return {
            "error": type(self).__name__,
            "message": str(self),
            # every detail is one value: JSON scalars stay, the rest (a Fraction) prints as str
            "details": {
                key: value if value is None or isinstance(value, (int, float, str)) else str(value)
                for key, value in self.details.items()
            },
        }


class InputError(OverlapKitError):
    exit_code = 1


class ResourceLimitError(OverlapKitError):
    exit_code = 2


class ConsistencyError(OverlapKitError):
    exit_code = 3


class WorkBudget:
    """One call's work ceiling: charge(units, **details) adds units to `spent`
    and, once `spent` passes `ceiling`, raises error(message, ceiling=ceiling,
    **details), error a ResourceLimitError class (that class by default)."""

    def __init__(
        self, ceiling: int, message: str, error: type[ResourceLimitError] = ResourceLimitError
    ):
        self.ceiling = ceiling
        self.message = message
        self.error = error
        self.spent = 0

    def __call__(self, units: int, **details: Any) -> None:
        self.spent += units
        if self.spent > self.ceiling:
            raise self.error(self.message, ceiling=self.ceiling, **details)


class InvalidArgument(InputError):
    pass


class NonPositiveDiscriminant(InputError):
    pass


class PolySyntaxError(InputError):
    def __init__(self, message: str, position: int, **details: Any):
        super().__init__(message, position=position, **details)
        self.position = position


class UnsupportedExponent(PolySyntaxError):
    pass


class DivisorZero(InputError):
    pass


class NotMonotone(InputError):
    pass


class BadBoundary(InputError):
    pass


class InvalidStep(InputError):
    def __init__(self, message: str, index: int, **details: Any):
        super().__init__(message, index=index, **details)
        self.index = index


class NotInClass(InputError):
    pass


class Infeasible(InputError):
    pass


class VertexExplosion(ResourceLimitError):
    pass


class TooDeep(ResourceLimitError):
    pass


class DegenerateFit(InputError):
    pass
