"""Exception hierarchy shared across the package, and its number check.

The CLI maps these onto process exit codes: ValidationError -> 1,
BoundViolationError -> 2, NumericalError -> 3.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class BoundViolationError(RuntimeError):
    """An inequality that should hold analytically failed beyond tolerance."""


class NumericalError(RuntimeError):
    """A solver, truncation, or sampler could not certify its result."""


def as_real(value, what: str) -> float:
    """float(value) for a real number; ValidationError naming ``what`` otherwise.

    A str, bool or None is refused although float() takes some of them,
    so a JSON "1.5", true or null never reads as a number.
    """
    if value is None or isinstance(value, (str, bytes, bool)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None
