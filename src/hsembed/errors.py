"""Exception taxonomy shared by every module, and the config key check.

The CLI maps these onto exit codes: parameter/usage problems exit 1,
malformed or degenerate data exits 2, numerical failures exit 3.
"""

from collections.abc import Iterable


class HsembedError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HsembedError):
    """An argument value is outside its documented domain."""


class FormatError(HsembedError):
    """A file or header is malformed or self-contradictory."""


class TruncationError(FormatError):
    """A binary payload does not match the size its header declares."""


class ShapeError(HsembedError):
    """Array dimensions do not match what an operation requires."""


class DegenerateDataError(HsembedError):
    """Data is structurally unusable, e.g. a class with no examples."""


class CapacityError(HsembedError):
    """A configured resource cap would be exceeded."""


class UndefinedInputError(HsembedError):
    """A quantity is undefined for the given input, e.g. metrics of an
    empty confusion matrix."""


class ContractViolation(HsembedError):
    """A documented precondition was broken by the caller."""


class NumericalError(HsembedError):
    """A numerical computation failed or produced non-finite values."""


def reject_unknown_keys(obj: object, allowed: Iterable[str], where: str) -> None:
    """Raise ParameterError unless ``obj`` is a JSON object whose keys are
    all in ``allowed``; the message names the first unknown key."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParameterError(
            f"unknown key {unknown[0]!r} in {where}; expected one of {sorted(allowed)}"
        )


class StageError(HsembedError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
