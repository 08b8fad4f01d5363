"""Exception taxonomy shared by every module, and the config section reader.

The CLI maps these onto exit codes: parameter/usage problems exit 1,
malformed or degenerate data exits 2, numerical failures exit 3.
"""

import math
import numbers


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


class UndefinedInputError(HsembedError):
    """A quantity is undefined for the given input, e.g. metrics of an
    empty confusion matrix."""


class ContractViolation(HsembedError):
    """A documented precondition was broken by the caller."""


class NumericalError(HsembedError):
    """A numerical computation failed or produced non-finite values."""


# int and float lead the isinstance tuples: they skip the slow ABC lookup
def is_integer(value: object) -> bool:
    """True for an integer; a bool is not one."""
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def is_finite_number(value: object) -> bool:
    """True for a finite real number; a bool is not one."""
    real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
    return real and math.isfinite(value)


def check_integer(value, name: str, least: int) -> None:
    """ParameterError unless ``value`` is an integer (not a bool) >= ``least``."""
    if not is_integer(value) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(value, name: str, positive: bool = True) -> None:
    """ParameterError unless ``value`` is a finite number (not a bool) that
    is > 0, or >= 0 when ``positive`` is false."""
    if not (is_finite_number(value) and (value > 0 if positive else value >= 0)):
        bound = "positive and finite" if positive else "finite and >= 0"
        raise ParameterError(f"{name} must be {bound}, got {value!r}")


# The kinds a config value may have: each names the noun of its message and its test.
POSITIVE = ("null or a positive number", lambda v: v is None or (is_finite_number(v) and v > 0))
SEED = ("a non-negative integer", lambda v: is_integer(v) and v >= 0)
_KINDS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", is_integer),
    float: ("a finite number", is_finite_number),
    str: ("a string", lambda v: isinstance(v, str)),
    dict: ("an object", lambda v: isinstance(v, dict)),
}


def read_section(obj: object, where: str, **kinds) -> dict:
    """The keys present in the JSON object ``obj``, each checked against its
    kind; an absent key is left out, so the dataclass it feeds keeps its default.

    A kind is ``bool``, ``int`` (a bool is not one), ``float`` (a finite
    number, read as a float), ``str``, ``dict`` (any object),
    ``POSITIVE``, ``SEED``, a (noun, test) pair, or a dict of kinds: a nested
    section, read the same way as ``{where} {key!r}``. An unknown key or a
    value of the wrong kind raises ParameterError naming the key and value.
    """
    if not isinstance(obj, dict):
        raise ParameterError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise ParameterError(
            f"unknown key {unknown[0]!r} in {where}; expected one of {sorted(kinds)}"
        )
    values = {}
    for key, value in obj.items():
        kind = kinds[key]
        noun, fits = _KINDS[dict] if isinstance(kind, dict) else _KINDS.get(kind, kind)
        if not fits(value):
            raise ParameterError(f"{where} key {key!r} must be {noun}, got {value!r}")
        if isinstance(kind, dict):
            value = read_section(value, f"{where} {key!r}", **kind)
        values[key] = float(value) if kind is float else value
    return values


class StageError(HsembedError):
    """Wraps an error raised inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
