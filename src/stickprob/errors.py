"""Exception types shared across the package, and the domain rules that
more than one module enforces."""

import re
from fractions import Fraction

# the longest truncation point text, and its largest decimal exponent:
# Fraction("1e-999999") alone is slow, and its denominator unprintable
_LITERAL_LIMIT = 4000


class SticksError(Exception):
    """Base class for all stickprob errors."""


class DomainError(SticksError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class UnsupportedFormulaError(SticksError):
    """No closed form is known; the caller should fall back to Monte Carlo."""


class ResourceLimitError(SticksError):
    """A computation was refused because it would exceed its size guard."""


def require_int(name: str, value: object) -> None:
    """Reject a value that is not a plain int: a float, Fraction or numpy
    integer would run the exact formulas on the wrong arithmetic, and a bool
    is no count."""
    if type(value) is not int:
        raise DomainError(f"{name} must be an int, got {value!r}")


def require_p(p: int) -> None:
    """Reject p < 2: a polygon has at least p + 1 = 3 sides, and the p-step
    Fibonacci recurrence needs at least two terms."""
    require_int("polygon parameter p", p)
    if p < 2:
        raise DomainError(f"polygon parameter p must be >= 2, got {p}")


def require_n(n: int) -> None:
    """Reject n < 1: there is no stick to draw."""
    require_int("stick count n", n)
    if n < 1:
        raise DomainError(f"stick count n must be >= 1, got {n}")


def require_subset(p: int, n: int) -> None:
    """Reject a bad p, or n < p + 1: no p + 1 of the n sticks to choose."""
    require_p(p)
    require_int("stick count n", n)
    if n < p + 1:
        raise DomainError(f"stick count n must be >= p + 1 = {p + 1}, got {n}")


def require_truncation(a: "Fraction | int | str") -> Fraction:
    """The truncation point a as a Fraction; DomainError unless a rational in
    [0, 1), and ResourceLimitError for text past ``_LITERAL_LIMIT``."""
    if isinstance(a, str):
        exponent = re.search(r"[eE][-+]?([\d_]*)", a)
        # five digits past the leading zeros already exceed the limit
        digits = exponent[1].replace("_", "").lstrip("0")[:5] if exponent else ""
        if len(a) > _LITERAL_LIMIT or int(digits or 0) > _LITERAL_LIMIT:
            raise ResourceLimitError(
                f"truncation point a must be text of at most {_LITERAL_LIMIT} characters, "
                f"with a decimal exponent of at most {_LITERAL_LIMIT}")
    try:
        a = Fraction(a)
    except (TypeError, ValueError, ArithmeticError) as exc:  # None, "abc", nan, inf
        raise DomainError(f"truncation point a must be rational, got {a!r}") from exc
    if not 0 <= a < 1:
        try:
            shown = str(a)
        except ValueError:  # past the interpreter's int->str digit limit
            shown = (f"a rational too long to print ({a.numerator.bit_length()}-bit "
                     f"numerator, {a.denominator.bit_length()}-bit denominator)")
        raise DomainError(f"truncation point a must be in [0, 1), got {shown}")
    return a
