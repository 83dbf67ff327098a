"""Closed-form polygon-formation probabilities, evaluated exactly.

Event shorthand used throughout: PN is the probability that no p+1 of the
n sticks form a (p+1)-gon, PA that every choice of p+1 does, PR that one
uniformly chosen subset of p+1 does.  Sampling models: pick-up sticks
(independent uniform lengths on [0, 1]), the same truncated to [a, 1],
independent exponential lengths, and the broken stick (a unit stick cut at
n-1 uniform positions).

Everything returns an ``ExactProb``, a ``Fraction`` that no constructor
lets out of [0, 1] or out of lowest terms.  The denominator formulas live
in ``constraints``; this module adds only the normalisers (1, n!, the
truncation scale) and one balanced product tree over the n factors
(``_product``), built once per evaluation.  Exponential PN reads the
broken-stick product.  ``closed_form`` is the one place that says which
evaluator serves which (event, model) pair.

Cross-route checks live in ``verify`` and the tests, which also run under
``python -O``.  The one ``assert`` left, in ``pn_pickup``, compares the
m-vector with the same tail-corrected formula over the step-Fibonacci
numbers, so it checks nothing and multiplies nothing; it stays only
because the benchmark's ``exact-raises`` mutation patches that line, as
its ``exact-value`` mutation patches the return line of ``pn_broken``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Union

from .constraints import _tail_corrected, m_constants, s_constants
from .errors import DomainError, ResourceLimitError, UnsupportedFormulaError
from .errors import require_int, require_n, require_p, require_truncation
from .sequences import fib

__all__ = [
    "ExactProb",
    "closed_form",
    "is_vacuous",
    "pn_pickup",
    "pn_pickup_truncated",
    "pn_broken",
    "pn_exponential",
    "pa_pickup",
    "pr_pickup",
]

RationalLike = Union[Fraction, int, str]

# a bound on rendering work, below CPython's default 4300-digit int->str
# limit; decimal() also refuses digits at or past the limit in force
MAX_DECIMAL_DIGITS = 4000


def _require_range(numerator: int, denominator: int) -> None:
    if denominator < 1:
        raise DomainError(f"denominator must be >= 1, got {denominator}")
    if not 0 <= numerator <= denominator:
        raise DomainError(f"{numerator}/{denominator} is not a probability")


class ExactProb(Fraction):
    """A ``Fraction`` in [0, 1]: every way to build one refuses a value out of
    range or lowest terms with ``DomainError``.  Arithmetic gives a ``Fraction``."""

    __slots__ = ()

    def __new__(cls, numerator: int, denominator: int) -> "ExactProb":
        require_int("numerator", numerator)
        require_int("denominator", denominator)
        _require_range(numerator, denominator)
        if gcd(numerator, denominator) != 1:
            raise DomainError(f"{numerator}/{denominator} is not in lowest terms")
        return super().__new__(cls, numerator, denominator)

    @classmethod
    def from_fraction(cls, value: Union[Fraction, int]) -> "ExactProb":
        """The probability ``value``.  A plain ``Fraction`` is in lowest terms
        already, so only its range is checked, and it is copied without a gcd;
        anything else, a subclass included, goes through the full check."""
        if type(value) is not Fraction:
            try:
                value = Fraction(value)
            except (TypeError, ValueError, ArithmeticError) as exc:  # None, "x", nan, inf
                raise DomainError(f"a probability must be rational, got {value!r}") from exc
            return cls(value.numerator, value.denominator)
        _require_range(value.numerator, value.denominator)
        return super().__new__(cls, value)

    # CPython 3.12's Fraction builds these two by a path that skips __new__
    from_float = from_decimal = from_fraction

    def __reduce__(self):
        # 3.10's Fraction pickles as its text, which __new__ does not read
        return type(self), (self.numerator, self.denominator)

    @property
    def fraction(self) -> Fraction:
        """The same value as a plain ``Fraction``, copied without a gcd."""
        return Fraction(self)

    def decimal(self, digits: int = 12) -> str:
        """Fixed-point decimal rendering, rounded half away from zero."""
        if type(digits) is not int:
            require_int("digits", digits)
        if digits < 0:
            raise DomainError(f"digits must be >= 0, got {digits}")
        if digits > MAX_DECIMAL_DIGITS:
            raise ResourceLimitError(
                f"digits must be <= {MAX_DECIMAL_DIGITS}, got {digits}"
            )
        # 0 means no limit, as on the 3.10 releases before 3.10.7 that lack it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and digits >= limit:
            raise ResourceLimitError(
                f"digits must be < {limit}, the interpreter's int->str digit "
                f"limit, got {digits}"
            )
        scaled, rem = divmod(self.numerator * 10**digits, self.denominator)
        if 2 * rem >= self.denominator:
            scaled += 1
        if digits == 0:
            return str(scaled)
        text = str(scaled).rjust(digits + 1, "0")
        return f"{text[:-digits]}.{text[-digits:]}"


def is_vacuous(p: int, n: int) -> bool:
    """True when no subset of p+1 sticks exists, so PN and PA hold trivially.

    The convention that both probabilities are 1 in this regime is a
    deliberate choice; callers that surface results should annotate it.
    """
    require_int("polygon parameter p", p)
    require_int("stick count n", n)
    return n <= p


def _product(values: Iterable[int]) -> int:
    """The product by a balanced tree, 1 if empty; a running product costs
    the square of the result's size.  The factors are sorted and the first
    level pairs the smallest with the largest: the m and s constants grow
    linearly in bits, so each such pair has about the same size, and every
    level after it, halving neighbours, multiplies operands of equal length.
    Pairing neighbours from the start would leave the top multiply at a
    quarter of the bits against three quarters."""
    level = sorted(values) or [1]
    half = len(level) // 2
    middle = level[half:len(level) - half]  # the median of an odd count
    level = [a * b for a, b in zip(level[:half], level[::-1])] + middle
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [a * b for a, b in zip(level[0::2], level[1::2])] + odd
    return level[0]


def _pn_pickup_step_fib(p: int, n: int) -> tuple[int, ...]:
    # the m-constant formula again, read off the step-Fibonacci numbers
    return _tail_corrected(fib, p, n, n)


def pn_pickup(p: int, n: int) -> ExactProb:
    """PN for n independent uniform [0, 1] lengths.

    Evaluated as the product of reciprocal bound denominators.  The
    ``assert`` compares the m-vector with the same formula over the same
    numbers and is no second route; it is kept only as the benchmark's
    ``exact-raises`` mutation anchor.  The product is taken before it, so
    a zero denominator raises ``ZeroDivisionError`` under ``python -O`` too.
    """
    require_p(p)
    require_n(n)
    if is_vacuous(p, n):
        return ExactProb(1, 1)
    result = m_constants(p, n)
    prob = ExactProb.from_fraction(Fraction(1, _product(result)))
    assert result == _pn_pickup_step_fib(p, n), "PN pickup routes disagree"
    return prob


def pn_pickup_truncated(p: int, n: int, a: RationalLike) -> ExactProb:
    """PN when the lengths are uniform on [a, 1] instead of [0, 1].

    The [0, 1] probability is rescaled by (1 - m_1 a)^n / (1 - a)^n; once a
    reaches the cap 1/m_1 on the shortest stick the event is impossible.
    """
    require_p(p)
    require_n(n)
    a = require_truncation(a)
    if is_vacuous(p, n):
        return ExactProb(1, 1)
    m = m_constants(p, n)
    if m[0] * a >= 1:
        return ExactProb(0, 1)
    scale = ((1 - m[0] * a) / (1 - a)) ** n
    return ExactProb.from_fraction(scale / _product(m))


def pn_broken(p: int, n: int) -> ExactProb:
    """PN for the n pieces of a unit stick broken at n-1 uniform positions:
    n! times the product of reciprocal broken-stick denominators."""
    require_p(p)
    require_n(n)
    if is_vacuous(p, n):
        return ExactProb(1, 1)
    den = _product(s_constants(p, n))
    return ExactProb.from_fraction(Fraction(factorial(n), den))


def pn_exponential(p: int, n: int) -> ExactProb:
    """PN for n independent exponential lengths.  The rate drops out, and
    integrating the tails stick by stick (``oracle.exponential_rates``)
    gives the broken-stick product exactly, so that value is returned."""
    return pn_broken(p, n)


def pa_pickup(p: int, n: int) -> ExactProb:
    """PA for n independent uniform [0, 1] lengths.

    Vacuously 1 for n <= p at every p.  Otherwise closed forms exist for
    triangles (1 / 2^(n-2)) and quadrilaterals
    (2 * ((2/3)^(n-3) - (1/2)^(n-2))) only; larger polygons with n > p have
    no known closed form and must go through the Monte Carlo estimator.
    """
    require_p(p)
    require_n(n)
    if is_vacuous(p, n):
        return ExactProb(1, 1)
    if p not in (2, 3):
        raise UnsupportedFormulaError(
            "no closed form for the all-subsets probability with p >= 4; "
            "fall back to the Monte Carlo estimator (simulate --event pa --model pickup)"
        )
    if p == 2:
        return ExactProb.from_fraction(Fraction(1, 2 ** (n - 2)))
    value = 2 * (Fraction(2, 3) ** (n - 3) - Fraction(1, 2) ** (n - 2))
    return ExactProb.from_fraction(value)


def pr_pickup(p: int) -> ExactProb:
    """PR for independent uniform [0, 1] lengths: 1 - 1/p!, independent of n.

    Conditioning on the chosen subset reduces the event to the n = p + 1
    case, whose PN is 1/p!.
    """
    require_p(p)
    return ExactProb.from_fraction(1 - Fraction(1, factorial(p)))


# (event, model) -> evaluator of (p, n, a); n is ignored by pr, a by every
# model but truncated.  The lambdas look the evaluators up as module
# globals at call time, so a wrapper rebound over one is honoured.
_CLOSED_FORMS = {
    ("pn", "pickup"): lambda p, n, a: pn_pickup(p, n),
    ("pn", "truncated"): lambda p, n, a: pn_pickup_truncated(p, n, a),
    ("pn", "exponential"): lambda p, n, a: pn_exponential(p, n),
    ("pn", "broken"): lambda p, n, a: pn_broken(p, n),
    ("pa", "pickup"): lambda p, n, a: pa_pickup(p, n),
    ("pr", "pickup"): lambda p, n, a: pr_pickup(p),
}


def closed_form(event: str, model: str):
    """The exact evaluator ``(p, n, a) -> ExactProb`` for an event
    (pn/pa/pr) under a sampling model (pickup/truncated/exponential/broken).

    Raises UnsupportedFormulaError for a pair without a closed form; the
    evaluator itself raises it where the formula stops (pa for p >= 4 and
    n > p).
    """
    if type(event) is not str or type(model) is not str:
        raise DomainError(f"event and model must be names, got {event!r} and {model!r}")
    try:
        return _CLOSED_FORMS[event, model]
    except KeyError:
        raise UnsupportedFormulaError(
            f"no closed form for {event} under the {model} model; fall back to "
            f"the Monte Carlo estimator (simulate --event {event} --model {model})"
        ) from None
