"""Independent exact verification routes.

``symbolic_pn_pickup`` evaluates the ordered-lengths probability
integral literally: integrate out the longest stick from its minimum form
to its maximum form, then the next, and so on down to the shortest, one
definite-integral step per stick (``MultiPoly.integrate``).  Every bound
is affine in the remaining lengths, with integer coefficients over one
denominator, so each step maps a polynomial with integer numerators over
one denominator to another, and no step does rational arithmetic.  A
bound replaces its variable by Horner's rule, from the top degree down.
The integrator shares only the bound *forms* with the production code
(the minimum forms and the vector-route maximum forms), never the
closed-form denominators, which is what makes it an oracle for them.

``exponential_rates`` is the tail chain for exponential lengths: each
stick integrates from its minimum form to infinity, and PN is n! over the
product of the rates that accumulate.  It reads the windows only
(``constraints._window``), no sequence table and no closed-form constant.

``r_vector`` iterates the linear recurrence obeyed by the exponents in
the stepwise integration of exponential tails; its entries must line up
with step-Fibonacci numbers, giving a second, algebra-only check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Iterator, Mapping

from .closedform import ExactProb, RationalLike
from .constraints import _window_walk, max_length_form, min_length_form
from .errors import DomainError, ResourceLimitError, require_p, require_subset
from .errors import require_int, require_truncation

__all__ = [
    "MultiPoly",
    "integration_chain",
    "symbolic_pn_pickup",
    "symbolic_pn_truncated",
    "intermediates_vanish_at_max",
    "exponential_rates",
    "r_vector",
]

# the most terms an integrand may reach; (2, 32), (3, 15), (4, 12) and
# (5..7, 11) are the largest systems inside it, about a quarter second or less each
TERM_LIMIT = 500

# an affine bound (constant + sum(coeffs[v] * l_{v+1})) / den, with integer
# constant and coeffs over 0-based variable slots, and den > 0
Bound = tuple[int, tuple[int, ...], int]


class MultiPoly:
    """Sparse polynomial in l_1..l_nvars: integer numerators over one
    positive denominator.

    ``terms`` maps exponent tuples to nonzero ints and ``den`` shares no
    factor with all of them, so every polynomial has one representation.
    Only the steps the integrator runs are implemented.
    """

    __slots__ = ("nvars", "terms", "den")

    def __init__(
        self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None, den: int = 1
    ) -> None:
        terms = {expo: coeff for expo, coeff in (terms or {}).items() if coeff}
        common = gcd(den, *terms.values())
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], int] = {
            expo: coeff // common for expo, coeff in terms.items()
        }
        self.den = den // common

    def is_zero(self) -> bool:
        return not self.terms

    def substitute(self, var: int, bound: Bound) -> "MultiPoly":
        """Replace ``var`` by an affine bound, by Horner's rule in ``var``.

        With the bound's numerator B and denominator d, the top degree K
        and the coefficient polynomials q_k, the numerator runs
        S <- S * B + q_k * d^(K-k) from k = K down, so S = d^K * poly(B/d)
        stays in integers.
        """
        constant, coeffs, den = bound
        steps = [(v, c) for v, c in enumerate(coeffs) if c]
        by_degree: dict[int, dict[tuple[int, ...], int]] = {}
        for expo, coeff in self.terms.items():
            # exponents that reduce alike differ in this degree: no key repeats
            reduced = expo[:var] + (0,) + expo[var + 1:]
            by_degree.setdefault(expo[var], {})[reduced] = coeff
        top = max(by_degree, default=0)
        out: dict[tuple[int, ...], int] = {}
        for degree in range(top, -1, -1):
            grown = {expo: coeff * constant for expo, coeff in out.items()} if constant else {}
            for expo, coeff in out.items():
                for v, c in steps:
                    key = expo[:v] + (expo[v] + 1,) + expo[v + 1:]
                    grown[key] = grown.get(key, 0) + coeff * c
            scale = den ** (top - degree)
            for expo, coeff in by_degree.get(degree, {}).items():
                grown[expo] = grown.get(expo, 0) + coeff * scale
            out = grown
        return MultiPoly(self.nvars, out, self.den * den**top)

    def integrate(self, var: int, lower: Bound, upper: Bound) -> "MultiPoly":
        """The definite integral in ``var`` from ``lower`` to ``upper``.

        The antiderivative divides each numerator by its new degree in
        ``var``; scaling them all by the lcm of those degrees keeps it in
        integers.
        """
        scale = lcm(*(expo[var] + 1 for expo in self.terms))
        anti = MultiPoly(self.nvars, {
            expo[:var] + (expo[var] + 1,) + expo[var + 1:]: coeff * (scale // (expo[var] + 1))
            for expo, coeff in self.terms.items()
        }, self.den * scale)
        high, low = anti.substitute(var, upper), anti.substitute(var, lower)
        den = lcm(high.den, low.den)
        terms = {expo: coeff * (den // high.den) for expo, coeff in high.terms.items()}
        for expo, coeff in low.terms.items():
            terms[expo] = terms.get(expo, 0) - coeff * (den // low.den)
        return MultiPoly(self.nvars, terms, den)

    def constant_value(self) -> Fraction:
        """The value of a polynomial with no remaining variables."""
        if any(any(expo) for expo in self.terms):
            raise DomainError("polynomial still depends on variables")
        return Fraction(self.terms.get((0,) * self.nvars, 0), self.den)


def _upper_bound(p: int, n: int, i: int) -> Bound:
    """The cap on stick i (pick-up sticks): 1 for the longest, else
    (1 - form(l_1, ..., l_{i-1})) / den from the vector route."""
    if i == n:
        return 1, (), 1
    den, form = max_length_form(p, n, i)
    return 1, tuple(-c for c in form), den


def _term_count(p: int, n: int, i: int) -> int:
    """The number of terms left once sticks n..i are integrated out.

    The integrand then reads only the v = min(p, i-1) sticks below i (the
    window of their interval forms), and holds every monomial in them of
    total degree at most n-i+1: C(n-i+1+v, v) terms.
    """
    v = min(p, i - 1)
    return comb(n - i + 1 + v, v)


def integration_chain(p: int, n: int) -> Iterator[tuple[int, MultiPoly]]:
    """Integrate sticks n, n-1, ..., 2 out of the unit integrand.

    Yields (i, poly) after integrating stick i; poly then depends on
    l_1..l_{i-1} only.  The final yield is the univariate polynomial in
    l_1 whose last integral gives the probability (up to n!).  Refuses
    with ``ResourceLimitError``, before the first step, when some step
    would hold more than ``TERM_LIMIT`` terms.
    """
    require_subset(p, n)
    terms = max(_term_count(p, n, i) for i in range(2, n + 1))
    if terms > TERM_LIMIT:
        raise ResourceLimitError(
            f"symbolic integration at p = {p}, n = {n} would hold {terms} "
            f"terms, more than the limit of {TERM_LIMIT}"
        )
    poly = MultiPoly(n, {(0,) * n: 1})
    for i in range(n, 1, -1):
        poly = poly.integrate(i - 1, (0, min_length_form(p, i), 1), _upper_bound(p, n, i))
        yield i, poly


def symbolic_pn_pickup(p: int, n: int) -> ExactProb:
    """PN for pick-up sticks by direct iterated integration (a = 0)."""
    return symbolic_pn_truncated(p, n, 0)


def symbolic_pn_truncated(p: int, n: int, a: RationalLike) -> ExactProb:
    """PN for lengths uniform on [a, 1], by the same iterated integration.

    The last integral, over the shortest stick, runs from ``a`` instead of
    0 up to its cap, and the density factor 1/(1-a)^n rescales it.  Zero
    once ``a`` reaches that cap.
    """
    a = require_truncation(a)
    final = None
    for _, poly in integration_chain(p, n):
        final = poly
    upper = _upper_bound(p, n, 1)
    if a >= Fraction(upper[0], upper[2]):
        return ExactProb(0, 1)
    volume = final.integrate(0, (a.numerator, (), a.denominator), upper).constant_value()
    return ExactProb.from_fraction(factorial(n) * volume / (1 - a) ** n)


def intermediates_vanish_at_max(p: int, n: int) -> bool:
    """Check that every partial integral collapses to zero when the next
    stick down is pushed to its own maximum.

    Pinning l_{i-1} at its cap forces sticks i..n onto one exact
    configuration ending at length 1, so the integral over them has an
    empty interior; the partial results must vanish there identically.
    """
    for i, poly in integration_chain(p, n):
        pinned = poly.substitute(i - 2, _upper_bound(p, n, i - 1))
        if not pinned.is_zero():
            return False
    return True


def exponential_rates(p: int, n: int) -> tuple[int, ...]:
    """The rates r_1..r_n of the tail chain: PN for n independent
    exponential lengths is n! / (r_1 * ... * r_n).

    The sorted lengths have density n! exp(-(l_1 + ... + l_n)), so every
    rate starts at 1.  Integrating stick i (longest first) from min_i to
    infinity leaves exp(-r_i * min_i) / r_i, which adds r_i to the rate of
    each stick in i's window.
    """
    require_subset(p, n)
    return _window_walk(p, [1] * n)


def r_vector(p: int, l: int) -> tuple[int, ...]:
    """The l-th state of the integration-exponent recurrence, starting from
    the all-ones vector.

    One step sends entry 1 to itself plus (p-1) copies of the last entry,
    and entry i (for i >= 2) to entry i-1 plus (p-i) copies of the last
    entry.  Exact big-integer arithmetic, applied step by step; l stays
    small at desk scale so repeated application beats exponentiation on
    clarity.
    """
    require_p(p)
    require_int("step l", l)
    if l < 1:
        raise DomainError(f"the recurrence is defined for l >= 1, got {l}")
    state = [1] * p
    for _ in range(l - 1):
        last = state[-1]
        new = [state[0] + (p - 1) * last]
        for i in range(2, p + 1):
            new.append(state[i - 2] + (p - i) * last)
        state = new
    return tuple(state)
