"""Independent exact verification routes.

``symbolic_pn_pickup`` evaluates the ordered-lengths probability
integral literally: integrate out the longest stick from its minimum form
to its maximum form, then the next, and so on down to the shortest, one
definite-integral step per stick (``_integrate``).  Every bound is affine
in the remaining lengths with rational coefficients, so each step maps a
polynomial to a polynomial and the whole computation stays exact.  A
bound replaces its variable by Horner's rule, from the top degree down.
The integrator shares only the bound *forms* with the production code
(the minimum forms and the vector-route maximum forms), never the
closed-form denominators, which is what makes it an oracle for them.

``r_vector`` iterates the linear recurrence obeyed by the exponents in
the stepwise integration of exponential tails; its entries must line up
with step-Fibonacci numbers, giving a second, algebra-only check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Iterator, Mapping

from .closedform import ExactProb, RationalLike
from .constraints import max_length_form, min_length_form
from .errors import DomainError, ResourceLimitError, require_p, require_subset
from .errors import require_truncation

__all__ = [
    "MultiPoly",
    "integration_chain",
    "symbolic_pn_pickup",
    "symbolic_pn_truncated",
    "intermediates_vanish_at_max",
    "r_vector",
]

# the most terms an integrand may reach; (2, 32), (3, 15), (4, 12) and
# (5..7, 11) are the largest systems inside it, about a second each
TERM_LIMIT = 500


class MultiPoly:
    """Sparse polynomial in l_1..l_nvars with Fraction coefficients.

    Terms map exponent tuples to nonzero coefficients; only the handful of
    operations the integrator needs are implemented.
    """

    __slots__ = ("nvars", "terms")

    def __init__(
        self,
        nvars: int,
        terms: Mapping[tuple[int, ...], RationalLike] | None = None,
    ) -> None:
        self.nvars = nvars
        self.terms: dict[tuple[int, ...], Fraction] = {}
        self._accumulate((tuple(e), Fraction(c)) for e, c in (terms or {}).items())

    def _accumulate(self, pairs: Iterable[tuple[tuple, Fraction]]) -> "MultiPoly":
        """Add each coefficient under its exponent, dropping keys that sum to 0."""
        terms = self.terms
        for expo, coeff in pairs:
            total = terms.get(expo, 0) + coeff
            if total:
                terms[expo] = total
            else:
                terms.pop(expo, None)
        return self

    @classmethod
    def constant(cls, nvars: int, value: RationalLike) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def affine(
        cls,
        nvars: int,
        constant: RationalLike,
        coeffs: Mapping[int, RationalLike],
    ) -> "MultiPoly":
        """constant + sum(coeffs[v] * l_{v+1}) over 0-based variable slots."""
        terms = {(0,) * nvars: constant}
        for var, coeff in coeffs.items():
            terms[tuple(int(v == var) for v in range(nvars))] = coeff
        return cls(nvars, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = MultiPoly(self.nvars)
        out.terms = dict(self.terms)
        return out._accumulate(other.terms.items())

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + other * -1

    def __mul__(self, other: "MultiPoly | RationalLike") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return MultiPoly(self.nvars)._accumulate(
            (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def antiderivative(self, var: int) -> "MultiPoly":
        result = MultiPoly(self.nvars)
        for expo, coeff in self.terms.items():
            lifted = list(expo)
            lifted[var] += 1
            result.terms[tuple(lifted)] = coeff / lifted[var]
        return result

    def substitute(self, var: int, replacement: "MultiPoly") -> "MultiPoly":
        """Replace ``var`` by a polynomial (usually an affine bound), by Horner."""
        by_degree: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for expo, coeff in self.terms.items():
            # exponents that reduce alike differ in this degree: no key repeats
            reduced = expo[:var] + (0,) + expo[var + 1:]
            by_degree.setdefault(expo[var], {})[reduced] = coeff
        out = MultiPoly(self.nvars)
        for degree in range(max(by_degree, default=-1), -1, -1):
            out = (out * replacement)._accumulate(by_degree.get(degree, {}).items())
        return out

    def constant_value(self) -> Fraction:
        """The value of a polynomial with no remaining variables."""
        if any(any(expo) for expo in self.terms):
            raise DomainError("polynomial still depends on variables")
        return self.terms.get((0,) * self.nvars, Fraction(0))


def _form_poly(n: int, form: tuple[int, ...]) -> MultiPoly:
    """A bound form as an affine polynomial in l_1..l_n."""
    return MultiPoly.affine(n, 0, dict(enumerate(form)))


def _upper_bound_poly(p: int, n: int, i: int) -> MultiPoly:
    """Affine polynomial for the cap on stick i (pick-up sticks)."""
    if i == n:
        return MultiPoly.constant(n, 1)
    den, form = max_length_form(p, n, i)
    return (MultiPoly.constant(n, 1) - _form_poly(n, form)) * Fraction(1, den)


def _integrate(
    poly: MultiPoly, var: int, lower: MultiPoly, upper: MultiPoly
) -> MultiPoly:
    """The definite integral of ``poly`` in ``var`` from ``lower`` to ``upper``."""
    anti = poly.antiderivative(var)
    return anti.substitute(var, upper) - anti.substitute(var, lower)


def _term_count(p: int, n: int, i: int) -> int:
    """The number of terms left once sticks n..i are integrated out.

    The integrand then reads only the v = min(p, i-1) sticks below i (the
    window of their bounds), and holds every monomial in them of total
    degree at most n-i+1: C(n-i+1+v, v) terms.
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
    poly = MultiPoly.constant(n, 1)
    for i in range(n, 1, -1):
        lower = _form_poly(n, min_length_form(p, i))
        poly = _integrate(poly, i - 1, lower, _upper_bound_poly(p, n, i))
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
    upper = _upper_bound_poly(p, n, 1)
    if a >= upper.constant_value():
        return ExactProb(0, 1)
    volume = _integrate(final, 0, MultiPoly.constant(n, a), upper).constant_value()
    return ExactProb.from_fraction(factorial(n) * volume / (1 - a) ** n)


def intermediates_vanish_at_max(p: int, n: int) -> bool:
    """Check that every partial integral collapses to zero when the next
    stick down is pushed to its own maximum.

    Pinning l_{i-1} at its cap forces sticks i..n onto one exact
    configuration ending at length 1, so the integral over them has an
    empty interior; the partial results must vanish there identically.
    """
    for i, poly in integration_chain(p, n):
        pinned = poly.substitute(i - 2, _upper_bound_poly(p, n, i - 1))
        if not pinned.is_zero():
            return False
    return True


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
