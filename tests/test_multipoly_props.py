"""Property tests for the oracle's sparse polynomial class.

Each integration step is checked against a plain ``Fraction`` evaluator
written here: a result must take the value the step predicts at a random
rational point, and must be canonical (integer numerators, none zero,
over a positive denominator that shares no factor with all of them).
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from stickprob.oracle import MultiPoly

MAX_VARS = 3
MAX_DEGREE = 3

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
numerators = st.integers(-12, 12)
denominators = st.integers(1, 12)


def evaluate(poly, point):
    total = Fraction(0)
    for expo, coeff in poly.terms.items():
        term = Fraction(coeff)
        for x, e in zip(point, expo):
            term *= x**e
        total += term
    return total / poly.den


def bound_value(bound, point):
    constant, coeffs, den = bound
    return (constant + sum(c * x for c, x in zip(coeffs, point))) / Fraction(den)


def exponents(nvars):
    return st.tuples(*[st.integers(0, MAX_DEGREE)] * nvars).filter(
        lambda expo: sum(expo) <= MAX_DEGREE
    )


def term_maps(nvars):
    return st.dictionaries(exponents(nvars), numerators, max_size=6)


def bounds(nvars, free=None):
    """Affine bounds over the leading variables; none reads slot ``free``."""
    coeffs = st.lists(numerators, max_size=nvars).map(
        lambda cs: tuple(0 if v == free else c for v, c in enumerate(cs))
    )
    return st.tuples(numerators, coeffs, denominators)


@st.composite
def cases(draw, free_var=False):
    """(nvars, point, poly, var, lower, upper); with ``free_var`` the
    bounds do not read ``var``, as an integration's bounds never do."""
    nvars = draw(st.integers(1, MAX_VARS))
    point = draw(st.tuples(*[fractions] * nvars))
    poly = MultiPoly(nvars, draw(term_maps(nvars)), draw(denominators))
    var = draw(st.integers(0, nvars - 1))
    free = var if free_var else None
    return nvars, point, poly, var, draw(bounds(nvars, free)), draw(bounds(nvars, free))


def assert_canonical(poly, nvars):
    assert poly.nvars == nvars
    assert all(len(expo) == nvars for expo in poly.terms)
    assert all(type(c) is int and c != 0 for c in poly.terms.values())
    assert poly.den > 0
    assert gcd(poly.den, *poly.terms.values()) == 1


@settings(max_examples=150, deadline=None)
@given(cases())
def test_substitute_matches_reference(case):
    nvars, point, poly, var, bound, _ = case
    result = poly.substitute(var, bound)
    assert_canonical(result, nvars)
    if not any(bound[1][var:var + 1]):  # a bound that does not read var removes it
        assert all(expo[var] == 0 for expo in result.terms)
    moved = list(point)
    moved[var] = bound_value(bound, point)
    assert evaluate(result, point) == evaluate(poly, moved)


@settings(max_examples=150, deadline=None)
@given(cases(free_var=True))
def test_integrate_matches_reference(case):
    nvars, point, poly, var, lower, upper = case
    result = poly.integrate(var, lower, upper)
    assert_canonical(result, nvars)
    assert all(expo[var] == 0 for expo in result.terms)
    low, high = bound_value(lower, point), bound_value(upper, point)
    expected = Fraction(0)
    for expo, coeff in poly.terms.items():
        # the integral of x^e from low to high, times the other factors
        term = Fraction(coeff, poly.den) * (high ** (expo[var] + 1) - low ** (expo[var] + 1))
        term /= expo[var] + 1
        for v, (x, e) in enumerate(zip(point, expo)):
            if v != var:
                term *= x**e
        expected += term
    assert evaluate(result, point) == expected


@settings(max_examples=100, deadline=None)
@given(cases())
def test_antiderivative_differentiates_back(case):
    # the integral from 0 to the variable itself is the antiderivative
    # that vanishes at 0: every term has gained a power of the variable
    nvars, point, poly, var, _, _ = case
    unit = tuple(int(v == var) for v in range(nvars))
    anti = poly.integrate(var, (0, (), 1), (0, unit, 1))
    assert_canonical(anti, nvars)
    assert all(expo[var] >= 1 for expo in anti.terms)
    derivative = MultiPoly(nvars, {
        expo[:var] + (expo[var] - 1,) + expo[var + 1:]: coeff * expo[var]
        for expo, coeff in anti.terms.items()
    }, anti.den)
    assert evaluate(derivative, point) == evaluate(poly, point)
