"""Property tests for the oracle's sparse polynomial class.

Each operation is checked against a plain evaluator written here: a
result must take the value the operation predicts at a random rational
point, and must hold no zero coefficient.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from stickprob.oracle import MultiPoly

MAX_VARS = 3
MAX_DEGREE = 3

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def evaluate(poly, point):
    total = Fraction(0)
    for expo, coeff in poly.terms.items():
        term = coeff
        for x, e in zip(point, expo):
            term *= x**e
        total += term
    return total


def exponents(nvars):
    return st.tuples(*[st.integers(0, MAX_DEGREE)] * nvars).filter(
        lambda expo: sum(expo) <= MAX_DEGREE
    )


def term_maps(nvars):
    return st.dictionaries(exponents(nvars), fractions, max_size=6)


def polys(nvars):
    return term_maps(nvars).map(lambda terms: MultiPoly(nvars, terms))


@st.composite
def cases(draw, count=2):
    nvars = draw(st.integers(1, MAX_VARS))
    point = draw(st.tuples(*[fractions] * nvars))
    return (nvars, point, *(draw(polys(nvars)) for _ in range(count)))


def assert_canonical(poly, nvars):
    assert poly.nvars == nvars
    assert all(len(expo) == nvars for expo in poly.terms)
    assert all(coeff != 0 for coeff in poly.terms.values())


@settings(max_examples=150, deadline=None)
@given(cases())
def test_add_sub_mul_match_reference(case):
    nvars, point, a, b = case
    x, y = evaluate(a, point), evaluate(b, point)
    for result, expected in ((a + b, x + y), (a - b, x - y), (a * b, x * y)):
        assert_canonical(result, nvars)
        assert evaluate(result, point) == expected


@settings(max_examples=100, deadline=None)
@given(cases(count=1), st.one_of(st.just(0), st.integers(-3, 3), fractions))
def test_scalar_product_matches_reference(case, k):
    nvars, point, a = case
    for result in (k * a, a * k):
        assert_canonical(result, nvars)
        assert evaluate(result, point) == k * evaluate(a, point)
        if k == 0:
            assert result.terms == {}


@settings(max_examples=100, deadline=None)
@given(cases(count=1))
def test_self_difference_is_empty(case):
    _, _, a = case
    assert (a - a).terms == {}
    assert (a - a).is_zero()


@st.composite
def substitutions(draw):
    nvars, point, a = draw(cases(count=1))
    var = draw(st.integers(0, nvars - 1))
    terms = draw(term_maps(nvars))
    # a nonzero term of total degree 2 or 3 keeps the replacement nonlinear
    top = draw(exponents(nvars).filter(lambda expo: sum(expo) >= 2))
    terms[top] = draw(fractions.filter(bool))
    return nvars, point, a, var, MultiPoly(nvars, terms)


@settings(max_examples=150, deadline=None)
@given(substitutions())
def test_substitute_matches_reference(case):
    nvars, point, a, var, replacement = case
    assert max(sum(expo) for expo in replacement.terms) >= 2
    result = a.substitute(var, replacement)
    assert_canonical(result, nvars)
    moved = list(point)
    moved[var] = evaluate(replacement, point)
    assert evaluate(result, point) == evaluate(a, moved)


@settings(max_examples=100, deadline=None)
@given(cases(count=1), st.data())
def test_antiderivative_differentiates_back(case, data):
    nvars, point, a = case
    var = data.draw(st.integers(0, nvars - 1))
    anti = a.antiderivative(var)
    assert_canonical(anti, nvars)
    derivative = {}
    for expo, coeff in anti.terms.items():
        if expo[var]:
            lowered = list(expo)
            lowered[var] -= 1
            derivative[tuple(lowered)] = coeff * expo[var]
    assert evaluate(MultiPoly(nvars, derivative), point) == evaluate(a, point)
    assert all(expo[var] >= 1 for expo in anti.terms)
