import random
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, strategies as st

from stickprob import closedform, verify
from stickprob.closedform import (
    _CLOSED_FORMS,
    MAX_DECIMAL_DIGITS,
    ExactProb,
    _product,
    closed_form,
    is_vacuous,
    pa_pickup,
    pn_broken,
    pn_exponential,
    pn_pickup,
    pn_pickup_truncated,
    pr_pickup,
)
from stickprob.constraints import m_constants, s_constants
from stickprob.errors import DomainError, ResourceLimitError, UnsupportedFormulaError
from stickprob.oracle import symbolic_pn_truncated
from stickprob.sequences import StepFibTable, fib
from stickprob.verify import _CONCORDANCE_GRID, _pn_pickup_quadrilateral


class TestExactProb:
    def test_requires_lowest_terms(self):
        with pytest.raises(DomainError):
            ExactProb(2, 4)

    def test_requires_probability_range(self):
        with pytest.raises(DomainError):
            ExactProb(7, 6)
        with pytest.raises(DomainError):
            ExactProb(-1, 6)
        with pytest.raises(DomainError):
            ExactProb(1, 0)

    def test_from_fraction_reduces(self):
        prob = ExactProb.from_fraction(Fraction(6, 8))
        assert (prob.numerator, prob.denominator) == (3, 4)

    def _gcd_calls(self, monkeypatch, value):
        calls = []
        monkeypatch.setattr(closedform, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
        prob = ExactProb.from_fraction(value)
        return prob, len(calls)

    def test_from_fraction_trusts_a_plain_fraction(self, monkeypatch):
        # a Fraction is reduced when made, so it is not reduced again
        prob, calls = self._gcd_calls(monkeypatch, Fraction(3, 9))
        assert prob == ExactProb(1, 3) and calls == 0
        for value in (Fraction(4, 3), Fraction(-1, 3)):
            with pytest.raises(DomainError, match="is not a probability"):
                ExactProb.from_fraction(value)

    def test_from_fraction_checks_ints_and_subclasses(self, monkeypatch):
        class Unreduced(Fraction):
            # reports 2/4 for one half, as a subclass may
            numerator = property(lambda self: 2 * self._numerator)
            denominator = property(lambda self: 2 * self._denominator)

        prob, calls = self._gcd_calls(monkeypatch, 1)
        assert prob == ExactProb(1, 1) and calls == 1
        with pytest.raises(DomainError, match="^2/4 is not in lowest terms$"):
            ExactProb.from_fraction(Unreduced(1, 2))

    def test_decimal_rendering(self):
        assert ExactProb(1, 6).decimal(3) == "0.167"
        assert ExactProb(1, 1).decimal(2) == "1.00"
        assert ExactProb(1, 2).decimal(0) == "1"  # ties round away from zero
        assert ExactProb(1, 3).decimal(12) == "0.333333333333"

    def test_decimal_digits_capped_below_int_str_limit(self):
        cap = MAX_DECIMAL_DIGITS
        assert ExactProb(1, 1).decimal(cap) == "1." + "0" * cap
        assert ExactProb(1, 3).decimal(cap) == "0." + "3" * cap
        with pytest.raises(ResourceLimitError):
            ExactProb(1, 3).decimal(cap + 1)

    def test_float_and_str(self):
        prob = ExactProb(3, 4)
        assert float(prob) == 0.75
        assert str(prob) == "3/4"


def _sequential_product(values):
    den = 1
    for v in values:
        den *= v
    return den


def _orders(values):
    """The values in their own order, reversed and shuffled with a fixed seed."""
    shuffled = list(values)
    random.Random(27).shuffle(shuffled)
    return [list(values), list(values)[::-1], shuffled]


class TestProduct:
    @pytest.mark.parametrize("values", [
        [],
        [7],
        [6, 7],
        [2, 3, 5],           # odd length: the median waits a level
        [2, 3, 5, 7],
        [3, 1, 4, 1, 5, 9, 2],
        [4, 0, 9, 2, 5],
        [fib(2, i) for i in range(1, 301)],
        *_orders(m_constants(3, 300)),
        *_orders(s_constants(2, 301)),
    ])
    def test_matches_sequential_product(self, values):
        assert _product(values) == _sequential_product(values)
        assert _product(iter(values)) == _sequential_product(values)

    @given(st.lists(st.integers(-(2**400), 2**400), max_size=70))
    def test_big_ints(self, values):
        assert _product(values) == _sequential_product(values)


class TestPnPickup:
    def test_triangle_case(self):
        assert pn_pickup(2, 4).fraction == Fraction(1, 6)

    def test_quadrilateral_case(self):
        assert pn_pickup(3, 5).fraction == Fraction(1, 40)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_top_polygon_reduces_to_factorial(self, n):
        assert pn_pickup(n - 1, n).fraction == Fraction(1, factorial(n - 1))

    @pytest.mark.parametrize("n", range(3, 21))
    def test_fibonorial_product(self, n):
        product = 1
        for i in range(1, n + 1):
            product *= fib(2, i)
        assert pn_pickup(2, n).fraction == Fraction(1, product)

    def test_vacuous_cases(self):
        assert pn_pickup(2, 1).fraction == 1
        assert pn_pickup(5, 5).fraction == 1
        assert is_vacuous(5, 5) and not is_vacuous(5, 6)

    def test_rejects_bad_arguments(self):
        for evaluate in (pn_pickup, pn_broken, pn_exponential, pa_pickup):
            with pytest.raises(DomainError):
                evaluate(1, 4)
            with pytest.raises(DomainError, match=r"^stick count n must be >= 1, got 0$"):
                evaluate(2, 0)
        with pytest.raises(DomainError):
            pn_pickup_truncated(1, 4, Fraction(1, 4))


def test_each_evaluation_builds_one_product(monkeypatch):
    calls = []
    real = closedform._product
    monkeypatch.setattr(closedform, "_product", lambda values: calls.append(1) or real(values))
    # below the cap 1/m_1, so the truncated PN is not 0 and needs the product
    a = Fraction(1, 2 * m_constants(3, 40)[0])
    for evaluate in (lambda: pn_pickup(3, 40), lambda: pn_broken(3, 40),
                     lambda: pn_pickup_truncated(3, 40, a)):
        calls.clear()
        assert evaluate().numerator > 0
        assert len(calls) == 1


@pytest.mark.skipif(not __debug__, reason="python -O strips the assert")
def test_pickup_assert_trips_on_a_wrong_m_vector(monkeypatch):
    def one_off(p, n):
        m = m_constants(p, n)
        return m[:1] + (m[1] + 1,) + m[2:]

    monkeypatch.setattr(closedform, "_pn_pickup_step_fib", one_off)
    with pytest.raises(AssertionError, match="PN pickup routes disagree"):
        pn_pickup(3, 12)


class TestQuadrilateralForm:
    @pytest.mark.parametrize(
        ("n", "expected"),
        [(4, Fraction(1, 6)), (5, Fraction(1, 40)), (6, Fraction(1, 504))],
    )
    def test_reference_values(self, n, expected):
        assert _pn_pickup_quadrilateral(n).fraction == expected

    def test_matches_general_form(self):
        for n in range(4, 21):
            assert _pn_pickup_quadrilateral(n).fraction == pn_pickup(3, n).fraction

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            _pn_pickup_quadrilateral(3)


class TestPnTruncated:
    def test_boundary_annihilation(self):
        assert pn_pickup_truncated(2, 3, Fraction(1, 2)).fraction == 0

    def test_reduces_at_zero(self):
        assert pn_pickup_truncated(2, 3, 0).fraction == pn_pickup(2, 3).fraction

    def test_worked_value(self):
        assert pn_pickup_truncated(2, 3, Fraction(1, 4)).fraction == Fraction(4, 27)

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError, match=r"^truncation point a must be in \[0, 1\), got 1$"):
            pn_pickup_truncated(2, 3, 1)
        with pytest.raises(DomainError, match=r"got -1/10$"):
            pn_pickup_truncated(2, 3, Fraction(-1, 10))

    @pytest.mark.parametrize("a", [float("inf"), float("nan"), "abc", None, "1/0"])
    @pytest.mark.parametrize("evaluate", [pn_pickup_truncated, symbolic_pn_truncated])
    def test_rejects_non_rational(self, evaluate, a):
        with pytest.raises(DomainError, match=r"^truncation point a must be rational, got "):
            evaluate(2, 3, a)

    def test_nonincreasing_to_zero(self):
        for p, n in ((2, 3), (2, 5), (3, 4)):
            cap = Fraction(1, m_constants(p, n)[0])
            grid = [cap * Fraction(j, 20) for j in range(21)]
            values = [pn_pickup_truncated(p, n, a).fraction for a in grid]
            assert all(x >= y for x, y in zip(values, values[1:]))
            assert values[-1] == 0

    def test_beyond_cap_is_zero(self):
        assert pn_pickup_truncated(2, 3, Fraction(3, 4)).fraction == 0

    def test_vacuous(self):
        assert pn_pickup_truncated(4, 3, Fraction(1, 5)).fraction == 1


class TestPnBroken:
    def test_triangle_case(self):
        assert pn_broken(2, 3).fraction == Fraction(3, 4)

    def test_square_from_four_pieces(self):
        assert pn_broken(3, 4).fraction == Fraction(1, 2)

    def test_quadrilateral_from_four(self):
        assert pn_broken(2, 4).fraction == Fraction(3, 7)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_top_polygon_reduction(self, n):
        assert pn_broken(n - 1, n).fraction == Fraction(n, 2 ** (n - 1))

    def test_vacuous(self):
        assert pn_broken(4, 4).fraction == 1


class TestPnExponential:
    def test_small_values(self):
        assert pn_exponential(2, 3).fraction == Fraction(3, 4)
        assert pn_exponential(2, 4).fraction == Fraction(3, 7)

    def test_matches_broken_everywhere(self):
        # the t table has its own recurrence and never reads the
        # step-Fibonacci sums behind pn_broken's s constants
        grid = [(p, n) for p in range(2, 6) for n in range(p + 1, 13)]
        grid += [(p, n) for p in (2, 3) for n in (255, 503, 1001)]
        for p, n in grid:
            assert pn_exponential(p, n).fraction == pn_broken(p, n).fraction

    def test_vacuous(self):
        assert pn_exponential(3, 2).fraction == 1


class TestPaPickup:
    def test_triangle_values(self):
        assert pa_pickup(2, 3).fraction == Fraction(1, 2)
        assert pa_pickup(2, 6).fraction == Fraction(1, 16)

    def test_quadrilateral_values(self):
        assert pa_pickup(3, 4).fraction == Fraction(5, 6)

    @pytest.mark.parametrize("p", [2, 3])
    def test_complement_at_minimal_n(self, p):
        assert pa_pickup(p, p + 1).fraction == 1 - pn_pickup(p, p + 1).fraction

    def test_unsupported_above_quadrilaterals(self):
        with pytest.raises(UnsupportedFormulaError, match="Monte Carlo"):
            pa_pickup(4, 6)

    def test_vacuous(self):
        assert pa_pickup(3, 3).fraction == 1

    @pytest.mark.parametrize(("p", "n"), [(4, 4), (5, 2), (9, 9)])
    def test_vacuous_at_every_p(self, p, n):
        assert pa_pickup(p, n) == ExactProb(1, 1)


class TestPrPickup:
    @pytest.mark.parametrize(
        ("p", "expected"),
        [(2, Fraction(1, 2)), (3, Fraction(5, 6)), (4, Fraction(23, 24))],
    )
    def test_values(self, p, expected):
        assert pr_pickup(p).fraction == expected

    def test_complements_pn_at_n_p_plus_1(self):
        # with n = p + 1 the random subset is every stick
        for p in range(2, 13):
            assert pr_pickup(p).fraction == 1 - pn_pickup(p, p + 1).fraction, p

    def test_rejects_small_p(self):
        with pytest.raises(DomainError):
            pr_pickup(1)


# (entry point, argument) for every p and n an exact entry point reads:
# each (event, model) evaluator (pr reads no n), m_constants, StepFibTable
_INT_ARGUMENTS = [
    *((f"{event}-{model}", arg) for event, model in _CLOSED_FORMS
      for arg in ("p", "n") if arg == "p" or event != "pr"),
    ("m_constants", "p"), ("m_constants", "n"), ("StepFibTable", "p"),
]


def _evaluate(name, p, n):
    if name == "m_constants":
        return m_constants(p, n)
    if name == "StepFibTable":
        return StepFibTable(p).fib(n)
    return closed_form(*name.split("-"))(p, n, 0)


@pytest.mark.parametrize("bad", [5.0, Fraction(5), True], ids=["float", "Fraction", "bool"])
@pytest.mark.parametrize(("name", "arg"), _INT_ARGUMENTS, ids=["-".join(c) for c in _INT_ARGUMENTS])
def test_p_and_n_must_be_ints(name, arg, bad):
    """A p or n that is not an int is refused, never evaluated as the number
    it compares equal to: a float n gave pa_pickup(3, 5.0) the fraction of a
    binary float in place of 23/36, and True passed as n = 1."""
    p, n = (bad, 6) if arg == "p" else (3, bad)
    with pytest.raises(DomainError, match=f"^[a-z ]+ {arg} must be an int, got "):
        _evaluate(name, p, n)


def test_all_outputs_reduced_and_in_unit_interval():
    probs = []
    for p in range(2, 6):
        for n in range(1, 13):
            probs += [pn_pickup(p, n), pn_broken(p, n), pn_exponential(p, n)]
            probs.append(pn_pickup_truncated(p, n, Fraction(1, 17)))
            if p in (2, 3):
                probs.append(pa_pickup(p, n))
        probs.append(pr_pickup(p))
    for prob in probs:
        assert 0 <= prob.fraction <= 1
        assert gcd(prob.numerator, prob.denominator) == 1


def test_every_closed_form_has_a_concordance_target():
    """verify --suite mc shakes each (event, model) closed form against
    Monte Carlo, so a new form cannot ship without a target."""
    shaken = {(event, model) for event, model, _, ns in _CONCORDANCE_GRID if ns}
    assert set(_CLOSED_FORMS) <= shaken


def _broken_halved_past_12(p, n):
    prob = pn_broken(p, n)
    return ExactProb.from_fraction(prob.fraction / 2) if n >= 13 else prob


def _broken_halved_from_p_6(p, n):
    prob = pn_broken(p, n)
    return ExactProb.from_fraction(prob.fraction / 2) if p >= 6 and n > p + 1 else prob


def _exponential_halved_past_12(p, n):
    prob = pn_exponential(p, n)
    return ExactProb.from_fraction(prob.fraction / 2) if n >= 13 else prob


def _pickup_halved_p_4_to_6_past_n_7(p, n):
    prob = pn_pickup(p, n)
    return ExactProb.from_fraction(prob.fraction / 2) if 4 <= p <= 6 and n >= 8 else prob


def _pr_wrong_from_4(p):
    return ExactProb.from_fraction(1 - Fraction(2, factorial(p))) if p >= 4 else pr_pickup(p)


@pytest.mark.parametrize(("name", "mutant", "check", "detail"), [
    ("pn_broken", _broken_halved_past_12, "exponential_matches_broken",
     "p=2 n=13; p=2 n=14; p=2 n=15; p=2 n=16; and 44 more"),
    ("pn_broken", _broken_halved_from_p_6, "exponential_matches_broken",
     "p=6 n=8; p=6 n=9; p=6 n=10; p=6 n=11; and 21 more"),
    ("pn_exponential", _exponential_halved_past_12, "exponential_matches_broken",
     "p=2 n=13; p=2 n=14; p=2 n=15; p=2 n=16; and 44 more"),
    ("pn_pickup", _pickup_halved_p_4_to_6_past_n_7,
     "symbolic_integration_matches_closed_form", "p=4 n=8; p=5 n=8; p=6 n=8"),
    ("pr_pickup", _pr_wrong_from_4, "complement_at_minimal_n",
     "pr p=4; pr p=5; pr p=6; pr p=7; and 5 more"),
], ids=["pn_broken_halved_past_n_12", "pn_broken_halved_from_p_6",
        "pn_exponential_halved_past_n_12", "pn_pickup_halved_p_4_to_6_past_n_7",
        "pr_pickup_wrong_from_p_4"])
def test_exact_suite_catches_evaluator_mutant(monkeypatch, name, mutant, check, detail):
    """An evaluator wrong only past the sizes most checks reach fails one
    named exact check.  verify binds the evaluators by name, so the mutant
    replaces both bindings."""
    monkeypatch.setattr(closedform, name, mutant)
    monkeypatch.setattr(verify, name, mutant)
    failed = [r for r in verify.run_suite("exact") if not r.passed]
    assert [r.name for r in failed] == [check]
    assert failed[0].detail == detail
