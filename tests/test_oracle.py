from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from stickprob import oracle
from stickprob.closedform import (
    _product,
    pn_broken,
    pn_pickup,
    pn_pickup_truncated,
)
from stickprob.constraints import m_constants, s_constants
from stickprob.errors import DomainError, ResourceLimitError
from stickprob.oracle import (
    MultiPoly,
    exponential_rates,
    integration_chain,
    intermediates_vanish_at_max,
    r_vector,
    symbolic_pn_pickup,
    symbolic_pn_truncated,
)
from stickprob.sequences import fib


class TestMultiPoly:
    def test_antiderivative(self):
        # 3 l1^2 from 0 to l2 is l2^3
        poly = MultiPoly(2, {(2, 0): 3})
        out = poly.integrate(0, (0, (), 1), (0, (0, 1), 1))
        assert (out.terms, out.den) == ({(0, 3): 1}, 1)

    def test_substitute_collapses(self):
        # l1^2 at l1 = 1 - l2 gives 1 - 2 l2 + l2^2
        poly = MultiPoly(2, {(2, 0): 1})
        out = poly.substitute(0, (1, (0, -1), 1))
        assert out.terms == {(0, 0): 1, (0, 1): -2, (0, 2): 1}
        assert out.den == 1

    def test_cancellation_drops_terms(self):
        # l1 - l2 at l1 = l2 is zero, with the canonical denominator 1
        poly = MultiPoly(2, {(1, 0): 1, (0, 1): -1})
        out = poly.substitute(0, (0, (0, 1), 1))
        assert out.is_zero()
        assert (out.terms, out.den) == ({}, 1)

    def test_constant_value(self):
        assert MultiPoly(3, {(0, 0, 0): 10}, 14).constant_value() == Fraction(5, 7)
        assert MultiPoly(2).constant_value() == 0
        with pytest.raises(DomainError):
            MultiPoly(1, {(1,): 1}).constant_value()

    def test_numerators_share_no_factor_with_the_denominator(self):
        poly = MultiPoly(2, {(1, 0): 6, (0, 1): -4, (0, 0): 0}, 10)
        assert (poly.terms, poly.den) == ({(1, 0): 3, (0, 1): -2}, 5)


class TestSymbolicPickup:
    @pytest.mark.parametrize(
        ("p", "n", "expected"),
        [
            (2, 3, Fraction(1, 2)),
            (2, 5, Fraction(1, 30)),
            (3, 5, Fraction(1, 40)),
        ],
    )
    def test_reference_values(self, p, n, expected):
        assert symbolic_pn_pickup(p, n).fraction == expected

    def test_matches_closed_form_grid(self):
        for p in (2, 3):
            for n in range(p + 1, 7):
                assert symbolic_pn_pickup(p, n).fraction == pn_pickup(p, n).fraction
        assert symbolic_pn_pickup(4, 5).fraction == pn_pickup(4, 5).fraction

    # the last five are the largest systems the term limit admits
    @pytest.mark.parametrize(
        ("p", "n"), [(2, 12), (3, 10), (2, 32), (3, 15), (4, 12), (5, 11), (7, 11)]
    )
    def test_matches_closed_form_past_n_8(self, p, n):
        assert symbolic_pn_pickup(p, n).fraction == pn_pickup(p, n).fraction

    def test_rejects_vacuous_and_bad_p(self):
        with pytest.raises(DomainError):
            symbolic_pn_pickup(3, 3)
        with pytest.raises(DomainError):
            symbolic_pn_pickup(1, 4)


class TestSymbolicTruncated:
    def test_reduces_to_untruncated(self):
        assert symbolic_pn_truncated(2, 3, 0).fraction == Fraction(1, 2)

    def test_empty_region(self):
        assert symbolic_pn_truncated(2, 3, Fraction(1, 2)).fraction == 0

    def test_worked_value(self):
        assert symbolic_pn_truncated(2, 3, Fraction(1, 4)).fraction == Fraction(4, 27)

    def test_matches_closed_form(self):
        for p, n, a in ((2, 4, Fraction(1, 10)), (3, 4, Fraction(1, 8)),
                        (2, 5, Fraction(1, 7))):
            assert (
                symbolic_pn_truncated(p, n, a).fraction
                == pn_pickup_truncated(p, n, a).fraction
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError, match=r"^truncation point a must be in .*, got 5/4$"):
            symbolic_pn_truncated(2, 3, Fraction(5, 4))

    def test_matches_closed_form_past_n_8(self):
        # m_1 a >= 1 in both of these, so both values are 0
        for p, n, a in ((2, 10, Fraction(1, 10)), (3, 15, Fraction(1, 100))):
            assert (
                symbolic_pn_truncated(p, n, a).fraction
                == pn_pickup_truncated(p, n, a).fraction
            ), (p, n, a)
        # at a = 1/(2 m_1) the shortest stick keeps half its range, so the
        # values are nonzero and the rescaling past n = 6 is compared
        for p, ns in ((2, (7, 10, 16, 24, 32)), (3, (7, 10, 12, 15)),
                      (4, (7, 9, 12)), (5, (7, 9, 11))):
            for n in ns:
                a = Fraction(1, 2 * m_constants(p, n)[0])
                value = symbolic_pn_truncated(p, n, a).fraction
                assert value == pn_pickup_truncated(p, n, a).fraction, (p, n, a)
                assert value != 0, (p, n, a)


class TestTermLimit:
    """After sticks n..i are integrated out, the integrand holds every
    monomial of degree at most n-i+1 in the v = min(p, i-1) sticks below
    i; the guard reads these binomials before the first step."""

    def test_term_counts_are_binomials(self):
        checked = 0
        for p in range(2, 7):
            for n in range(p + 1, 13):
                if (p, n) in ((5, 12), (6, 12)):
                    continue  # past the limit, see below
                for i, poly in integration_chain(p, n):
                    v = min(p, i - 1)
                    assert len(poly.terms) == comb(n - i + 1 + v, v), (p, n, i)
                    assert all(type(c) is int for c in poly.terms.values()), (p, n, i)
                    assert gcd(poly.den, *poly.terms.values()) == 1, (p, n, i)
                    checked += 1
        assert checked == 273

    @pytest.mark.parametrize(
        ("p", "n", "terms"),
        [(2, 33, 528), (3, 16, 560), (4, 13, 715), (5, 12, 792), (6, 12, 924)],
    )
    def test_refuses_before_integrating(self, monkeypatch, p, n, terms):
        def no_step(*args):
            raise AssertionError("integrated past the limit")

        monkeypatch.setattr(MultiPoly, "integrate", no_step)
        with pytest.raises(ResourceLimitError, match=rf"would hold {terms} terms"):
            symbolic_pn_pickup(p, n)

    @pytest.mark.parametrize(("p", "n"), [(2, 32), (3, 15), (4, 12), (5, 11), (7, 11)])
    def test_admits_the_largest_systems_inside(self, p, n):
        i, _ = next(integration_chain(p, n))
        assert i == n


class TestVanishingIntermediates:
    @pytest.mark.parametrize(("p", "n"), [(2, 4), (2, 6), (3, 5), (4, 6)])
    def test_partial_integrals_vanish(self, p, n):
        assert intermediates_vanish_at_max(p, n)

    @pytest.mark.parametrize(("p", "n"), [(2, 4), (3, 5)])
    def test_shifted_cap_is_caught(self, monkeypatch, p, n):
        # every cap off by 1/100: pinning a stick there leaves a nonzero slab
        inner = oracle._upper_bound

        def shifted(p, n, i):
            constant, coeffs, den = inner(p, n, i)
            return 100 * constant + den, tuple(100 * c for c in coeffs), 100 * den

        monkeypatch.setattr(oracle, "_upper_bound", shifted)
        assert not intermediates_vanish_at_max(p, n)

    def test_chain_ends_univariate(self):
        last = None
        for _, poly in integration_chain(2, 5):
            last = poly
        assert all(
            not any(expo[1:]) for expo in last.terms
        ), "final integrand must depend on the shortest stick only"


class TestExponentialRates:
    @pytest.mark.parametrize(("p", "n"), [(2, 253), (3, 1003), (6, 200)])
    def test_tail_chain_at_bigint_sizes(self, p, n):
        rates = exponential_rates(p, n)
        assert rates == s_constants(p, n) + (1,)
        assert Fraction(factorial(n), _product(rates)) == pn_broken(p, n).fraction

    @pytest.mark.parametrize(("p", "n"), [(1, 5), (3, 3), (3, 2), (2, 5.0)])
    def test_rejects_bad_arguments(self, p, n):
        with pytest.raises(DomainError):
            exponential_rates(p, n)


class TestRVector:
    def test_initial_vector(self):
        assert r_vector(2, 1) == (1, 1)

    def test_single_step(self):
        assert r_vector(3, 2) == (3, 2, 1)
        assert r_vector(3, 2)[2] == fib(3, 2)

    def test_last_entry_is_fibonacci(self):
        assert r_vector(2, 6)[-1] == fib(2, 6) == 8

    def test_closed_forms(self):
        for p in range(2, 7):
            for l in range(1, 31):
                r = r_vector(p, l)
                assert r[p - 1] == fib(p, l)
                assert r[p - 2] == fib(p, l + 1)
                for i in range(1, p - 1):
                    expected = fib(p, l + p - i) - sum(
                        (p - i - j) * fib(p, l + j - 1) for j in range(1, p - i)
                    )
                    assert r[i - 1] == expected

    def test_entries_nonnegative(self):
        for p in (2, 4, 6):
            for l in range(1, 20):
                assert all(v >= 0 for v in r_vector(p, l))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            r_vector(1, 3)
        with pytest.raises(DomainError):
            r_vector(3, 0)
