import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from stickprob import constraints, verify
from stickprob.constraints import (
    BOUND_MODELS,
    bounds,
    check_max_min_identity,
    e_vector,
    m_constants,
    m_constants_via_jacobian,
    max_length_form,
    min_length_form,
    s_constants,
    sample_feasible_prefix,
    validate_prefix,
)
from stickprob.errors import DomainError, InfeasiblePrefixError
from stickprob.montecarlo import estimate
from stickprob.oracle import symbolic_pn_pickup
from stickprob.sequences import fib, fib_prefix_sum
from stickprob.specs import MODELS, RANDOM_SUBSET_POLYGON, DistributionSpec, EventSpec

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("p", [1, 0, -3])
@pytest.mark.parametrize("call", [
    lambda p: e_vector(p, 1),
    lambda p: min_length_form(p, 2),
    lambda p: max_length_form(p, 5, 1),
    lambda p: max_length_form(p, 5, 1, "broken"),
    lambda p: m_constants(p, 5),
    lambda p: s_constants(p, 5),
    lambda p: m_constants_via_jacobian(p, 5),
    lambda p: bounds(p, 5, ()),
    lambda p: validate_prefix(p, 5, ()),
])
def test_rejects_p_below_two(call, p):
    with pytest.raises(DomainError, match="p must be >= 2"):
        call(p)


_SUBSET_CALLS = {
    "constraints": lambda: m_constants(3, 3),
    "oracle": lambda: symbolic_pn_pickup(3, 3),
    "estimate": lambda: estimate(
        EventSpec(RANDOM_SUBSET_POLYGON, 3), DistributionSpec.uniform01(), 3, 10, 0
    ),
}


@pytest.mark.parametrize("site", _SUBSET_CALLS)
def test_subset_rule_has_one_message(site):
    """Every call site that needs p + 1 of the n sticks rejects n = p in the
    same words."""
    with pytest.raises(DomainError, match=r"^stick count n must be >= p \+ 1 = 4, got 3$"):
        _SUBSET_CALLS[site]()


class TestMinLengthForm:
    def test_first_stick_unconstrained(self):
        assert min_length_form(2, 1) == ()

    def test_window_sum(self):
        assert min_length_form(2, 5) == (0, 0, 1, 1)

    def test_ordering_below_window(self):
        assert min_length_form(4, 3) == (0, 1)

    def test_rejects_bad_index(self):
        with pytest.raises(DomainError):
            min_length_form(2, 0)
        with pytest.raises(DomainError):
            min_length_form(1, 3)


class TestEVector:
    def test_sum_of_two_units(self):
        assert e_vector(2, 2) == (1, 1)

    def test_recurrence_unrolls(self):
        assert e_vector(2, 4) == (3, 2)

    def test_unit_base_case(self):
        assert e_vector(3, 1) == (1, 0, 0)
        assert e_vector(3, 0) == (0, 1, 0)
        assert e_vector(3, -1) == (0, 0, 1)

    def test_rejects_below_block(self):
        with pytest.raises(DomainError):
            e_vector(3, -2)

    def test_leading_entry_is_step_fib(self):
        for p in range(2, 7):
            for k in range(1, 31):
                assert e_vector(p, k)[0] == fib(p, k)

    def test_long_chain_in_cold_process(self):
        code = (
            "from stickprob.constraints import e_vector\n"
            "from stickprob.sequences import fib\n"
            "print(e_vector(2, 3000)[0] == fib(2, 3000))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"


class TestMaxLengthForm:
    def test_fibonacci_shape(self):
        den, form = max_length_form(2, 5, 3)
        assert den == 2
        assert form == (0, 1)

    def test_short_chain_for_first_stick(self):
        den, form = max_length_form(2, 4, 1)
        assert den == 3
        assert form == ()

    def test_terminal_window(self):
        den, _ = max_length_form(3, 5, 4)
        assert den == 1

    def test_rejects_last_stick_and_beyond(self):
        for i in (0, 5, 6):
            with pytest.raises(DomainError):
                max_length_form(2, 5, i)

    def test_rejects_vacuous_system(self):
        with pytest.raises(DomainError):
            max_length_form(3, 3, 1)

    def test_p2_matches_fibonacci_pair_everywhere(self):
        for n in range(3, 21):
            for i in range(2, n):
                den, form = max_length_form(2, n, i)
                assert den == fib(2, n - i + 1)
                assert form[-1] == fib(2, n - i)
                assert not any(form[:-1])

    def test_broken_small_case(self):
        den, form = max_length_form(2, 3, 2, "broken")
        assert den == 2
        assert form == (2,)


class TestConstants:
    def test_m_values(self):
        assert m_constants(3, 5) == (5, 4, 2, 1, 1)
        assert m_constants(2, 6) == (8, 5, 3, 2, 1, 1)

    def test_m_terminal_is_one(self):
        for p in range(2, 6):
            for n in range(p + 1, 12):
                assert m_constants(p, n)[-1] == 1

    def test_m_rejects_vacuous(self):
        with pytest.raises(DomainError):
            m_constants(3, 3)

    def test_jacobian_values(self):
        assert m_constants_via_jacobian(3, 4) == (3, 2, 1, 1)
        assert m_constants_via_jacobian(2, 3) == (2, 1, 1)
        assert m_constants_via_jacobian(3, 5) == (5, 4, 2, 1, 1)

    def test_s_values(self):
        assert s_constants(2, 3) == (4, 2)
        assert s_constants(2, 4) == (7, 4, 2)
        assert s_constants(3, 4)[2] == fib_prefix_sum(3, 2) == 2

    def test_s_p2_is_prefix_sum_everywhere(self):
        for n in range(3, 21):
            values = s_constants(2, n)
            assert values == tuple(
                fib_prefix_sum(2, n - i + 1) for i in range(1, n)
            )

    def test_three_routes_agree(self):
        for p in range(2, 7):
            for n in range(p + 1, 16):
                closed = m_constants(p, n)
                assert closed == m_constants_via_jacobian(p, n)
                vector = tuple(
                    max_length_form(p, n, i)[0] for i in range(1, n)
                ) + (1,)
                assert closed == vector

    def test_broken_routes_agree(self):
        for p in range(2, 6):
            for n in range(p + 1, 14):
                assert s_constants(p, n) == tuple(
                    max_length_form(p, n, i, "broken")[0] for i in range(1, n)
                )

    def test_monotone_nonincreasing(self):
        for p in range(2, 7):
            for n in range(p + 1, 20):
                m = m_constants(p, n)
                assert all(a >= b for a, b in zip(m, m[1:]))
                assert m[-1] >= 1

    def test_nonincreasing_check_covers_both_models(self, monkeypatch):
        assert verify.check_denominators_nonincreasing().passed
        monkeypatch.setattr(verify, "s_constants", lambda p, n: (1,) * (n - 2) + (2,))
        result = verify.check_denominators_nonincreasing()
        assert not result.passed
        assert result.detail.startswith("s p=2 n=3")
        monkeypatch.setattr(verify, "m_constants", lambda p, n: (2,) * n)
        assert verify.check_denominators_nonincreasing().detail.startswith("m p=2 n=3")


class TestConstraintSystem:
    """The bound intervals of one (p, n, model) system, read by ``bounds``."""

    def test_bound_models_are_sampling_models(self):
        assert set(BOUND_MODELS) <= set(MODELS)

    def test_bounds_of_first_stick(self):
        assert bounds(2, 4, ()) == (0, Fraction(1, 3))

    def test_bounds_of_last_stick_pickup(self):
        prefix = (Fraction(1, 10), Fraction(1, 5), Fraction(1, 2))
        lo, hi = bounds(2, 4, prefix)
        assert lo == Fraction(7, 10)
        assert hi == 1

    def test_bounds_of_last_stick_broken(self):
        # the unit total leaves stick 4 exactly 1 - (1/8 + 1/8 + 1/4)
        prefix = (Fraction(1, 8), Fraction(1, 8), Fraction(1, 4))
        assert bounds(2, 4, prefix, "broken") == (Fraction(3, 8), Fraction(1, 2))
        assert validate_prefix(2, 4, prefix + (Fraction(1, 2),), "broken")
        message = r"l_4 = 1 outside \[3/8, 1/2\] \(broken, p=2, n=4\)"
        with pytest.raises(InfeasiblePrefixError, match=message):
            validate_prefix(2, 4, prefix + (1,), "broken")
        rng = Random(47)
        for p, n in ((2, 4), (3, 6), (4, 7)):
            prefix = sample_feasible_prefix(p, n, n - 1, rng, "broken")
            _, hi = bounds(p, n, prefix, "broken")
            assert hi == 1 - sum(prefix)
            assert validate_prefix(p, n, prefix + (hi,), "broken")

    def test_all_broken_pieces_total_one(self):
        # 3/8 sits inside stick 4's interval [3/8, 1/2], but the four pieces
        # then fall 1/8 short of the unit stick
        prefix = (Fraction(1, 8), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8))
        message = r"pieces total 7/8, not 1 \(broken, p=2, n=4\)"
        with pytest.raises(InfeasiblePrefixError, match=message):
            validate_prefix(2, 4, prefix, "broken")
        assert validate_prefix(2, 4, prefix, "pickup") == prefix

    def test_bounds_are_fractions_for_int_prefixes(self):
        for model, cap in (("pickup", 1), ("broken", Fraction(1, 2))):
            lo, hi = bounds(2, 4, (0, 0), model)
            assert (lo, hi) == (0, cap)
            assert type(lo) is Fraction and type(hi) is Fraction

    def test_float_prefix_raises(self):
        for model in BOUND_MODELS:
            with pytest.raises(DomainError, match="not floats"):
                bounds(2, 4, (0.1,), model)
            with pytest.raises(DomainError, match="not floats"):
                bounds(3, 6, (Fraction(1, 20), 0.1, Fraction(1, 5)), model)

    def test_bounds_read_strings_and_decimals_exactly(self):
        expected = bounds(2, 4, (Fraction(1, 10),))
        assert bounds(2, 4, ("1/10",)) == expected
        assert bounds(2, 4, (Decimal("0.1"),)) == expected

    def test_validate_prefix_makes_fractions_once(self):
        vals = validate_prefix(2, 4, (0.25, 0.375))
        assert vals == (Fraction(1, 4), Fraction(3, 8))
        assert all(type(x) is Fraction for x in vals)

    def test_validate_prefix_flags_violations(self):
        with pytest.raises(InfeasiblePrefixError, match=r"l_1 = 1/2 outside \[0, 1/3\]"):
            validate_prefix(2, 4, (Fraction(1, 2),))  # above the 1/3 cap
        message = r"l_2 = 1/2 outside \[0, 1/4\] \(broken, p=2, n=4\)"
        with pytest.raises(InfeasiblePrefixError, match=message):
            validate_prefix(2, 4, (0, Fraction(1, 2)), "broken")

    def test_validate_prefix_rejects_overlong_prefix(self):
        with pytest.raises(DomainError, match="prefix longer than n = 4"):
            validate_prefix(2, 4, (0,) * 5)

    def test_models_share_min_forms(self):
        rng = Random(31)
        for p, n in ((2, 5), (3, 6), (4, 7)):
            for k in range(n):
                prefix = sample_feasible_prefix(p, n, k, rng, "broken") if k else ()
                pick, broke = bounds(p, n, prefix), bounds(p, n, prefix, "broken")
                assert pick[0] == broke[0]
                assert broke[1] <= pick[1]

    def test_prefix_selects_a_stick(self):
        with pytest.raises(DomainError, match="valid range 1..4"):
            bounds(2, 4, (0,) * 4)

    def test_rejects_unknown_model(self):
        with pytest.raises(DomainError):
            bounds(2, 4, (), "bent")


@pytest.mark.parametrize(
    "length", [None, "x", object(), float("nan"), float("inf")],
    ids=["None", "str", "object", "nan", "inf"],
)
@pytest.mark.parametrize(
    "call", [bounds, validate_prefix, check_max_min_identity],
    ids=lambda call: call.__name__,
)
def test_length_not_a_finite_rational_is_a_domain_error(call, length):
    with pytest.raises(DomainError) as info:
        call(2, 4, (length,))
    if not (call is bounds and isinstance(length, float)):  # "not floats" there
        assert repr(length) in str(info.value)


class TestMaxMinIdentity:
    def test_worked_example(self):
        assert check_max_min_identity(2, 4, (Fraction(1, 10), Fraction(1, 5)))

    def test_zero_length_prefix(self):
        assert check_max_min_identity(2, 3, (0,))

    def test_random_feasible_prefixes(self):
        rng = Random(20240917)
        for p, n in ((2, 4), (2, 6), (3, 5), (3, 6), (4, 6)):
            for _ in range(40):
                k = rng.randint(1, n - 1)
                prefix = sample_feasible_prefix(p, n, k, rng)
                assert check_max_min_identity(p, n, prefix)

    def test_broken_model_up_to_second_last(self):
        rng = Random(7)
        for p, n in ((2, 4), (2, 5), (3, 5)):
            for _ in range(40):
                k = rng.randint(1, n - 2)
                prefix = sample_feasible_prefix(p, n, k, rng, model="broken")
                assert check_max_min_identity(p, n, prefix, model="broken")

    def test_infeasible_prefix_rejected(self):
        with pytest.raises(InfeasiblePrefixError):
            check_max_min_identity(2, 4, (Fraction(9, 10),))

    def test_prefix_length_out_of_range(self):
        with pytest.raises(DomainError):
            check_max_min_identity(2, 4, ())
        with pytest.raises(DomainError):
            check_max_min_identity(
                2, 4, (Fraction(1, 100), Fraction(1, 50), Fraction(1, 10), Fraction(1, 2))
            )


def _evaluate(form, lengths):
    """The reference route: a bound form's value at exact lengths."""
    return sum((c * x for c, x in zip(form, lengths, strict=True)), Fraction(0))


class TestIntegerCore:
    """The bound table holds integers only, and ``bounds`` agrees with
    evaluating its forms on Fractions, the reference route through
    ``_evaluate``, at every stick."""

    @pytest.mark.parametrize("model", BOUND_MODELS)
    def test_table_holds_only_ints(self, model):
        for p in range(2, 7):
            for n in range(p + 1, 31):
                mins, denominators, numerators = constraints._bound_table(p, n, model)
                for values in (*mins, denominators, *numerators):
                    assert all(type(c) is int for c in values), (p, n, values)

    @pytest.mark.parametrize("model", BOUND_MODELS)
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_matches_fraction_evaluation(self, p, model):
        rng = Random(4000 + p)
        for n in range(p + 1, 9):
            mins, denominators, numerators = constraints._bound_table(p, n, model)
            for k in range(1, n):
                for grid in (1, 7, 64):
                    for _ in range(3):
                        prefix = sample_feasible_prefix(p, n, k, rng, model, grid)
                        for j in range(k + 1):
                            head = prefix[:j]
                            lo = _evaluate(mins[j], head)
                            hi = (1 - _evaluate(numerators[j], head)) / denominators[j]
                            assert bounds(p, n, head, model) == (lo, hi)

    def test_float_raises_even_where_no_form_reads_it(self):
        # stick 4 of (2, 5) reads only l_2 and l_3
        with pytest.raises(DomainError, match="not floats"):
            bounds(2, 5, (0.1, Fraction(1, 10), Fraction(1, 5)))


def _raise_interior_m(m_constants):
    def mutated(p, n):
        m = list(m_constants(p, n))
        if len(m) > 2:
            m[1] += 1
        return tuple(m)
    return mutated


def _raise_first_coefficient_of_stick_3(max_length_form):
    def mutated(p, n, i, model="pickup"):
        den, form = max_length_form(p, n, i, model)
        if i == 3:
            form = (form[0] + 1,) + form[1:]
        return den, form
    return mutated


def _raise_broken_coefficient_beyond_sampling(max_length_form):
    # stick 4's l_1 coefficient at broken p=5, n=9: no sampled prefix reaches it
    def mutated(p, n, i, model="pickup"):
        den, form = max_length_form(p, n, i, model)
        if model == "broken" and (p, n, i) == (5, 9, 4):
            form = (form[0] + 1,) + form[1:]
        return den, form
    return mutated


class TestTelescopingCheckCatchesMutations:
    """A wrong bound denominator or numerator coefficient makes the exact
    suite's telescoping check fail, and no other check, at the two sticks
    whose form comparison reads it: the identity at stick i reads stick i's
    forms and stick i-1's."""

    @pytest.mark.parametrize(("name", "mutate", "detail"), [
        ("m_constants", _raise_interior_m,
         "pickup p=2 n=3 i=2; pickup p=2 n=3 i=3; pickup p=2 n=4 i=2; "
         "pickup p=2 n=4 i=3; and 80 more"),
        ("max_length_form", _raise_first_coefficient_of_stick_3,
         "pickup p=2 n=4 i=3; pickup p=2 n=4 i=4; pickup p=2 n=5 i=3; "
         "pickup p=2 n=5 i=4; and 159 more"),
        ("max_length_form", _raise_broken_coefficient_beyond_sampling,
         "broken p=5 n=9 i=4; broken p=5 n=9 i=5"),
    ], ids=["interior_m", "stick_3_coefficient", "broken_p5_coefficient"])
    def test_exact_suite_reports_the_mutation(self, monkeypatch, name, mutate, detail):
        monkeypatch.setattr(constraints, name, mutate(getattr(constraints, name)))
        constraints._bound_table.cache_clear()
        try:
            results = verify.run_suite("exact")
        finally:
            constraints._bound_table.cache_clear()
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["interval_telescoping_identity"]
        assert failed[0].detail == detail


def _shrink_cap_of_stick_3(bounds):
    def mutated(p, n, prefix, model="pickup"):
        lo, hi = bounds(p, n, prefix, model)
        if len(prefix) == 2:
            hi *= Fraction(999, 1000)
        return lo, hi
    return mutated


class TestSpotCheckReadsBounds:
    """The telescoping check's spot check runs through ``bounds``: a wrong
    cap there leaves every bound form intact, and fails the check on a
    sampled prefix."""

    def test_shrunk_cap_of_stick_3_is_caught(self, monkeypatch):
        monkeypatch.setattr(constraints, "bounds", _shrink_cap_of_stick_3(bounds))
        result = verify.check_interval_telescoping_identity()
        assert not result.passed
        assert "prefix=" in result.detail
        assert " i=" not in result.detail  # the proof on the forms still holds


class TestFeasibleSampling:
    def test_prefixes_validate(self):
        rng = Random(99)
        for model in ("pickup", "broken"):
            for _ in range(50):
                k = rng.randint(1, 6)
                prefix = sample_feasible_prefix(3, 7, k, rng, model=model)
                assert validate_prefix(3, 7, prefix, model) == prefix

    def test_rejects_bad_length(self):
        with pytest.raises(DomainError):
            sample_feasible_prefix(2, 4, 4, Random(0))

    def test_rejects_empty_grid(self):
        with pytest.raises(DomainError, match="max_denominator must be >= 1"):
            sample_feasible_prefix(2, 4, 1, Random(0), max_denominator=0)
