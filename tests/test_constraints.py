import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stickprob import verify
from stickprob.closedform import _product, pn_pickup
from stickprob.constraints import (
    BOUND_MODELS,
    e_vector,
    m_constants,
    m_constants_via_jacobian,
    max_length_form,
    min_length_form,
    s_constants,
)
from stickprob.errors import DomainError
from stickprob.oracle import r_vector, symbolic_pn_pickup
from stickprob.sequences import fib, fib_prefix_sum, t_value
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
])
def test_rejects_p_below_two(call, p):
    with pytest.raises(DomainError, match="p must be >= 2"):
        call(p)


@pytest.mark.parametrize(
    "index", [3.0, Fraction(3), True, None, "3"],
    ids=["float", "Fraction", "bool", "None", "str"],
)
@pytest.mark.parametrize("call", [
    lambda i: fib(2, i),
    lambda i: fib_prefix_sum(2, i),
    lambda i: t_value(2, i),
    lambda i: min_length_form(2, i),
    lambda i: max_length_form(2, 5, i),
    lambda i: e_vector(2, i),
    lambda i: r_vector(2, i),
], ids=["fib", "fib_prefix_sum", "t_value", "min_length_form", "max_length_form",
        "e_vector", "r_vector"])
def test_rejects_non_int_index(call, index):
    """An index, like p and n, must be a plain int: a float, Fraction,
    bool, None or str is a DomainError, not a bare TypeError or a silent
    answer."""
    with pytest.raises(DomainError, match="must be an int"):
        call(index)


_SUBSET_CALLS = {
    "constraints": lambda: m_constants(3, 3),
    "oracle": lambda: symbolic_pn_pickup(3, 3),
    # the one site that needs numpy: skipped where it cannot be imported
    "estimate": lambda: pytest.importorskip("stickprob.montecarlo").estimate(
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

    @pytest.mark.parametrize(("p", "n"), [(2, 253), (3, 1003), (6, 200)])
    def test_jacobian_walk_at_bigint_sizes(self, p, n):
        jac = m_constants_via_jacobian(p, n)
        assert jac == m_constants(p, n)
        assert Fraction(1, _product(jac)) == pn_pickup(p, n).fraction

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
    def test_bound_models_are_sampling_models(self):
        assert set(BOUND_MODELS) <= set(MODELS)


class TestIntegerCore:
    """The bound forms and denominators hold integers only."""

    @pytest.mark.parametrize("model", BOUND_MODELS)
    def test_table_holds_only_ints(self, model):
        for p in range(2, 7):
            for n in range(p + 1, 31):
                dens = m_constants(p, n) if model == "pickup" else s_constants(p, n)
                forms = [min_length_form(p, i) for i in range(1, n + 1)]
                for i in range(1, n):
                    den, form = max_length_form(p, n, i, model)
                    forms += [(den,), form]
                for values in (dens, *forms):
                    assert all(type(c) is int for c in values), (p, n, values)
