"""Acceptance criteria, one test per criterion.

Each test runs the named checks behind ``stickprob verify`` and prints a
single pass/fail line (visible with ``pytest -s`` or in the failure
report).  Tolerances: every algebraic criterion is exact with zero
tolerance; the Monte Carlo criterion allows 4 standard errors with one
retry at tenfold trials.
"""

import time
from fractions import Fraction

import pytest

from stickprob import verify
from stickprob.closedform import pn_broken
from stickprob.verify import CheckResult


def _report(criterion: str, *checks: CheckResult, note: str = "") -> None:
    failures = [f"{check.name}: {check.detail}" for check in checks if not check.passed]
    line = f"[acceptance] {criterion}: {'FAIL' if failures else 'PASS'}"
    detail = "; ".join(failures) or note
    if detail:
        line += f"  ({detail})"
    print(line)
    assert not failures, line


def _within(budget_s: float, start: float) -> CheckResult:
    elapsed = time.perf_counter() - start
    return CheckResult("budget", elapsed < budget_s, f"took {elapsed:.3g}s, budget {budget_s:g}s")


def test_c01_exact_formula_reproduction():
    start = time.perf_counter()
    checks = (
        verify.check_triangle_product_inverts_fibonorial(),
        verify.check_quadrilateral_form_agrees(),
    )
    budget = _within(1.0, start)
    _report("C1 exact formula reproduction (p=2,3; n<=20)", *checks, budget,
            note=budget.detail)


def test_c02_no_ngon_reduces_to_factorial():
    _report(
        "C2 pickup reduction PN(n-1, n) = 1/(n-1)!",
        verify.check_all_gone_reduction_factorial(),
    )


def test_c03_broken_stick_reductions():
    literal = pn_broken(2, 3).fraction
    _report(
        "C3 broken reductions PN(n-1, n) = n/2^(n-1), PN(2,3) = 3/4",
        verify.check_broken_reduction_power_of_two(),
        CheckResult("broken_p2_n3", literal == Fraction(3, 4), f"PN broken (2,3) = {literal}"),
    )


def test_c04_exponential_equals_broken():
    _report(
        "C4 exponential model equals broken stick (p<=7, n<=20)",
        verify.check_exponential_matches_broken(),
    )


def test_c05_triple_derivation_of_m():
    _report(
        "C5 three derivations of m agree (p<=6, n<=30)",
        verify.check_triple_derivation_of_m(),
    )


def test_c06_symbolic_integration_oracle():
    start = time.perf_counter()
    checks = (
        verify.check_symbolic_integration_matches_closed_form(),
        verify.check_symbolic_truncated_matches_closed_form(),
    )
    budget = _within(60.0, start)
    _report("C6 symbolic integration oracle matches closed forms", *checks, budget,
            note=budget.detail)


def test_c07_matrix_recurrence_closed_forms():
    _report(
        "C7 matrix recurrence entries match step-Fibonacci forms (p<=6, l<=30)",
        verify.check_matrix_recurrence_matches_step_fib(),
    )


def test_c08_interval_identity_on_random_prefixes():
    _report(
        "C8 interval telescoping identity on the bound forms",
        verify.check_interval_telescoping_identity(),
    )


def test_c09_monte_carlo_concordance():
    pytest.importorskip("numpy")
    results = verify.run_concordance(trials=10**6, workers=4)
    _report(
        "C9 Monte Carlo concordance at 1e6 trials (4 sigma, 1e7 retry)",
        *results,
        note=f"{len(results)} targets",
    )


def test_c10_reproducibility_across_workers():
    pytest.importorskip("numpy")
    _report(
        "C10 seed 42 at 1e6 trials is bit-identical for 1, 4, 8 workers",
        verify.check_workers_bit_identical(10**6, 42),
    )
