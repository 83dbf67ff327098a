"""Inputs and outputs past CPython's int->str digit limit are refused with
the package's own errors, never a bare ValueError."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stickprob.closedform import ExactProb, pn_pickup, pn_pickup_truncated
from stickprob.errors import DomainError, ResourceLimitError
from stickprob.oracle import symbolic_pn_truncated

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def default_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "a", [Fraction(10**5000), Fraction(-(10**5000)), Fraction(-1, 10**5000)],
    ids=["huge", "huge-negative", "tiny-negative"],
)
@pytest.mark.parametrize("evaluate", [pn_pickup_truncated, symbolic_pn_truncated])
def test_unprintable_out_of_range_truncation_is_a_domain_error(default_limit, evaluate, a):
    with pytest.raises(DomainError, match=r"^truncation point a must be in \[0, 1\), got ") as info:
        evaluate(2, 3, a)
    assert "too long to print" in str(info.value)


def test_decimal_refuses_digits_at_the_interpreter_limit(default_limit):
    prob = ExactProb(1, 3)
    sys.set_int_max_str_digits(1000)
    assert prob.decimal(999) == "0." + "3" * 999
    with pytest.raises(ResourceLimitError, match="int->str digit limit"):
        prob.decimal(1000)
    sys.set_int_max_str_digits(0)  # no limit: only the work bound applies
    assert len(ExactProb(1, 1).decimal(4000)) == 4002
    with pytest.raises(ResourceLimitError, match=r"^digits must be <= 4000, got 4001$"):
        prob.decimal(4001)


def test_decimal_digits_past_a_lowered_limit_exit_2():
    assert len(str(pn_pickup(2, 30).denominator)) < 1000  # the exact part still prints
    proc = subprocess.run(
        [sys.executable, "-m", "stickprob.cli", "compute", "pn", "--p", "2", "--n", "30",
         "--decimal-digits", "2000"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS="1000"),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "int->str digit limit" in proc.stderr
