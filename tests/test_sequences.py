import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from stickprob import sequences, verify
from stickprob.cli import cli
from stickprob.errors import DomainError
from stickprob.sequences import StepFibTable, fib, fib_prefix_sum, t_value


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty memo tables for this test only; the shared ones come back after."""
    monkeypatch.setattr(sequences, "_TABLES", {})


def _t_reference(p, k):
    # the recurrence rebuilt from t_1 on every call, as a reference
    vals = [0] * (p - 1) + [1]
    for _ in range(k - 1):
        vals.append(1 + sum(vals[-p:]))
    return vals[-1]


@pytest.mark.parametrize(
    ("p", "expected"),
    [
        (2, [1, 1, 2, 3, 5, 8]),
        (3, [1, 1, 2, 4, 7, 13]),
        (4, [1, 1, 2, 4, 8, 15]),
    ],
)
def test_fib_first_values(p, expected):
    assert [fib(p, i) for i in range(1, 7)] == expected


def test_fib_initial_zero_block():
    assert fib(5, 0) == 0
    assert [fib(4, i) for i in range(-2, 1)] == [0, 0, 0]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fib_rejects_indices_below_block(p):
    with pytest.raises(DomainError):
        fib(p, 1 - p)


def test_fib_rejects_small_p():
    with pytest.raises(DomainError):
        fib(1, 3)
    with pytest.raises(DomainError):
        StepFibTable(0)


@given(st.integers(2, 6), st.integers(2, 60))
def test_fib_recurrence(p, i):
    assert fib(p, i) == sum(fib(p, i - j) for j in range(1, p + 1))


def test_fib_nondecreasing_and_positive():
    for p in range(2, 7):
        values = [fib(p, i) for i in range(1, 50)]
        assert all(v >= 1 for v in values)
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_fib_doubles_inside_initial_window():
    for p in range(2, 9):
        for i in range(2, p + 1):
            assert fib(p, i + 1) == 2 * fib(p, i)


def test_prefix_sum_values():
    assert [fib_prefix_sum(2, i) for i in range(1, 6)] == [1, 2, 4, 7, 12]
    assert fib_prefix_sum(2, 1) == 1
    assert fib_prefix_sum(3, 4) == 8


def test_prefix_sum_rejects_nonpositive_index():
    with pytest.raises(DomainError):
        fib_prefix_sum(2, 0)


@given(st.integers(2, 6), st.integers(2, 40))
def test_prefix_sum_telescopes(p, i):
    assert fib_prefix_sum(p, i) - fib_prefix_sum(p, i - 1) == fib(p, i)


def test_t_values():
    assert [t_value(2, k) for k in range(1, 5)] == [1, 2, 4, 7]
    assert t_value(2, 3) == fib(2, 5) - 1
    assert t_value(3, 2) == 2


def test_t_rejects_bad_arguments():
    with pytest.raises(DomainError):
        t_value(2, 0)
    with pytest.raises(DomainError):
        t_value(1, 3)


def test_t_equals_prefix_sum():
    for p in range(2, 7):
        for k in range(1, 41):
            assert t_value(p, k) == fib_prefix_sum(p, k)


def test_fibonacci_shift_identity_for_t():
    # t_k for p=2 is F_{k+2} - 1
    for k in range(1, 30):
        assert t_value(2, k) == fib(2, k + 2) - 1


def test_weighted_tail_collapses_to_index():
    # q == F_{q+1} - sum_{j=1}^{q-2} j F_{q-j} for every q up to p
    for p in range(3, 11):
        for q in range(3, p + 1):
            tail = sum(j * fib(p, q - j) for j in range(1, q - 1))
            assert q == fib(p, q + 1) - tail


def test_table_shared_across_threads():
    table = StepFibTable(3)
    results = []

    def worker():
        results.append([table.fib(i) for i in range(1, 200)])

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)


def test_values_exceed_machine_integers():
    assert fib(2, 200) > 2**128
    assert fib_prefix_sum(6, 200) > 2**128


def test_tables_answer_out_of_order(fresh_tables):
    high, low = fib_prefix_sum(3, 500), fib_prefix_sum(3, 2)
    assert low == 2
    assert high == sum(fib(3, i) for i in range(1, 501))
    assert t_value(4, 900) == _t_reference(4, 900)
    assert t_value(4, 1) == 1
    assert [t_value(4, k) for k in (7, 3, 899, 5)] == [
        _t_reference(4, k) for k in (7, 3, 899, 5)
    ]
    table = StepFibTable(5)
    assert table.prefix_sum(300) == sum(table.fib(i) for i in range(1, 301))
    assert [table.prefix_sum(i) for i in (4, 1, 299)] == [
        sum(table.fib(i) for i in range(1, j + 1)) for j in (4, 1, 299)
    ]


def test_indices_below_range_rejected_on_warm_tables(fresh_tables):
    fib_prefix_sum(3, 50)
    t_value(3, 50)
    for bad in (0, -1, -7):
        with pytest.raises(DomainError):
            fib_prefix_sum(3, bad)
        with pytest.raises(DomainError):
            t_value(3, bad)
    with pytest.raises(DomainError):
        fib(3, -2)
    with pytest.raises(DomainError):
        t_value(1, 5)


def test_four_threads_extend_fresh_tables_alike(fresh_tables):
    table = StepFibTable(3)
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(slot):
        order = list(range(1, 400))
        random.Random(slot).shuffle(order)
        start.wait(timeout=10)
        results[slot] = (
            {i: table.prefix_sum(i) for i in order},
            {i: t_value(3, i) for i in order},
            {i: table.fib(i) for i in order},
        )

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r == results[0] for r in results)
    sums, ts, fibs = results[0]
    assert sums[399] == sum(fibs[i] for i in range(1, 400))
    assert ts[399] == _t_reference(3, 399)
    assert table._sums == [0] + [sums[i] for i in range(1, 400)]


def _fib_reference(p, i):
    # the bare recurrence over the whole zero block, as a reference
    vals = [0] * (p - 1) + [1]
    for _ in range(i - 1):
        vals.append(sum(vals[-p:]))
    return vals[-1]


@pytest.mark.parametrize("p", range(2, 13))
def test_tables_match_the_bare_recurrence(fresh_tables, p):
    table = StepFibTable(p)
    assert [table.fib(i) for i in range(1, 301)] == [_fib_reference(p, i) for i in range(1, 301)]
    assert [t_value(p, k) for k in range(1, 301)] == [_t_reference(p, k) for k in range(1, 301)]


@pytest.mark.parametrize("p", [2, 3, 7, 100, 100000])
def test_terms_double_inside_the_first_window(fresh_tables, p):
    # F_i = 2^(i-2) for 2 <= i <= p + 1, and F_(p+2) sums all of them but F_1
    table = StepFibTable(p)
    last = min(p + 1, 20000)
    for i in sorted({2, 3, max(2, last // 2), last - 1, last}):
        assert table.fib(i) == 2 ** (i - 2)
        assert table.prefix_sum(i) == t_value(p, i) == 2 ** (i - 1)
    if p < 20000:
        assert table.fib(p + 2) == 2**p - 1
        assert t_value(p, p + 2) == 2 ** (p + 1) - 1


def _constants_fib_cli():
    res = CliRunner().invoke(cli, ["constants", "fib", "--p", "10000000", "--i", "1"])
    assert res.exit_code == 0, res.output
    return res.output


@pytest.mark.parametrize("call", [
    lambda: StepFibTable(10**6).fib(1),
    lambda: t_value(10**6, 1),
    _constants_fib_cli,
], ids=["table", "t_value", "cli"])
def test_large_p_stores_no_zero_block(fresh_tables, call):
    # the p - 1 zeros before index 1 would take 8 bytes each
    call()  # imports and first-call caches outside the measured run
    sequences._TABLES.clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_non_int_p_refused_on_warm_tables(fresh_tables):
    # an equal float or Fraction would find the int key's table
    fib(2, 5)
    for call in (lambda: fib(2.0, 5), lambda: fib_prefix_sum(Fraction(2), 5),
                 lambda: t_value(2.0, 3)):
        with pytest.raises(DomainError):
            call()


# Mutants of the one table: each runs on fresh tables and must fail the
# exact verify suite.  Every p reads one step-Fibonacci table, so the
# exponential model's checks see a fault in it too: t_matches_prefix_sums
# and exponential_matches_broken hold the tail-chain rates, which read no
# table, against it.  The vector and Jacobian routes read no table either.


def _failed_exact_checks():
    return {r.name: r.detail for r in verify.run_suite("exact") if not r.passed}


def _extend_window_one_too_wide(self, i):
    with self._lock:
        sums = self._sums
        while i >= len(sums):
            low = len(sums) - 2 - self.p
            sums.append(2 * sums[-1] - (sums[low] if low > 0 else 0))
    return sums


def test_exact_suite_catches_window_one_too_wide(fresh_tables, monkeypatch):
    """The loop summing p + 1 terms fails the routes that read no table."""
    monkeypatch.setattr(StepFibTable, "_extend", _extend_window_one_too_wide)
    failed = _failed_exact_checks()
    assert {"e_vector_leads_with_step_fib", "s_matches_vector_route",
            "triple_derivation_of_m"} <= failed.keys()
    assert failed["t_matches_prefix_sums"] == (
        "p=2 i=1; p=2 i=2; p=2 i=3; p=2 i=4; and 171 more")
    assert failed["exponential_matches_broken"] == (
        "p=2 n=4; p=2 n=5; p=2 n=6; p=2 n=7; and 58 more")


def test_exact_suite_catches_one_wrong_step_fib_term(fresh_tables, monkeypatch):
    """F_9 one too large in the step-Fibonacci table."""
    fib = StepFibTable.fib
    monkeypatch.setattr(StepFibTable, "fib", lambda self, i: fib(self, i) + (i == 9))
    failed = _failed_exact_checks()
    assert {"e_vector_leads_with_step_fib", "triple_derivation_of_m"} <= failed.keys()
