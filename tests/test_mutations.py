"""The mutation table: the exact verify suite's contract.

Each row is a fault patched into the package, as (target, attribute,
mutant) triples, with the exact set of checks that the exact verify suite
must fail under it.  A row's expectation maps each failing check to its
detail string where the row pins one, or to ``COMPARED`` or ``RAISED``,
which say only how the check failed: by its own comparison, or because
the check raised (``_guarded`` then reports ``raised <Exception>: ...``).
Every row runs on fresh sequence tables, so a mutated table never reaches
another test.

The contract: every name in ``EXACT_CHECKS`` fails by comparison under at
least one row, except the checks in ``AWAITING_RETIREMENT``, which no row
may make fail by comparison.  So a new check needs a row it catches, and
a check that no fault can fail is code to delete.  A row with no failing
check documents a gap, and names the ROADMAP item that closes it.

No row may depend on the ``assert`` in ``pn_pickup``, which ``python -O``
strips: a fault in the m-vector is patched into ``constraints`` and
``verify`` only, where that ``assert`` never sees it.  The table passes
under ``python`` and under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import pytest

from stickprob import closedform, constraints, sequences, verify
from stickprob.closedform import (
    ExactProb,
    _product,
    pa_pickup,
    pn_broken,
    pn_exponential,
    pn_pickup,
    pn_pickup_truncated,
    pr_pickup,
)
from stickprob.constraints import (
    _tail_corrected,
    _window,
    m_constants,
    max_length_form,
    min_length_form,
)
from stickprob.sequences import StepFibTable, fib_prefix_sum

_fib = StepFibTable.fib

# a detail that starts with RAISED is that of a check that raised
RAISED = "raised "
COMPARED = "failed by its own comparison"

# Checks that no row makes fail by its own comparison, kept until they are
# retired; retiring one changes ``verify --suite exact`` stdout, so it goes
# with the benchmark revision (ROADMAP item 5).
AWAITING_RETIREMENT = frozenset({
    # every value it samples is an ExactProb, whose constructor already
    # refuses a fraction out of [0, 1] or not in lowest terms, so a wrong
    # evaluator makes it raise (s_one_index_late), never compare unequal
    "probabilities_reduced_and_in_range",
    # the truncated rows halve the form past its grid (n <= 6) or push it
    # out of [0, 1], where it raises; symbolic_truncated_matches_closed_form
    # catches both by comparison
    "truncated_nonincreasing_in_cutoff",
})


@dataclass(frozen=True)
class Row:
    id: str
    patches: tuple  # (target, attribute, mutant) triples
    fails: dict  # check name -> pinned detail, COMPARED or RAISED
    waiting_on: str = ""  # the ROADMAP item that closes a gap


def _everywhere(name, mutant):
    # verify binds the evaluators by name, so a mutant replaces both bindings
    return ((closedform, name, mutant), (verify, name, mutant))


def _scaled(evaluator, factor, when):
    def mutant(*args):
        prob = evaluator(*args)
        return ExactProb.from_fraction(prob.fraction * factor) if when(*args) else prob
    return mutant


def _halved(evaluator, when):
    return _scaled(evaluator, Fraction(1, 2), when)


def _pr_wrong_from_4(p):
    return ExactProb.from_fraction(1 - Fraction(2, factorial(p))) if p >= 4 else pr_pickup(p)


def _extend_window_one_too_wide(self, i):
    with self._lock:
        sums = self._sums
        while i >= len(sums):
            low = len(sums) - 2 - self.p
            sums.append(2 * sums[-1] - (sums[low] if low > 0 else 0))
    return sums


def _f9_one_too_large(self, i):
    return _fib(self, i) + (i == 9)


def _raise_interior_m(p, n):
    m = m_constants(p, n)
    return m[:1] + (m[1] + 1,) + m[2:] if len(m) > 2 else m


def _raise_m_1_from_n_25(p, n):
    m = m_constants(p, n)
    return (m[0] + 1,) + m[1:] if n >= 25 else m


def _reversed_m(p, n):
    return m_constants(p, n)[::-1]


def _s_one_index_late(p, n):
    # s_i read as SF_{n-i}, one index past SF_{n-i+1}
    return _tail_corrected(lambda p, k: fib_prefix_sum(p, k - 1), p, n, n - 1)


def _edit_max_form(edit):
    def mutated(p, n, i, model="pickup"):
        den, form = max_length_form(p, n, i, model)
        return den, edit(p, n, i, model, form)
    return mutated


def _drop_oldest_window_term(p, i):
    # the l_{i-p} coefficient of stick i's window sum, from stick p+2 on
    form = min_length_form(p, i)
    return form[: i - p - 1] + (0,) + form[i - p :] if i >= p + 2 else form


def _window_drops_oldest_stick(p, i):
    # stick i's window loses its oldest stick, i-p, from stick p+1 on
    return _window(p, i)[1:] if i > p else _window(p, i)


def _truncated_rescale_inverted(p, n, a):
    # (1 - a)^n / (1 - m_1 a)^n in place of its inverse
    a = Fraction(a)
    m = m_constants(p, n)
    if m[0] * a >= 1:
        return ExactProb(0, 1)
    return ExactProb.from_fraction(((1 - a) / (1 - m[0] * a)) ** n / _product(m))


ROWS = (
    # evaluators wrong only past the sizes most checks reach
    Row("pn_broken_halved_past_n_12",
        _everywhere("pn_broken", _halved(pn_broken, lambda p, n: n >= 13)),
        {"exponential_matches_broken": "p=2 n=13; p=2 n=14; p=2 n=15; p=2 n=16; and 44 more"}),
    Row("pn_broken_halved_from_p_6",
        _everywhere("pn_broken", _halved(pn_broken, lambda p, n: p >= 6 and n > p + 1)),
        {"exponential_matches_broken": "p=6 n=8; p=6 n=9; p=6 n=10; p=6 n=11; and 21 more"}),
    Row("pn_broken_halved_at_n_p_plus_1_from_p_8",
        _everywhere("pn_broken", _halved(pn_broken, lambda p, n: p >= 8 and n == p + 1)),
        {"broken_reduction_power_of_two": COMPARED}),
    Row("pn_exponential_halved_past_n_12",
        _everywhere("pn_exponential", _halved(pn_exponential, lambda p, n: n >= 13)),
        {"exponential_matches_broken": "p=2 n=13; p=2 n=14; p=2 n=15; p=2 n=16; and 44 more"}),
    Row("pn_pickup_halved_p_4_to_6_past_n_7",
        _everywhere("pn_pickup", _halved(pn_pickup, lambda p, n: 4 <= p <= 6 and n >= 8)),
        {"symbolic_integration_matches_closed_form": "p=4 n=8; p=5 n=8; p=6 n=8"}),
    # the two triangle and quadrilateral forms read fib on both sides, yet
    # they are the only checks of the evaluator at p = 2, 3 past n = 7
    Row("pn_pickup_halved_p_2_past_n_7",
        _everywhere("pn_pickup", _halved(pn_pickup, lambda p, n: p == 2 and n >= 8)),
        {"triangle_product_inverts_fibonorial": COMPARED}),
    Row("pn_pickup_halved_p_3_past_n_7",
        _everywhere("pn_pickup", _halved(pn_pickup, lambda p, n: p == 3 and n >= 8)),
        {"quadrilateral_form_agrees": COMPARED}),
    Row("pr_pickup_wrong_from_p_4",
        _everywhere("pr_pickup", _pr_wrong_from_4),
        {"complement_at_minimal_n": "pr p=4; pr p=5; pr p=6; pr p=7; and 5 more"}),
    Row("pn_pickup_truncated_halved_past_n_6",
        ((verify, "pn_pickup_truncated", _halved(pn_pickup_truncated, lambda p, n, a: n >= 7)),),
        {"symbolic_truncated_matches_closed_form":
         "p=2 n=8 a=1/42; p=3 n=8 a=1/62; p=4 n=7 a=1/26"}),
    Row("truncated_rescale_inverted",
        _everywhere("pn_pickup_truncated", _truncated_rescale_inverted),
        {"truncated_nonincreasing_in_cutoff": RAISED,
         "symbolic_truncated_matches_closed_form": RAISED}),
    Row("pa_pickup_p_3_halved_from_n_7",
        _everywhere("pa_pickup", _halved(pa_pickup, lambda p, n: p == 3 and n >= 7)),
        {}, waiting_on="item 2"),
    Row("pa_pickup_p_2_three_quarters_from_n_6",
        _everywhere("pa_pickup", _scaled(pa_pickup, Fraction(3, 4), lambda p, n: p == 2 and n >= 6)),
        {}, waiting_on="item 2"),
    # the one step-Fibonacci table; the exponential model's checks see a
    # fault in it too, since the tail-chain rates read no table
    Row("window_one_too_wide",
        ((StepFibTable, "_extend", _extend_window_one_too_wide),),
        {"t_matches_prefix_sums": "p=2 i=1; p=2 i=2; p=2 i=3; p=2 i=4; and 171 more",
         "exponential_matches_broken": "p=2 n=4; p=2 n=5; p=2 n=6; p=2 n=7; and 83 more",
         **dict.fromkeys((
             "triple_derivation_of_m", "s_matches_vector_route",
             "e_vector_leads_with_step_fib", "fibonacci_max_forms_for_triangles",
             "interval_telescoping_identity", "symbolic_integration_matches_closed_form",
             "symbolic_truncated_matches_closed_form", "matrix_recurrence_matches_step_fib",
         ), COMPARED)}),
    # a wrong term derivation: fib reads F_9 one too large, while the
    # running sums that prefix_sum returns stay right
    Row("f_9_one_too_large",
        ((StepFibTable, "fib", _f9_one_too_large),),
        dict.fromkeys((
            "doubling_inside_initial_window", "prefix_sum_telescopes",
            "weighted_tail_collapses_to_index", "triple_derivation_of_m",
            "e_vector_leads_with_step_fib", "fibonacci_max_forms_for_triangles",
            "interval_telescoping_identity", "all_gone_reduction_factorial",
            "complement_at_minimal_n", "matrix_recurrence_matches_step_fib",
        ), COMPARED)),
    # the denominators, the windows and the bound forms; none is patched
    # into closedform, where pn_pickup's assert would see the m-vector
    Row("m_vector_reversed",
        ((constraints, "m_constants", _reversed_m), (verify, "m_constants", _reversed_m)),
        {"triple_derivation_of_m": COMPARED,
         "denominators_nonincreasing": COMPARED,
         "interval_telescoping_identity": COMPARED,
         # the reversed m_1 = 1 puts the grid's cap at a = 1
         "truncated_nonincreasing_in_cutoff": RAISED}),
    Row("m_1_raised_from_n_25",
        ((constraints, "m_constants", _raise_m_1_from_n_25),
         (verify, "m_constants", _raise_m_1_from_n_25)),
        {"triple_derivation_of_m": COMPARED}),
    Row("s_one_index_late",
        ((constraints, "s_constants", _s_one_index_late),
         *_everywhere("s_constants", _s_one_index_late)),
        {**dict.fromkeys((
            "t_matches_prefix_sums", "s_matches_vector_route",
            "broken_prefix_sums_for_triangles", "interval_telescoping_identity",
        ), COMPARED),
         # the shrunken denominators put pn_broken above 1
         **dict.fromkeys((
             "broken_reduction_power_of_two", "exponential_matches_broken",
             "probabilities_reduced_and_in_range",
         ), RAISED)}),
    # a wrong denominator, numerator coefficient or minimum form fails the
    # telescoping identity at the sticks whose form comparison reads it
    Row("interior_m",
        ((constraints, "m_constants", _raise_interior_m),),
        {"interval_telescoping_identity":
         "pickup p=2 n=3 i=2; pickup p=2 n=3 i=3; pickup p=2 n=4 i=2; "
         "pickup p=2 n=4 i=3; and 76 more"}),
    Row("stick_3_coefficient",
        ((constraints, "max_length_form", _edit_max_form(
            lambda p, n, i, model, form: (form[0] + 1,) + form[1:] if i == 3 else form)),),
        {"interval_telescoping_identity":
         "pickup p=2 n=4 i=3; pickup p=2 n=4 i=4; pickup p=2 n=5 i=3; "
         "pickup p=2 n=5 i=4; and 150 more"}),
    Row("broken_p5_coefficient",
        # stick 4's l_1 coefficient at broken p=5, n=9 only: one cell of the grid
        ((constraints, "max_length_form", _edit_max_form(
            lambda p, n, i, model, form: (form[0] + 1,) + form[1:]
            if model == "broken" and (p, n, i) == (5, 9, 4) else form)),),
        {"interval_telescoping_identity": "broken p=5 n=9 i=4; broken p=5 n=9 i=5"}),
    Row("broken_form_missing_l_1_unit",
        ((constraints, "max_length_form", _edit_max_form(
            lambda p, n, i, model, form: (form[0] - 1,) + form[1:]
            if model == "broken" and i >= 2 else form)),),
        {"interval_telescoping_identity": COMPARED}),
    Row("oldest_window_term",
        ((constraints, "min_length_form", _drop_oldest_window_term),),
        {"interval_telescoping_identity":
         "pickup p=2 n=4 i=4; pickup p=2 n=5 i=4; pickup p=2 n=5 i=5; "
         "pickup p=2 n=6 i=4; and 251 more"}),
    Row("window_drops_oldest_stick",
        # the vector route reads no window
        ((constraints, "_window", _window_drops_oldest_stick),),
        dict.fromkeys((
            "t_matches_prefix_sums", "triple_derivation_of_m",
            "interval_telescoping_identity", "exponential_matches_broken",
            "symbolic_integration_matches_closed_form",
            "symbolic_truncated_matches_closed_form", "partial_integrals_vanish_at_max",
        ), COMPARED)),
)


def _matches(detail, expected):
    if expected is COMPARED:
        return not detail.startswith(RAISED)
    if expected is RAISED:
        return detail.startswith(RAISED)
    return detail == expected


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_exact_suite_fails_as_listed(monkeypatch, row):
    monkeypatch.setattr(sequences, "_TABLES", {})
    for target, attribute, mutant in row.patches:
        monkeypatch.setattr(target, attribute, mutant)
    failed = {r.name: r.detail for r in verify.run_suite("exact") if not r.passed}
    assert failed.keys() == row.fails.keys()
    for name, expected in row.fails.items():
        assert _matches(failed[name], expected), (name, failed[name])


def test_every_check_fails_by_comparison_under_some_row():
    """The rows' expectations hold by the test above, so this reads them
    as data: each check outside AWAITING_RETIREMENT is caught by its own
    comparison somewhere, and no check inside it is."""
    names = {check.__name__.removeprefix("check_") for check in verify.EXACT_CHECKS}
    compared = {
        name for row in ROWS for name, expected in row.fails.items()
        if not expected.startswith(RAISED)
    }
    assert AWAITING_RETIREMENT <= names
    assert compared == names - AWAITING_RETIREMENT


def test_only_rows_waiting_on_an_item_pass_the_suite():
    assert [row.id for row in ROWS if not row.fails] == [
        row.id for row in ROWS if row.waiting_on
    ]
