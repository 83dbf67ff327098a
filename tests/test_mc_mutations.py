"""The Monte Carlo mutation table: the ``verify --suite mc`` contract.

Each row is a fault patched into ``stickprob.montecarlo``, as data: either
a one-line edit of one function's source, recompiled in the module's own
namespace, or a replacement value for a module attribute.  With it goes the
exact set of Monte Carlo results that must fail, each by its own
comparison, at the row's trial count (the ``verify --suite mc --trials
20000`` golden's, unless the row needs more).  Every result runs on fixed
seeds, so a row's failing set is reproducible.

The contract: every Monte Carlo check, and every line of
``_CONCORDANCE_GRID``, fails by comparison under at least one row.  A row
that no statistical check can see names the tier-1 test that catches it,
and that test must fail under the row's fault.  This table needs numpy, so
it lives apart from the exact suite's table in ``tests/test_mutations.py``.
"""

from __future__ import annotations

import importlib
import inspect
import os
import textwrap
from dataclasses import dataclass
from functools import partial

import pytest

from stickprob import montecarlo, verify

TRIALS = 20_000
# the threaded branch of estimate runs from two chunks of 65 536 trials on
THREADED_TRIALS = 2**17

if hasattr(os, "sched_getaffinity"):
    _CPUS = len(os.sched_getaffinity(0))
else:
    _CPUS = os.cpu_count() or 1
# rows whose fault lies on a path that needs two usable CPUs to run
NEEDS_TWO_CPUS = frozenset({"pool_drops_last_span"})


@dataclass(frozen=True)
class Row:
    id: str
    patches: tuple  # (attribute, mutant) pairs on montecarlo
    fails: frozenset  # the result names that fail, each by comparison
    caught_by: str = ""  # the tier-1 test that catches a fault no result sees
    trials: int = TRIALS


def _edited(name, old, new):
    """montecarlo's function ``name`` with its one ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(montecarlo, name)))
    assert source.count(old) == 1, (name, old)
    namespace = {}
    code = compile(source.replace(old, new), f"<{name} mutant>", "exec")
    exec(code, vars(montecarlo), namespace)
    return ((name, namespace[name]),)


def _network_drops_last_comparator(n):
    networks = list(montecarlo._NETWORKS)
    networks[n] = networks[n][:-1]
    return (("_NETWORKS", networks),)


def _cells(*labels):
    return frozenset(f"mc_concordance[{label}]" for label in labels)


ROWS = (
    # the row kernels
    Row("no_polygon_skips_last_window",
        _edited("_no_polygon_rows", "range(n - p)", "range(n - p - 1)"),
        _cells("pn-pickup-p2-n3", "pn-pickup-p2-n4", "pn-pickup-p2-n5", "pn-pickup-p2-n6",
               "pn-pickup-p2-n7", "pn-pickup-p3-n4", "pn-pickup-p3-n5", "pn-pickup-p3-n6",
               "pn-pickup-p3-n7", "pn-broken-p2-n3", "pn-broken-p2-n4", "pn-broken-p2-n5",
               "pn-broken-p2-n6", "pn-exponential-p2-n3-rate5", "pn-exponential-p2-n4-rate5",
               "pn-exponential-p2-n5-rate5", "pn-truncated-p2-n3-a1/10",
               "pn-truncated-p2-n4-a1/10")),
    # ties have measure zero, so only a scripted row sees the tie rule
    Row("no_polygon_tie_is_strict",
        _edited("_no_polygon_rows", "<= rows[:, c + p]", "< rows[:, c + p]"),
        frozenset(), caught_by="test_montecarlo.py::TestNoPolygon::test_fibonacci_boundary"),
    # at n = p + 1 the (p+1)-th shortest is the longest
    Row("all_polygon_compares_the_p_plus_first",
        _edited("_all_polygon_rows", "> lengths[:, -1]", "> lengths[:, p]"),
        _cells("pa-pickup-p2-n4", "pa-pickup-p2-n5", "pa-pickup-p2-n6", "pa-pickup-p3-n5",
               "pa-pickup-p3-n6")),
    Row("subset_picks_left_unsorted",
        _edited("_subset_rows", "range(1, p + 1)", "range(1, 1)"),
        _cells("pr-pickup-p2", "pr-pickup-p3")),
    # the longest length is never picked; the n - 1 shortest of n uniforms
    # are iid uniforms scaled by the longest, so PR under pickup is unmoved
    Row("subset_never_picks_the_last_free_position",
        _edited("_subset_rows", "(u[:, s] * (n - s))", "(u[:, s] * (n - s - 1))"),
        frozenset(), caught_by="test_mc_pins.py::test_successes_pinned[pr-pickup-2-5]"),
    # the lengths of each model; the exponential cells run at rate 5
    Row("exponential_rate_leaks_into_lengths",
        _edited("_lengths_into", "np.divide(x, dist.rate, out=x)",
                "np.divide(x, dist.rate, out=x); np.add(x, dist.rate - 1.0, out=x)"),
        _cells("pn-exponential-p2-n3-rate5", "pn-exponential-p2-n4-rate5",
               "pn-exponential-p2-n5-rate5")),
    Row("exponential_log_dropped",
        _edited("_lengths_into", "np.log1p(x, out=x)", "np.negative(x, out=x)"),
        _cells("pn-exponential-p2-n3-rate5", "pn-exponential-p2-n4-rate5",
               "pn-exponential-p2-n5-rate5")),
    Row("truncated_shift_dropped",
        _edited("_lengths_into", "np.add(x, dist.a, out=x)", "pass"),
        _cells("pn-truncated-p2-n3-a1/10", "pn-truncated-p2-n4-a1/10")),
    Row("broken_first_spacing_from_second_cut",
        _edited("_lengths_into", "x[:, -1] = 1.0", "x[:, -1] = 1.0; x[:, 0] = x[:, 1]"),
        _cells("pn-broken-p2-n3", "pn-broken-p2-n4", "pn-broken-p2-n5", "pn-broken-p2-n6")),
    # the sorting networks of narrow rows; a broken stick sorts its n - 1
    # cuts as well as its n lengths
    Row("network_5_drops_last_comparator", _network_drops_last_comparator(5),
        _cells("pn-pickup-p2-n5", "pn-pickup-p3-n5", "pn-broken-p2-n5", "pn-broken-p2-n6",
               "pn-exponential-p2-n5-rate5", "pa-pickup-p2-n5", "pa-pickup-p3-n5")),
    Row("network_6_drops_last_comparator", _network_drops_last_comparator(6),
        _cells("pn-pickup-p2-n6", "pn-pickup-p3-n6", "pn-broken-p2-n6", "pr-pickup-p2",
               "pr-pickup-p3")),
    # the one n = 7 cell shows it only past these trials
    Row("network_7_drops_last_comparator", _network_drops_last_comparator(7),
        frozenset(), caught_by="test_montecarlo.py::test_merge_networks_have_batchers_sizes"),
    # the threaded reduction; the concordance cells run on one worker
    Row("pool_drops_last_span",
        _edited("estimate", "sum(pool.map(run, spans))", "sum(pool.map(run, spans[:-1]))"),
        frozenset({"workers_bit_identical"}), trials=THREADED_TRIALS),
)


def _params():
    for row in ROWS:
        marks = pytest.mark.skipif(
            row.id in NEEDS_TWO_CPUS and _CPUS < 2,
            reason="estimate runs one thread on a host with fewer than 2 usable CPUs",
        )
        yield pytest.param(row, id=row.id, marks=marks)


def _catching_test(node_id):
    """The test a node id names, as a callable of no arguments; a
    parametrized test is matched through its one parametrize mark's ids."""
    path, *names = node_id.split("::")
    names[-1], _, param = names[-1].partition("[")
    test = importlib.import_module(path.removesuffix(".py"))
    for name in names:
        test = getattr(test, name)
        if isinstance(test, type):
            test = test()
    if not param:
        return test
    (mark,) = test.pytestmark
    values = {mark.kwargs["ids"](value): value for value in mark.args[1]}
    return partial(test, values[param.removesuffix("]")])


@pytest.mark.parametrize("row", _params())
def test_mc_suite_fails_as_listed(monkeypatch, row):
    for attribute, mutant in row.patches:
        monkeypatch.setattr(montecarlo, attribute, mutant)
    results = verify.run_suite("mc", trials=row.trials)
    failed = {r.name: r.detail for r in results if not r.passed}
    assert failed.keys() == row.fails
    assert not [detail for detail in failed.values() if detail.startswith("raised ")]
    if row.caught_by:
        with pytest.raises(AssertionError):
            _catching_test(row.caught_by)()


def test_every_mc_result_fails_by_comparison_under_some_row():
    """The rows' expectations hold by the test above, so this reads them as
    data: each Monte Carlo check and each concordance grid line has a
    result that some row fails, and only rows that name a catching test
    fail nothing."""
    names = [r.name for r in verify.run_suite("mc", trials=TRIALS)]
    failed = frozenset().union(*(row.fails for row in ROWS))
    checks = {name for name in names if not name.startswith("mc_concordance[")}
    assert checks <= failed
    for event, model, p, _ in verify._CONCORDANCE_GRID:
        line = f"mc_concordance[{event}-{model}-p{p}"
        assert any(name.startswith((line + "-", line + "]")) for name in failed), line
    assert [row.id for row in ROWS if not row.fails] == [row.id for row in ROWS if row.caught_by]
