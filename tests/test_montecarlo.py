import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from stickprob import montecarlo
from stickprob.closedform import pa_pickup, pn_pickup
from stickprob.errors import DomainError, ResourceLimitError
from stickprob.montecarlo import all_polygon, estimate, no_polygon
from stickprob.montecarlo import _all_polygon_rows, _no_polygon_rows, _subset_rows
from stickprob.specs import (
    ALL_POLYGON,
    MODELS,
    NO_POLYGON,
    RANDOM_SUBSET_POLYGON,
    DistributionSpec,
    EventSpec,
)
from test_sample_pins import draw_lengths


class TestSpecs:
    def test_distribution_validation(self):
        with pytest.raises(DomainError):
            DistributionSpec("lognormal")
        with pytest.raises(DomainError):
            DistributionSpec.uniform_truncated(1.0)
        with pytest.raises(DomainError):
            DistributionSpec.exponential(0.0)

    @pytest.mark.parametrize(
        "rate", [np.inf, -np.inf, np.nan, 1e-320, 0.0, -1.0,
                 np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf)],
    )
    def test_exponential_rate_outside_range(self, rate):
        with pytest.raises(DomainError):
            DistributionSpec.exponential(rate)

    @pytest.mark.parametrize("rate", [1e-280, 1e280])
    def test_exponential_lengths_stay_normal_at_the_rate_limits(self, rate):
        # the smallest positive and the largest uniform a Philox word gives
        u = np.array([[2.0**-53, 1.0 - 2.0**-53]])
        x = np.empty((1, 2))
        montecarlo._lengths_into(DistributionSpec.exponential(rate), u, x)
        assert x[0, 0] >= np.finfo(np.float64).tiny
        assert np.isfinite(x[0, 1] * 2.0**63)

    def test_fraction_truncation_matches_float(self):
        event = EventSpec(NO_POLYGON, 2)
        runs = [
            estimate(event, DistributionSpec("truncated", a=a), 4, 70_000, 11)
            for a in (Fraction(1, 10), 0.1)
        ]
        assert runs[0].successes == runs[1].successes
        assert DistributionSpec("truncated", a=Fraction(1, 10)).a == 0.1

    def test_fraction_rate_matches_float(self):
        event = EventSpec(NO_POLYGON, 2)
        runs = [
            estimate(event, DistributionSpec("exponential", rate=rate), 4, 20_000, 12)
            for rate in (Fraction(3), 3.0)
        ]
        assert runs[0].successes == runs[1].successes

    @pytest.mark.parametrize(("field", "value"), [
        ("a", "0.5"), ("a", None), ("rate", "2"), ("rate", 1j),
        # past float range: no OverflowError escapes
        ("rate", 10**400), ("a", Fraction(-(10**400))),
    ])
    def test_non_real_or_unrepresentable_is_a_domain_error(self, field, value):
        model = "truncated" if field == "a" else "exponential"
        with pytest.raises(DomainError):
            DistributionSpec(model, **{field: value})

    def test_event_validation(self):
        with pytest.raises(DomainError):
            EventSpec("sometimes_polygon", 2)
        with pytest.raises(DomainError):
            EventSpec(NO_POLYGON, 1)

    def test_uniform_budget(self):
        # (words for the lengths, Philox blocks of 4 words per trial)
        budget = montecarlo._trial_words
        pn, pr = EventSpec(NO_POLYGON, 3), EventSpec(RANDOM_SUBSET_POLYGON, 3)
        assert budget(pn, DistributionSpec.broken_stick(), 5) == (4, 1)
        assert budget(pn, DistributionSpec.uniform01(), 5) == (5, 2)
        assert budget(pr, DistributionSpec.broken_stick(), 5) == (4, 2)
        assert budget(pr, DistributionSpec.uniform01(), 5) == (5, 3)
        assert budget(pn, DistributionSpec.broken_stick(), 1) == (0, 1)


class TestSampling:
    def test_broken_single_cut(self):
        lengths = np.empty((1, 2))
        montecarlo._lengths_into(DistributionSpec.broken_stick(), np.array([[0.3]]), lengths)
        assert np.allclose(lengths, [[0.3, 0.7]])

    def test_broken_sums_to_one_and_sorted(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 9):
            lengths = draw_lengths(DistributionSpec.broken_stick(), n, rng)
            assert lengths.shape == (n,)
            assert abs(lengths.sum() - 1.0) < 1e-12
            assert (np.diff(lengths) >= 0).all()

    def test_truncated_support(self):
        rng = np.random.default_rng(6)
        lengths = draw_lengths(DistributionSpec.uniform_truncated(0.5), 200, rng)
        assert (lengths >= 0.5).all() and (lengths <= 1.0).all()

    def test_exponential_pooled_mean(self):
        rng = np.random.default_rng(7)
        lengths = draw_lengths(DistributionSpec.exponential(1.0), 10**6, rng)
        assert abs(lengths.mean() - 1.0) <= 4e-3  # 4 sigma of the mean


class TestNoPolygon:
    def test_fibonacci_boundary(self):
        assert no_polygon([1, 1, 2, 3, 5], 2)

    def test_equilateral_forms(self):
        assert not no_polygon([1, 1, 1], 2)

    def test_powers_of_two_for_p3(self):
        assert no_polygon([1, 1, 2, 4, 8, 16], 3)

    def test_vacuous_below_window(self):
        assert no_polygon([0.2, 0.9], 2)
        assert no_polygon([], 2)

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            no_polygon([3, 1, 2], 2)

    @pytest.mark.parametrize("predicate", [no_polygon, all_polygon])
    def test_rejects_two_dimensional_lengths(self, predicate):
        with pytest.raises(DomainError, match="one-dimensional"):
            predicate([[0.1, 0.2, 0.3]], 2)

    def test_rejects_bad_p(self):
        with pytest.raises(DomainError):
            no_polygon([1, 2, 3], 1)


class TestAllPolygon:
    def test_equilateral(self):
        assert all_polygon([1, 1, 1], 2)

    def test_degenerate_tie_fails(self):
        assert not all_polygon([1, 1, 2], 2)

    def test_tie_within_larger_sample(self):
        # 3 + 4 == 7: the strict rule counts this as not forming
        assert not all_polygon([3, 4, 5, 6, 7], 2)

    def test_forms_when_shortest_dominate(self):
        assert all_polygon([3, 4, 5, 6, 6.9], 2)

    def test_vacuous(self):
        assert all_polygon([0.5], 2)

    def test_rejects_unsorted(self):
        with pytest.raises(DomainError):
            all_polygon([2, 1, 3], 2)


class TestMutualExclusion:
    def test_never_both(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = int(rng.integers(2, 5))
            n = int(rng.integers(p + 1, 10))
            lengths = np.sort(rng.random(n))
            assert not (no_polygon(lengths, p) and all_polygon(lengths, p))


@given(
    st.lists(st.floats(0.001, 1.0), min_size=2, max_size=9),
    st.integers(2, 4),
    st.sampled_from([1e-3, 0.5, 3.0, 1e3]),
)
def test_predicates_scale_invariant(values, p, scale):
    lengths = sorted(values)
    scaled = [scale * x for x in lengths]
    assert no_polygon(lengths, p) == no_polygon(scaled, p)
    assert all_polygon(lengths, p) == all_polygon(scaled, p)


class TestRandomSubset:
    def test_full_set_matches_all_polygon(self):
        # at n = p + 1 the subset is every length, whatever the picks
        rng = np.random.default_rng(13)
        for p in (2, 3, 4):
            lengths = np.sort(rng.random((200, p + 1)), axis=1)
            got = _subset_rows(lengths, p, rng.random((200, p + 1)))
            assert (got == _all_polygon_rows(lengths, p)).all()

    def test_scripted_choice_hits_small_triple(self):
        # zeros pick indices 0, 1, 2: the (1, 1, 1) triple forms
        lengths = np.array([[1.0, 1.0, 1.0, 100.0]])
        assert _subset_rows(lengths, 2, np.zeros((1, 3))).tolist() == [True]


class TestEstimate:
    def test_validation(self):
        event = EventSpec(NO_POLYGON, 2)
        dist = DistributionSpec.uniform01()
        with pytest.raises(DomainError, match=r"^stick count n must be >= 1, got 0$"):
            estimate(event, dist, 0, 10, 1)
        with pytest.raises(DomainError):
            estimate(event, dist, 4, 0, 1)
        with pytest.raises(DomainError):
            estimate(event, dist, 4, 10, 1, workers=0)
        with pytest.raises(DomainError):
            estimate(event, dist, 4, 10, -1)
        with pytest.raises(DomainError):
            estimate(event, dist, 4, 10, 2**64)
        with pytest.raises(DomainError):
            estimate(EventSpec(RANDOM_SUBSET_POLYGON, 3), dist, 3, 10, 1)

    def test_wide_rows_stay_within_the_buffer_budget(self):
        # 8192 trials of 2000 lengths: one 8192-row sub-block would hold
        # about 260 MB; the count is the one that single sub-block gives
        event, dist = EventSpec(RANDOM_SUBSET_POLYGON, 3), DistributionSpec.uniform01()
        tracemalloc.start()
        try:
            est = estimate(event, dist, 2000, 8192, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.successes == 6852
        assert peak < 64 * 2**20

    def test_refuses_a_row_past_the_buffer_budget(self):
        with pytest.raises(ResourceLimitError, match="sub-block budget"):
            estimate(EventSpec(NO_POLYGON, 2), DistributionSpec.uniform01(), 600_000, 1, 0)

    def test_p_hat_is_exact_ratio(self):
        est = estimate(
            EventSpec(NO_POLYGON, 2), DistributionSpec.uniform01(), 4, 12345, 3
        )
        assert est.p_hat == est.successes / est.trials
        assert est.trials == 12345
        assert est.std_err >= 0

    def test_workers_bit_identical(self):
        cases = [
            (EventSpec(NO_POLYGON, 2), DistributionSpec.uniform01(), 5),
            (EventSpec(ALL_POLYGON, 3), DistributionSpec.broken_stick(), 6),
            (EventSpec(RANDOM_SUBSET_POLYGON, 2), DistributionSpec.exponential(), 5),
        ]
        for event, dist, n in cases:
            runs = [
                estimate(event, dist, n, 200_000, 42, workers=w) for w in (1, 4, 8)
            ]
            assert runs[0].successes == runs[1].successes == runs[2].successes
            assert runs[0].p_hat == runs[1].p_hat == runs[2].p_hat

    def test_counter_scheme_splits_cleanly(self):
        # an estimate over [0, N) equals the sum of [0, k) and [k, N) halves
        from stickprob.montecarlo import _run_chunk

        event = EventSpec(NO_POLYGON, 2)
        dist = DistributionSpec.uniform01()
        whole = _run_chunk(event, dist, 4, 99, 1, (0, 1000))
        split = _run_chunk(event, dist, 4, 99, 1, (0, 337)) + _run_chunk(
            event, dist, 4, 99, 1, (337, 1000)
        )
        assert whole == split

    def test_quick_concordance(self):
        est = estimate(
            EventSpec(NO_POLYGON, 2), DistributionSpec.uniform01(), 4, 200_000, 7
        )
        exact = float(pn_pickup(2, 4).fraction)
        assert abs(est.p_hat - exact) <= 4 * est.std_err
        # PA at p = 3 past n = 6, where no exact route checks it
        for n in (7, 9, 12):
            est = estimate(
                EventSpec(ALL_POLYGON, 3), DistributionSpec.uniform01(), n, 1 << 18, 3000 + n
            )
            exact = float(pa_pickup(3, n).fraction)
            assert abs(est.p_hat - exact) <= 4 * est.std_err, n

    def test_exponential_rate_invariance(self):
        event = EventSpec(NO_POLYGON, 2)
        lo = estimate(event, DistributionSpec.exponential(1.0), 4, 300_000, 21)
        hi = estimate(event, DistributionSpec.exponential(5.0), 4, 300_000, 22)
        joint = (lo.std_err**2 + hi.std_err**2) ** 0.5
        assert abs(lo.p_hat - hi.p_hat) <= 4 * joint

    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    @pytest.mark.parametrize("counter", [0, 3 * 65_536])
    def test_uniforms_are_the_top_53_bits_of_each_word(self, seed, counter):
        # the RNG scheme behind every chunk: Generator.random reads one Philox
        # word per uniform, in stream order, and keeps its top 53 bits
        shape = (5, 12)
        gen = np.random.Generator(np.random.Philox(key=seed, counter=counter))
        words = np.random.Philox(key=seed, counter=counter).random_raw(60)
        expected = (words.reshape(shape) >> np.uint64(11)) * 2.0**-53
        assert np.array_equal(gen.random(shape), expected)

    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    def test_successive_whole_block_draws_continue_one_stream(self, seed):
        # a chunk draws its rows a sub-block at a time from one generator;
        # each draw is a whole number of Philox blocks, so the draws continue
        # the stream exactly where one large draw would
        width = 3 * 4
        whole = np.random.Generator(np.random.Philox(key=seed, counter=7)).random((1000, width))
        gen = np.random.Generator(np.random.Philox(key=seed, counter=7))
        buf = np.empty((300, width))
        parts = []
        for rows in (300, 1, 299, 300, 100):
            gen.random(out=buf[:rows])
            parts.append(buf[:rows].copy())
        assert np.array_equal(np.concatenate(parts), whole)

    def test_broken_single_piece(self):
        # degenerate but well-defined: one piece of length 1, no polygon
        est = estimate(
            EventSpec(NO_POLYGON, 2), DistributionSpec.broken_stick(), 1, 100, 5
        )
        assert est.p_hat == 1.0


# Plain per-row loops: the definitions the vectorized kernels must match bit
# for bit.  Python's sum() adds left to right, as numpy does over fewer than
# eight values, so the references hold for the p used here.


def reference_no_polygon(rows, p):
    return [
        all(sum(row[i : i + p]) <= row[i + p] for i in range(len(row) - p))
        for row in rows.tolist()
    ]


def reference_subset(rows, p, u):
    out = []
    for row, draws in zip(rows.tolist(), u.tolist()):
        n = len(row)
        idx = list(range(n))
        for s in range(p + 1):
            j = min(int(draws[s] * (n - s)), n - s - 1)
            idx[s], idx[s + j] = idx[s + j], idx[s]
        subset = sorted(row[k] for k in idx[: p + 1])
        out.append(sum(subset[:p]) > subset[p])
    return out


# dyadic values add exactly, so equal sums (the tie case) come up often
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]),
    st.floats(0.0, 10.0),
)


@st.composite
def step_rows(draw, p, n):
    """Sorted rows that grow like p-step Fibonacci numbers, so that rows die
    at every window, survive to the end, or sit exactly on the boundary."""
    k = min(p, n)
    heads = st.lists(_VALUES, min_size=k, max_size=k)
    nudges = st.lists(
        st.sampled_from([0.0, 0.0, 0.5, -0.25, 1e-9, -1e-9]), min_size=n - k, max_size=n - k
    )
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        row = sorted(draw(heads))
        for nudge in draw(nudges):
            row.append(max(row[-1], sum(row[-p:]) + nudge))
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), n)


@given(st.data(), st.integers(2, 6), st.integers(0, 12))
def test_no_polygon_kernel_matches_reference(data, p, extra):
    n = data.draw(st.integers(1, p)) if extra == 0 else p + extra
    rows = data.draw(step_rows(p, n))
    assert _no_polygon_rows(rows, p).tolist() == reference_no_polygon(rows, p)


@pytest.mark.parametrize("p", [2, 3, 6])
def test_no_polygon_kernel_when_all_die_or_none_die(p):
    n = p + 10
    dying = np.ones((3000, n))  # p ones sum past the next one at window 0
    assert not _no_polygon_rows(dying, p).any()
    fib = [1.0] * p
    while len(fib) < n:
        fib.append(sum(fib[-p:]))  # every window is a tie
    surviving = np.outer(np.arange(1.0, 3001.0), fib)
    assert _no_polygon_rows(surviving, p).all()
    # row r dies at window r % (n - p + 1), or never when that is n - p
    staggered = surviving.copy()
    for r, w in enumerate(np.arange(3000) % (n - p + 1)):
        if w < n - p:
            staggered[r, w + p] = staggered[r, w + p - 1]
    got = _no_polygon_rows(staggered, p)
    assert got.tolist() == reference_no_polygon(staggered, p)
    assert np.count_nonzero(got) == len(range(n - p, 3000, n - p + 1))


@given(st.data(), st.integers(2, 6), st.integers(1, 9))
def test_subset_kernel_matches_reference(data, p, n_extra):
    n = p + n_extra
    m = data.draw(st.integers(1, 12))
    cells = st.lists(_VALUES, min_size=m * n, max_size=m * n)
    rows = np.sort(np.array(data.draw(cells)).reshape(m, n), axis=1)
    draws = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)
    )
    u = np.array(
        data.draw(st.lists(draws, min_size=m * (p + 1), max_size=m * (p + 1)))
    ).reshape(m, p + 1)
    assert _subset_rows(rows, p, u).tolist() == reference_subset(rows, p, u)


def test_subset_kernel_at_the_largest_uniform():
    # u = 1 - 2**-53, the largest draw, takes the last free position at every
    # step: the longest length, then the p shortest, which is the PA test
    top = 1.0 - 2.0**-53
    rng = np.random.default_rng(3)
    for n in (6, 13, 40):
        rows = np.sort(rng.random((50, n)), axis=1)
        u = np.full((50, 6), top)
        got = _subset_rows(rows, 5, u).tolist()
        assert got == reference_subset(rows, 5, u) == _all_polygon_rows(rows, 5).tolist()


def test_subset_kernel_sums_the_picked_values_in_sorted_order():
    # the draws pick indices 3, 2, 1, 0, 4; summed in that order the four
    # shortest give exactly 2.0 and tie the longest, summed sorted they give
    # 2 + 2**-51 and the subset forms
    rows = np.array([[2.0**-53, 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0]])
    u = np.array([[0.7, 0.3, 0.1, 0.1, 0.0]])
    assert _subset_rows(rows, 4, u).tolist() == reference_subset(rows, 4, u) == [True]


class _InlineExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no thread."""

    def __init__(self, seen, max_workers):
        seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestWorkerBound:
    EVENT = EventSpec(NO_POLYGON, 2)
    DIST = DistributionSpec.uniform01()
    TRIALS = 4 * 65_536 + 1  # five chunks

    def run(self, monkeypatch, workers, cpus=None):
        seen = []
        monkeypatch.setattr(
            "concurrent.futures.ThreadPoolExecutor",
            lambda max_workers: _InlineExecutor(seen, max_workers),
        )
        if cpus is None:
            monkeypatch.delattr(montecarlo.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(montecarlo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        est = estimate(self.EVENT, self.DIST, 3, self.TRIALS, 17, workers=workers)
        return seen, est.successes

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [(100_000, 3, [3]), (100_000, 64, [5]), (4, 64, [4]), (1, 64, []), (8, 1, [])],
    )
    def test_threads_bounded_by_chunks_and_affinity(self, monkeypatch, workers, cpus, expected):
        seen, successes = self.run(monkeypatch, workers, cpus)
        assert seen == expected
        assert successes == estimate(self.EVENT, self.DIST, 3, self.TRIALS, 17).successes

    def test_cpu_count_when_affinity_unavailable(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        assert self.run(monkeypatch, 100_000)[0] == [2]
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
        assert self.run(monkeypatch, 100_000)[0] == []


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_runs_each_chunk_through_the_module_hook(monkeypatch, workers):
    # perfbench counts chunks by rebinding montecarlo._run_chunk the same way
    inner = montecarlo._run_chunk
    calls = []

    def logged(*args, **kwargs):
        assert not kwargs
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(montecarlo, "_run_chunk", logged)
    event, dist = EventSpec(RANDOM_SUBSET_POLYGON, 3), DistributionSpec.broken_stick()
    est = estimate(event, dist, 7, 2 * 65_536 + 5, 11, workers=workers)
    # 6 cuts + 4 picks = 10 words per trial, in 3 Philox blocks of 4
    spans = [(0, 65_536), (65_536, 131_072), (131_072, 131_077)]
    assert sorted(calls, key=lambda c: c[-1]) == [(event, dist, 7, 11, 3, s) for s in spans]
    assert est.successes == sum(inner(*c) for c in calls)


def _seam_cases():
    for event in (NO_POLYGON, ALL_POLYGON, RANDOM_SUBSET_POLYGON):
        for model in MODELS:
            for p in (2, 3):
                ns = [p + 1, 20]
                if model == "broken" and event != RANDOM_SUBSET_POLYGON:
                    ns.insert(0, 1)
                for n in ns:
                    yield event, model, p, n


@pytest.mark.parametrize(("event", "model", "p", "n"), list(_seam_cases()))
def test_chunk_splits_at_sub_block_seams(event, model, p, n):
    # a chunk over [0, 65536) scores the same trials as any two chunks that
    # split it, including splits on and next to the 8192-row sub-blocks
    event, dist = EventSpec(event, p), DistributionSpec(model, a=0.25, rate=3.0)
    blocks = montecarlo._trial_words(event, dist, n)[1]

    def run(t0, t1):
        return montecarlo._run_chunk(event, dist, n, 5, blocks, (t0, t1))

    whole = run(0, 65_536)
    for k in (1, 8191, 8192, 8193, 65_535):
        assert run(0, k) + run(k, 65_536) == whole, k
