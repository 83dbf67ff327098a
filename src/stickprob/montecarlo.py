"""Seeded Monte Carlo estimates of the polygon-formation probabilities.

``estimate`` is the one public entry point.  The distribution and event
specs it takes live in ``stickprob.specs``.

Randomness is counter-based: trial t always consumes the same fixed-size
slice of a Philox stream for a given seed, so an estimate is bit identical
however the trials are chunked or spread over workers.  Each Philox word
gives one uniform from its top 53 bits (``Generator.random``), and lengths
come from those uniforms (exponentials through the inverse CDF), never from
the generator's own samplers, so the word budget per trial stays constant.

A chunk of up to 65 536 trials reads one Philox stream and is scored
8192 rows at a time, in buffers reused across the chunk, with its predicate
results in one per-chunk array.  A sub-block's w words per trial are drawn
into one buffer and its n lengths per trial written into another, so its
samples take about 8192 x (w + n) x 8 bytes: small enough to stay in cache
between the steps, unlike one draw over the whole chunk.  The generator is
the only writer of the draw buffer; the lengths are computed from it and the
subset picks read from it.  Wide rows get fewer rows per sub-block, so a
sub-block's buffers together never hold more than 2^20 words (8 MiB); a
single row wider than that is refused with ``ResourceLimitError``.

Rows of at most 8 lengths are narrow: numpy's per-row overhead, not the
arithmetic, would dominate their row sorts and row sums.  Their lengths
are held column-major, every column one contiguous vector: one copy
moves a row-major draw's uniforms (or a broken stick's cuts) into that
layout, and every later step of a model runs in place there.  The
generator fills a buffer in memory order, so it never draws into a
column-major one: that would hand a trial another trial's words.  A narrow
row is sorted by Batcher's odd-even merge network, one
``np.minimum``/``np.maximum`` pair over two whole columns per comparator
(9 comparators at n = 5, 19 at n = 8), and its window sums add whole
columns.  Wider rows keep row-major lengths and numpy's row sort:
their windows can hold eight or more values, whose row sum depends on the
layout (below), and past about n = 12 the network is the slower sort.

Floating point is deliberate here: the Monte Carlo error at any feasible
trial count dwarfs rounding error.  Exactness lives in the closed forms
and the symbolic oracle.

The predicates do no more work than a row needs.  "No polygon" stops at
the first window that no row survives (surviving rows must grow like
p-step Fibonacci numbers, so most die within a few windows).  Row-major
rows still alive are copied out once they are at most half of those held,
so later windows score only them; column-major rows are never copied, as
their window sums add whole columns and the copy would be row-major.  The
random subset is a partial Fisher-Yates shuffle of the column indices,
resolved to its p + 1 sorted picks by O(p^2) passes over whole columns,
without building shuffled index rows.  A row's picks depend only on its
p + 1 drawn offsets, so where the n!/(n - p - 1)! outcomes are no more than
a sub-block's 8192 rows (n <= 21 at p = 2, n <= 11 at p = 3, and never
past p = 6) those passes run once per (n, p) over every outcome, into a
cached table, and each row reads its picks by its offsets' mixed-radix
code.  Each window sum is numpy's own row sum over that window's p
values, which reads that row alone, so success counts are bit-identical
to scoring every row on every window.  Over fewer than eight values that
row sum is a left fold, as a plain per-row loop adds, in either memory
layout, and the table path adds its picks as that same fold.  Over eight
or more values in a row-major row numpy sums pairwise, and the last bit
can differ from a loop's.  A narrow row holds at most 8 lengths, so every
window it sums has p <= 7, and its counts are the same in either layout.

Tie rule, fixed for reproducibility: a degenerate flat polygon does not
count as formed.  "Cannot form" tests use window sums <= the next length;
"forms" is the strict complement.  Ties have measure zero under every
supported distribution.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np
# numpy imports numpy.random on first use: here, not inside a first estimate
from numpy.random import Generator, Philox

from .errors import DomainError, ResourceLimitError, require_int, require_n, require_subset
from .specs import (
    ALL_POLYGON,
    NO_POLYGON,
    RANDOM_SUBSET_POLYGON,
    DistributionSpec,
    EventSpec,
    MCEstimate,
)

__all__ = ["estimate"]

_WORDS_PER_BLOCK = 4  # Philox4x64 words per counter increment
_TRIALS_PER_CHUNK = 1 << 16
_ROWS_PER_BLOCK = 1 << 13  # rows scored at a time within a chunk
_BUFFER_WORDS = 1 << 20  # float64 words in a sub-block's buffers together
_NETWORK_WIDTH = 8  # the widest row held column-major and sorted by a network


def _merge_network(n: int) -> list[tuple[int, int]]:
    """Batcher's odd-even merge sort on n inputs, as compare-exchange pairs
    (i, j), i < j, in the order they run."""
    pairs = []
    size = 1  # the merge step joins sorted runs of this length
    while size < n:
        k = size
        while k:
            for j in range(k % size, n - k, 2 * k):
                for i in range(j, j + min(k, n - j - k)):
                    if i // (2 * size) == (i + k) // (2 * size):
                        pairs.append((i, i + k))
            k //= 2
        size *= 2
    return pairs


_NETWORKS = [_merge_network(n) for n in range(_NETWORK_WIDTH + 1)]


def _sort_rows(x: np.ndarray) -> None:
    """Sort each row of ``x`` in place.

    A row at most ``_NETWORK_WIDTH`` wide, held column-major, goes through
    the merge network: one ``np.minimum``/``np.maximum`` pair per comparator
    over two whole columns.  Anything else goes through numpy's row sort,
    which beats the network on strided columns and on wider rows.
    """
    if x.shape[1] > _NETWORK_WIDTH or x.strides[0] != x.itemsize:
        x.sort(axis=1)
        return
    low = np.empty(x.shape[0])
    for i, j in _NETWORKS[x.shape[1]]:
        a, b = x[:, i], x[:, j]
        np.minimum(a, b, out=low)
        np.maximum(a, b, out=b)
        np.copyto(a, low)


def _trial_words(event: EventSpec, dist: DistributionSpec, n: int) -> tuple[int, int]:
    """A trial's words for its lengths, and the whole Philox blocks it reads.

    The lengths' words come first: n uniforms, or a broken stick's n - 1
    cut points.  One word per subset pick follows them, and the total is
    rounded up to whole blocks, at least one.
    """
    lengths = n - 1 if dist.kind == "broken" else n
    picks = event.p + 1 if event.kind == RANDOM_SUBSET_POLYGON else 0
    return lengths, max(1, -(-(lengths + picks) // _WORDS_PER_BLOCK))


def _lengths_into(dist: DistributionSpec, u: np.ndarray, x: np.ndarray) -> None:
    """Write the sorted lengths for each row of uniforms ``u`` into the
    ``(rows, n)`` array ``x``, in ``x``'s own memory layout.  ``u`` is only
    read: one copy moves the uniforms, or a broken stick's cuts, into ``x``,
    and every later step runs in place over ``x``."""
    if dist.kind == "broken":
        # the spacings between 0, the sorted cuts and 1, taken in place
        # column by column from the right: one 2-d subtract over the
        # overlapping column ranges would have numpy copy one of them first
        np.copyto(x[:, :-1], u)
        _sort_rows(x[:, :-1])
        x[:, -1] = 1.0
        for j in range(x.shape[1] - 1, 0, -1):
            np.subtract(x[:, j], x[:, j - 1], out=x[:, j])
    else:
        np.copyto(x, u)
        if dist.kind == "truncated":
            np.multiply(x, 1.0 - dist.a, out=x)
            np.add(x, dist.a, out=x)
        elif dist.kind == "exponential":
            np.negative(x, out=x)
            np.log1p(x, out=x)
            np.negative(x, out=x)
            np.divide(x, dist.rate, out=x)
    _sort_rows(x)


def _no_polygon_rows(lengths: np.ndarray, p: int) -> np.ndarray:
    # Most rows fail within a few windows, so each window is scored only on
    # the rows still alive.  Once at most half of the held row-major rows are
    # alive they are copied out, with only the columns later windows read; a
    # row's window sum is a reduction over its own p values alone, so its
    # bits do not depend on which other rows are held.  Column-major rows
    # are never copied: their window sums add whole columns, and the copy
    # would be row-major.  After a copy, ``held`` indexes its rows in lengths.
    m, n = lengths.shape
    rows, held, start = lengths, None, 0  # rows[:, c] is column start + c
    compact = lengths.strides[0] != lengths.itemsize
    keep = np.ones(m, dtype=bool)
    for i in range(n - p):
        c = i - start
        keep &= rows[:, c : c + p].sum(axis=1) <= rows[:, c + p]
        alive = np.count_nonzero(keep)
        if not alive:
            break
        if compact and 2 * alive <= keep.size:
            live = np.flatnonzero(keep)
            held = live if held is None else held[live]
            rows, start = rows[live, c + 1 :], i + 1
            keep = np.ones(alive, dtype=bool)
    if held is None:
        return keep
    ok = np.zeros(m, dtype=bool)
    ok[held[keep]] = True
    return ok


def _all_polygon_rows(lengths: np.ndarray, p: int) -> np.ndarray:
    # Any subset's p shortest dominate the p globally shortest termwise, so
    # the one subset that can fail is the p shortest plus the longest.
    n = lengths.shape[1]
    if n <= p:
        return np.ones(lengths.shape[0], dtype=bool)
    return lengths[:, :p].sum(axis=1) > lengths[:, -1]


def _sorted_picks(offsets: list[np.ndarray]) -> list[np.ndarray]:
    """The column indices a partial Fisher-Yates shuffle picks, smallest
    first: step s swaps positions s and s + offsets[s], and the picks are
    the first len(offsets) positions after the last step.

    Each offsets array holds one value per row, and each returned array
    one pick per row.
    """
    # Resolved column by column without building the shuffled index rows.
    # Before step s, position q >= s holds q unless an earlier step t drew
    # pos[t] == q, and then holds what position t held when step t ran.
    p = len(offsets) - 1
    pos, held, picks = [], [], []
    for s, offset in enumerate(offsets):
        drawn = s + offset
        pick, at_s = drawn, s
        for t in range(s):
            pick = np.where(pos[t] == drawn, held[t], pick)
            if s < p:
                at_s = np.where(pos[t] == s, held[t], at_s)
        picks.append(pick)
        if s < p:  # only a later step reads a step's swap
            pos.append(drawn)
            held.append(at_s)
    # an insertion network on the picked indices
    for i in range(1, p + 1):
        for k in range(i, 0, -1):
            lo, hi = picks[k - 1], picks[k]
            picks[k - 1], picks[k] = np.minimum(lo, hi), np.maximum(lo, hi)
    return picks


# only 34 (n, p) pairs pass _subset_rows's bound, 2.5 MiB of tables together
@functools.lru_cache(maxsize=None)
def _pick_table(n: int, p: int) -> np.ndarray:
    """Row k holds, for every code, the k-th smallest column a partial
    Fisher-Yates shuffle of n columns picks in p + 1 steps.  A code is the
    steps' offsets in mixed radix n, n - 1, ..., n - p, first step first."""
    radices = tuple(range(n, n - p - 1, -1))
    offsets = np.unravel_index(np.arange(math.perm(n, p + 1)), radices)
    table = np.stack(_sorted_picks(list(offsets)))
    table.flags.writeable = False  # one array serves every caller
    return table


def _subset_rows(lengths: np.ndarray, p: int, u: np.ndarray) -> np.ndarray:
    # rows are sorted, so the picked indices in increasing order pick the
    # values in nondecreasing order as well
    m, n = lengths.shape
    # the min() guards the one-ulp rounding case
    offsets = [
        np.minimum((u[:, s] * (n - s)).astype(np.int64), n - s - 1) for s in range(p + 1)
    ]
    if math.perm(n, p + 1) > _ROWS_PER_BLOCK:
        # the picked values land in the lengths' own memory layout, so their
        # row sum is the same reduction as over a window of the lengths
        index = np.empty_like(lengths[:, : p + 1], dtype=np.int64)
        picks = np.stack(_sorted_picks(offsets), axis=1, out=index)
        subset = np.take_along_axis(lengths, picks, axis=1)
        return subset[:, :p].sum(axis=1) > subset[:, -1]
    # A table no longer than a sub-block holds every outcome, looked up by
    # each row's code.  Its bound forces p <= 6, and numpy's row sum over
    # fewer than eight values is the left fold below, in either layout.
    code = offsets[0]
    for s in range(1, p + 1):
        code = code * (n - s) + offsets[s]
    # a flat offset into the lengths raveled in their own layout; a view
    # unless the lengths are a row slice of a column-major buffer
    if lengths.strides[0] == lengths.itemsize:
        flat, first, step = lengths.ravel(order="F"), np.arange(m), m
    else:
        flat, first, step = lengths.ravel(order="C"), np.arange(0, m * n, n), 1
    picked = []
    for column in _pick_table(n, p):
        index = column[code]
        index *= step
        index += first
        picked.append(flat[index])
    return sum(picked[1:p], picked[0]) > picked[p]


def _run_chunk(
    event: EventSpec,
    dist: DistributionSpec,
    n: int,
    seed: int,
    blocks_per_trial: int,
    span: tuple[int, int],
) -> int:
    # Each row is a whole number of Philox blocks, so the sub-blocks'
    # successive draws continue the stream exactly where one draw over the
    # chunk would.
    t0, t1 = span
    count = t1 - t0
    gen = Generator(Philox(key=seed, counter=t0 * blocks_per_trial))
    # The generator fills a buffer in memory order, so it draws only into
    # the row-major ubuf, which nothing else writes.  Narrow lengths are
    # held column-major in xbuf, and the subset picks are read from ubuf.
    width = blocks_per_trial * _WORDS_PER_BLOCK
    n_len = _trial_words(event, dist, n)[0]
    words = width + n
    rows = min(count, _ROWS_PER_BLOCK, _BUFFER_WORDS // words)
    if not rows:
        raise ResourceLimitError(
            f"one trial at n = {n} needs {words} buffer words, past the "
            f"sub-block budget of {_BUFFER_WORDS}"
        )
    ubuf = np.empty((rows, width))
    xbuf = np.empty((rows, n), order="F" if n <= _NETWORK_WIDTH else "C")
    ok = np.empty(count, dtype=bool)
    for b0 in range(0, count, rows):
        b1 = min(b0 + rows, count)
        u, lengths = ubuf[: b1 - b0], xbuf[: b1 - b0]
        gen.random(out=u)
        _lengths_into(dist, u[:, :n_len], lengths)
        if event.kind == NO_POLYGON:
            ok[b0:b1] = _no_polygon_rows(lengths, event.p)
        elif event.kind == ALL_POLYGON:
            ok[b0:b1] = _all_polygon_rows(lengths, event.p)
        else:
            ok[b0:b1] = _subset_rows(lengths, event.p, u[:, n_len:])
    return int(ok.sum())


def _check_run(trials: int, workers: int, seed: int) -> None:
    require_int("trials", trials)
    require_int("workers", workers)
    require_int("seed", seed)
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    if not 0 <= seed < 2**64:
        raise DomainError("seed must be a 64-bit nonnegative integer")


def estimate(
    event: EventSpec,
    dist: DistributionSpec,
    n: int,
    trials: int,
    seed: int,
    workers: int = 1,
) -> MCEstimate:
    """Estimate the event probability over independent stick draws.

    The word budget per trial is fixed up front and trial t reads Philox
    blocks [t*c, (t+1)*c) for a constant c, so the result for a given
    (seed, trials) pair does not depend on ``workers`` or on chunk
    boundaries.  Worker parallelism is a plain reduction over integer
    success counts, on at most one thread per chunk and per usable CPU.
    """
    if not isinstance(event, EventSpec) or not isinstance(dist, DistributionSpec):
        raise DomainError(
            f"estimate takes an EventSpec and a DistributionSpec, got {event!r} and {dist!r}")
    require_n(n)
    _check_run(trials, workers, seed)
    if event.kind == RANDOM_SUBSET_POLYGON:
        require_subset(event.p, n)
    blocks_per_trial = _trial_words(event, dist, n)[1]
    spans = [
        (t0, min(t0 + _TRIALS_PER_CHUNK, trials))
        for t0 in range(0, trials, _TRIALS_PER_CHUNK)
    ]

    def run(span: tuple[int, int]) -> int:
        return _run_chunk(event, dist, n, seed, blocks_per_trial, span)

    # No more threads than chunks or than CPUs this process may run on; the
    # affinity is read per call because a process can change its own.
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = min(workers, len(spans), cpus)
    if workers == 1:
        successes = sum(map(run, spans))
    else:
        from concurrent.futures import ThreadPoolExecutor  # only this path runs threads

        with ThreadPoolExecutor(max_workers=workers) as pool:
            successes = sum(pool.map(run, spans))
    p_hat = successes / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MCEstimate(
        p_hat=p_hat,
        trials=trials,
        std_err=std_err,
        seed=seed,
        event=event,
        dist=dist,
        successes=successes,
    )
