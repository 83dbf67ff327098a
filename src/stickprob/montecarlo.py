"""Seeded Monte Carlo estimates of the polygon-formation probabilities.

``estimate`` is the one sampling path; ``no_polygon`` and ``all_polygon``
score one given sorted row with the same row kernels.  The distribution and
event specs it takes live in ``stickprob.specs``.

Randomness is counter-based: trial t always consumes the same fixed-size
slice of a Philox stream for a given seed, so an estimate is bit identical
however the trials are chunked or spread over workers.  Each Philox word
gives one uniform from its top 53 bits (``Generator.random``), and lengths
come from those uniforms (exponentials through the inverse CDF), never from
the generator's own samplers, so the word budget per trial stays constant.

A chunk of up to 65 536 trials reads one Philox stream and is scored
8192 rows at a time: each sub-block's uniforms and lengths are written into
two buffers reused across the chunk, and its predicate results into one
per-chunk array.  With w words and n lengths per trial, a chunk's samples
so take about 8192 x (w + n) x 8 bytes, small enough to stay in cache
between the steps, not the 65 536 x (w + n) x 8 bytes of one draw over the
whole chunk.  Wide rows get fewer rows per sub-block, so the two buffers
never hold more than 2^20 words (8 MiB); a single row wider than that is
refused with ``ResourceLimitError``.

Floating point is deliberate here: the Monte Carlo error at any feasible
trial count dwarfs rounding error.  Exactness lives in the closed forms
and the symbolic oracle.

The predicates do no more work than a row needs.  "No polygon" scores each
window only on the rows still alive (surviving rows must grow like p-step
Fibonacci numbers, so most die within a few windows), and the random
subset is drawn by resolving the partial Fisher-Yates picks as column
indices, without building shuffled index rows.  Each row's arithmetic is
the same window sum and comparison as a plain per-row loop, so success
counts are bit-identical to scoring every row on every window.

Tie rule, fixed for reproducibility: a degenerate flat polygon does not
count as formed.  "Cannot form" tests use window sums <= the next length;
"forms" is the strict complement.  Ties have measure zero under every
supported distribution.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import DomainError, ResourceLimitError, require_n, require_p, require_subset
from .specs import (
    ALL_POLYGON,
    NO_POLYGON,
    RANDOM_SUBSET_POLYGON,
    DistributionSpec,
    EventSpec,
    MCEstimate,
)

__all__ = ["no_polygon", "all_polygon", "estimate"]

_WORDS_PER_BLOCK = 4  # Philox4x64 words per counter increment
_TRIALS_PER_CHUNK = 1 << 16
_ROWS_PER_BLOCK = 1 << 13  # rows scored at a time within a chunk
_BUFFER_WORDS = 1 << 20  # float64 words in a sub-block's two buffers together


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
    ``(rows, n)`` array ``x``.  A broken stick sorts its cuts in ``u``."""
    if dist.kind == "pickup":
        np.copyto(x, u)
    elif dist.kind == "truncated":
        np.multiply(u, 1.0 - dist.a, out=x)
        np.add(x, dist.a, out=x)
    elif dist.kind == "exponential":
        np.negative(u, out=x)
        np.log1p(x, out=x)
        np.negative(x, out=x)
        np.divide(x, dist.rate, out=x)
    elif u.shape[1]:
        # the spacings between 0, the sorted cuts and 1
        u.sort(axis=1)
        x[:, 0] = u[:, 0]
        np.subtract(u[:, 1:], u[:, :-1], out=x[:, 1:-1])
        np.subtract(1.0, u[:, -1], out=x[:, -1])
    else:
        x.fill(1.0)  # a broken stick with no cuts is one whole piece
    x.sort(axis=1)


def _as_sorted_array(lengths) -> np.ndarray:
    arr = np.asarray(lengths, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError("lengths must be a one-dimensional sequence")
    if arr.size and np.any(arr[1:] < arr[:-1]):
        raise DomainError("lengths must be sorted nondecreasing")
    return arr


def _no_polygon_rows(lengths: np.ndarray, p: int) -> np.ndarray:
    # Most rows fail within a few windows, so each window is scored only on
    # the rows still alive.  Once at most half of the held rows are alive
    # they are copied out, with only the columns later windows read; a row's
    # window sum is a reduction over its own p values alone, so its bits do
    # not depend on which other rows are held.
    m, n = lengths.shape
    rows, held, start = lengths, np.arange(m), 0  # rows[:, c] is column start + c
    keep = np.ones(m, dtype=bool)
    for i in range(n - p):
        c = i - start
        keep &= rows[:, c : c + p].sum(axis=1) <= rows[:, c + p]
        alive = np.count_nonzero(keep)
        if not alive:
            break
        if 2 * alive <= keep.size:
            live = np.flatnonzero(keep)
            rows, held, start = rows[live, c + 1 :], held[live], i + 1
            keep = np.ones(alive, dtype=bool)
    ok = np.zeros(m, dtype=bool)
    ok[held[keep]] = True
    return ok


def _all_polygon_rows(lengths: np.ndarray, p: int) -> np.ndarray:
    n = lengths.shape[1]
    if n <= p:
        return np.ones(lengths.shape[0], dtype=bool)
    return lengths[:, :p].sum(axis=1) > lengths[:, -1]


def no_polygon(sorted_lengths, p: int) -> bool:
    """True iff no p+1 of the lengths can form a (p+1)-gon, i.e. every
    window of p consecutive lengths sums to at most the next length.
    Vacuously true for fewer than p+1 lengths."""
    require_p(p)
    arr = _as_sorted_array(sorted_lengths)
    return bool(_no_polygon_rows(arr.reshape(1, -1), p)[0])


def all_polygon(sorted_lengths, p: int) -> bool:
    """True iff every choice of p+1 lengths forms a (p+1)-gon.

    Equivalent to the single check that the p globally shortest lengths
    sum to strictly more than the longest: any subset's p shortest
    dominate the p globally shortest termwise, and the failing subset, if
    one exists, is the p shortest plus the longest.  Vacuously true for
    fewer than p+1 lengths.
    """
    require_p(p)
    arr = _as_sorted_array(sorted_lengths)
    return bool(_all_polygon_rows(arr.reshape(1, -1), p)[0])


def _subset_rows(lengths: np.ndarray, p: int, u: np.ndarray) -> np.ndarray:
    # Partial Fisher-Yates over the column indices, resolved column by column
    # without building the shuffled index rows.  Step s swaps positions s and
    # pos[s]; before it, position q >= s holds q unless an earlier step t
    # drew pos[t] == q, and then holds what position t held when step t ran.
    m, n = lengths.shape
    pos, held, picks = [], [], []
    for s in range(p + 1):
        # the min() guards the one-ulp rounding case
        drawn = s + np.minimum((u[:, s] * (n - s)).astype(np.int64), n - s - 1)
        pick, at_s = drawn, s
        for t in range(s):
            pick = np.where(pos[t] == drawn, held[t], pick)
            at_s = np.where(pos[t] == s, held[t], at_s)
        pos.append(drawn)
        held.append(at_s)
        picks.append(pick)
    # rows are sorted, so an insertion network on the picked indices puts
    # the picked values in nondecreasing order as well
    for i in range(1, p + 1):
        for k in range(i, 0, -1):
            lo, hi = picks[k - 1], picks[k]
            picks[k - 1], picks[k] = np.minimum(lo, hi), np.maximum(lo, hi)
    subset = np.take_along_axis(lengths, np.stack(picks, axis=1), axis=1)
    return subset[:, :p].sum(axis=1) > subset[:, -1]


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
    bits = np.random.Philox(key=seed, counter=t0 * blocks_per_trial)
    gen = np.random.Generator(bits)
    width = blocks_per_trial * _WORDS_PER_BLOCK
    rows = min(count, _ROWS_PER_BLOCK, _BUFFER_WORDS // (width + n))
    if not rows:
        raise ResourceLimitError(
            f"one trial at n = {n} needs {width + n} buffer words, past the "
            f"sub-block budget of {_BUFFER_WORDS}"
        )
    ubuf = np.empty((rows, width))
    xbuf = np.empty((rows, n))
    n_len = _trial_words(event, dist, n)[0]
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
