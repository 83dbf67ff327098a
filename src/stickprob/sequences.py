"""p-step Fibonacci numbers and the sums built from them.

Every closed form in this package is a product of reciprocals of values
derived from the p-step Fibonacci sequence: F_1 = 1, the p-1 terms before
it are 0, and each later term is the sum of the previous p terms (p = 2
gives Fibonacci, p = 3 Tribonacci).  Values are plain Python ints on
purpose: they leave 64-bit range near i = 90 already for p = 2, and the
probability formulas multiply long runs of them.

Both memoized sequences keep only their running sums S_k, with S_j = 0
for j <= 0: a new sum is S_k = 2 S_{k-1} - S_{k-1-p} + c, and a term is
S_k - S_{k-1}.  For the step-Fibonacci numbers c = 0 and S is SF; for
the exponential model's t sequence c = 1 and S is T.
"""

from __future__ import annotations

import threading

from .errors import DomainError, require_p

__all__ = ["StepFibTable", "fib", "fib_prefix_sum", "t_value"]


class StepFibTable:
    """Memoized p-step Fibonacci numbers, stored as their prefix sums SF_i.

    Lookups behave like a pure function of the index: extension is
    serialized by a lock, published entries are never mutated, and nothing
    is evicted (index ranges stay tiny at desk scale).  Indices below the
    initial zero block (lowest defined index: 2 - p) are rejected rather
    than treated as zeros.
    """

    _c = 0  # added to every new running sum

    def __init__(self, p: int) -> None:
        require_p(p)
        self.p = p
        self.low = 2 - p
        self._sums = [0, 1]  # S_0, S_1
        self._lock = threading.Lock()

    def _extend(self, i: int) -> list[int]:
        """The running sums, appended to under the lock until S_i is stored."""
        with self._lock:
            sums = self._sums
            while i >= len(sums):
                # a window reaching below index 1 subtracts S = 0, not a wrapped entry
                low = len(sums) - 1 - self.p
                sums.append(2 * sums[-1] - (sums[low] if low > 0 else 0) + self._c)
        return sums

    def fib(self, i: int) -> int:
        """F_i^p, defined for i >= 2 - p."""
        if i < self.low:
            raise DomainError(
                f"F_{i} with step count {self.p} is undefined: "
                f"indices below {self.low} lie outside the initial block"
            )
        if i < 1:
            return 0
        sums = self._sums if i < len(self._sums) else self._extend(i)
        return sums[i] - sums[i - 1]

    def prefix_sum(self, i: int) -> int:
        """SF_i^p = F_1^p + ... + F_i^p, defined for i >= 1."""
        if i < 1:
            raise DomainError(f"prefix sums need i >= 1, got {i}")
        sums = self._sums if i < len(self._sums) else self._extend(i)
        return sums[i]


class _TTable(StepFibTable):
    _c = 1  # the t sequence: fib(k) is t_k and prefix_sum(k) is T_k


# p -> (step-Fibonacci table, t table)
_TABLES: dict[int, tuple[StepFibTable, StepFibTable]] = {}
_TABLES_LOCK = threading.Lock()


def _tables(p: int) -> tuple[StepFibTable, StepFibTable]:
    pair = _TABLES.get(p)
    if pair is None:
        with _TABLES_LOCK:
            pair = _TABLES.setdefault(p, (StepFibTable(p), _TTable(p)))
    return pair


def fib(p: int, i: int) -> int:
    """The i-th p-step Fibonacci number F_i^p."""
    return _tables(p)[0].fib(i)


def fib_prefix_sum(p: int, i: int) -> int:
    """SF_i^p, the sum of the first i p-step Fibonacci numbers."""
    return _tables(p)[0].prefix_sum(i)


def t_value(p: int, k: int) -> int:
    """t_k for the exponential-lengths formula: t_1 = 1, t_k = 0 for
    2 - p <= k <= 0, and t_k = 1 + sum of the previous p values.

    Equals fib_prefix_sum(p, k) for every k >= 1, but is memoized in a
    table of its own, whose running sums T_k = t_1 + ... + t_k gain 1 at
    each step, and never reads the step-Fibonacci table, so the two can be
    checked against each other.
    """
    if k < 1:
        raise DomainError(f"t_k is generated for k >= 1 only, got {k}")
    return _tables(p)[1].fib(k)
