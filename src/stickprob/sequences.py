"""p-step Fibonacci numbers and the sums built from them.

Every closed form in this package is a product of reciprocals of values
derived from the p-step Fibonacci sequence: F_1 = 1, the p-1 terms before
it are 0, and each later term is the sum of the previous p terms (p = 2
gives Fibonacci, p = 3 Tribonacci).  Values are plain Python ints on
purpose: they leave 64-bit range near i = 90 already for p = 2, and the
probability formulas multiply long runs of them.

One memoized table per p keeps only the running sums SF_k, with SF_j = 0
for j <= 0: SF_k = 2 SF_{k-1} - SF_{k-1-p}, and a term is SF_k - SF_{k-1}.
The exponential model's t sequence is SF itself, so it has no table.
"""

from __future__ import annotations

import threading

from .errors import DomainError, require_int, require_p

__all__ = ["StepFibTable", "fib", "fib_prefix_sum", "t_value"]


class StepFibTable:
    """Memoized p-step Fibonacci numbers, stored as their prefix sums SF_i.

    Lookups behave like a pure function of the index: extension is
    serialized by a lock, published entries are never mutated, and nothing
    is evicted (index ranges stay tiny at desk scale).  Indices below the
    initial zero block (lowest defined index: 2 - p) are rejected rather
    than treated as zeros.
    """

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
                sums.append(2 * sums[-1] - (sums[low] if low > 0 else 0))
        return sums

    def fib(self, i: int) -> int:
        """F_i^p, defined for i >= 2 - p."""
        if type(i) is not int:
            require_int("index i", i)
        sums = self._sums
        if not 0 < i < len(sums):
            if i < self.low:
                raise DomainError(
                    f"F_{i} with step count {self.p} is undefined: "
                    f"indices below {self.low} lie outside the initial block"
                )
            if i < 1:
                return 0
            sums = self._extend(i)
        return sums[i] - sums[i - 1]

    def prefix_sum(self, i: int) -> int:
        """SF_i^p = F_1^p + ... + F_i^p, defined for i >= 1."""
        if type(i) is not int:
            require_int("index i", i)
        if i < 1:
            raise DomainError(f"prefix sums need i >= 1, got {i}")
        sums = self._sums if i < len(self._sums) else self._extend(i)
        return sums[i]


_TABLES: dict[int, StepFibTable] = {}
_TABLES_LOCK = threading.Lock()


def _table(p: int) -> StepFibTable:
    table = _TABLES.get(p)
    if table is None or type(p) is not int:
        require_p(p)  # refuses an equal float or Fraction that found an int key
        with _TABLES_LOCK:
            table = _TABLES.setdefault(p, StepFibTable(p))
    return table


def fib(p: int, i: int) -> int:
    """The i-th p-step Fibonacci number F_i^p."""
    return _table(p).fib(i)


def fib_prefix_sum(p: int, i: int) -> int:
    """SF_i^p, the sum of the first i p-step Fibonacci numbers."""
    return _table(p).prefix_sum(i)


def t_value(p: int, k: int) -> int:
    """t_k for the exponential-lengths formula: t_1 = 1, t_k = 0 for
    2 - p <= k <= 0, and t_k = 1 + sum of the previous p values.  Summing
    F's recurrence over i = 2..k gives SF the same one, so t_k = SF_k."""
    if type(k) is not int:
        require_int("index k", k)
    if k < 1:
        raise DomainError(f"t_k is generated for k >= 1 only, got {k}")
    return _table(p).prefix_sum(k)
