"""p-step Fibonacci numbers and the sums built from them.

Every closed form in this package is a product of reciprocals of values
derived from the p-step Fibonacci sequence: F_1 = 1, the p-1 terms before
it are 0, and each later term is the sum of the previous p terms (p = 2
gives Fibonacci, p = 3 Tribonacci).  Values are plain Python ints on
purpose: they leave 64-bit range near i = 90 already for p = 2, and the
probability formulas multiply long runs of them.
"""

from __future__ import annotations

import threading

from .errors import DomainError, require_p

__all__ = ["StepFibTable", "fib", "fib_prefix_sum", "t_value"]


class StepFibTable:
    """Memoized p-step Fibonacci numbers and their cumulative prefix sums.

    Lookups behave like a pure function of the index: extension is
    serialized by a lock, published entries are never mutated, and nothing
    is evicted (index ranges stay tiny at desk scale).  Each new F_i also
    appends SF_i = SF_{i-1} + F_i, so a prefix sum is one lookup, and each
    new term is one subtraction of stored sums, F_i = SF_{i-1} - SF_{i-1-p}
    (SF_j = 0 for j <= 0), whatever p is.  Of the initial zero block only
    F_0 is stored, so F_i and SF_i sit at position i.  Indices below the
    block (lowest defined index: 2 - p) are rejected rather than treated as
    zeros.
    """

    def __init__(self, p: int) -> None:
        require_p(p)
        self.p = p
        self.low = 2 - p
        self._vals = [0, 1]  # F_0, F_1
        self._sums = [0, 1]  # SF_0, SF_1
        self._lock = threading.Lock()

    def fib(self, i: int) -> int:
        """F_i^p, defined for i >= 2 - p."""
        if i < self.low:
            raise DomainError(
                f"F_{i} with step count {self.p} is undefined: "
                f"indices below {self.low} lie outside the initial block"
            )
        if i < 0:
            return 0
        if i >= len(self._vals):
            with self._lock:
                sums = self._sums
                while i >= len(self._vals):
                    # a window reaching below index 1 subtracts SF = 0,
                    # never a wrapped-around list entry
                    low = len(sums) - 1 - self.p
                    value = sums[-1] - (sums[low] if low > 0 else 0)
                    sums.append(sums[-1] + value)
                    self._vals.append(value)
        return self._vals[i]

    def prefix_sum(self, i: int) -> int:
        """SF_i^p = F_1^p + ... + F_i^p, defined for i >= 1."""
        if i < 1:
            raise DomainError(f"prefix sums need i >= 1, got {i}")
        self.fib(i)
        return self._sums[i]


_TABLES: dict[int, StepFibTable] = {}
_TABLES_LOCK = threading.Lock()


def _table(p: int) -> StepFibTable:
    table = _TABLES.get(p)
    if table is None:
        with _TABLES_LOCK:
            table = _TABLES.setdefault(p, StepFibTable(p))
    return table


def fib(p: int, i: int) -> int:
    """The i-th p-step Fibonacci number F_i^p."""
    return _table(p).fib(i)


def fib_prefix_sum(p: int, i: int) -> int:
    """SF_i^p, the sum of the first i p-step Fibonacci numbers."""
    return _table(p).prefix_sum(i)


# p -> ([t_0, ..., t_k], [T_0, ..., T_k]) with T_j = t_1 + ... + t_j,
# extended under _T_LOCK like StepFibTable
_T_TABLES: dict[int, tuple[list[int], list[int]]] = {}
_T_LOCK = threading.Lock()


def t_value(p: int, k: int) -> int:
    """t_k for the exponential-lengths formula: t_1 = 1, t_k = 0 for
    2 - p <= k <= 0, and t_k = 1 + sum of the previous p values.

    Equals fib_prefix_sum(p, k) for every k >= 1, but is generated and
    memoized (per p, like the step-Fibonacci tables) by its own recurrence,
    never reading those tables, so the two routes can be checked against
    each other.  The window sum comes from a running sum of its own:
    t_k = 1 + T_{k-1} - T_{k-1-p}, with T_j = 0 for j <= 0.
    """
    require_p(p)
    if k < 1:
        raise DomainError(f"t_k is generated for k >= 1 only, got {k}")
    table = _T_TABLES.get(p)
    if table is None or k >= len(table[0]):
        with _T_LOCK:
            table = _T_TABLES.setdefault(p, ([0, 1], [0, 1]))
            vals, sums = table
            while k >= len(vals):
                low = len(sums) - 1 - p
                value = 1 + sums[-1] - (sums[low] if low > 0 else 0)
                sums.append(sums[-1] + value)
                vals.append(value)
    return table[0][k]
