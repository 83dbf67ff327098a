"""Bound intervals on sorted stick lengths for the no-polygon condition.

Once the n lengths are sorted increasingly, "no p+1 of them form a
(p+1)-gon" reduces to the window inequalities
l_{i-p} + ... + l_{i-1} <= l_i.  Propagating these forward gives every
stick a minimum length, a linear form in the shorter sticks, and a maximum

    l_i_max = (1 - f_i(l_1, ..., l_{i-1})) / m_i

with integer coefficients in f_i and a positive integer m_i.  Every form
is linear with no constant term, so a form is just its tuple of integer
coefficients (``Form``).  The pick-up sticks model (independent lengths
capped at 1) produces the m_i; the broken stick model (pieces of a unit
stick, so the lengths sum to 1) produces analogous constants s_i with
forms g_i, and caps stick n at 1 - (l_1 + ... + l_{n-1}).  Products of the
reciprocal denominators are exactly the closed-form probabilities.

Three derivations of the same denominators live here on purpose:

* closed forms over step-Fibonacci numbers (``m_constants``,
  ``s_constants``, one tail-corrected loop) -- the production route;
* one chain of coefficient vectors e_k that unrolls the window recurrence
  (``e_vector``, ``max_length_form``): pick-up sticks read e_{n-i+1},
  broken sticks its running sum, and both read the numerator forms off
  the same vector;
* the inverse Jacobian of y_i = l_i - l_i_min read through its adjoint, one
  walk counting window paths down from stick n (``m_constants_via_jacobian``).

Their exact agreement is a core check of the verification suite.  Only
the minimum forms and the walk read the windows (``_window``).
``max_min_identity_mismatches`` reads the closed-form denominators beside
the vector-route numerator forms and the minimum forms, and proves the
telescoping identity between consecutive intervals on those integer
forms, for every prefix at once.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import DomainError, require_int, require_p, require_subset
from .sequences import fib, fib_prefix_sum

__all__ = [
    "BOUND_MODELS",
    "min_length_form",
    "e_vector",
    "max_length_form",
    "m_constants",
    "m_constants_via_jacobian",
    "s_constants",
    "max_min_identity_mismatches",
]

# the sampling models (as named in specs.MODELS) with bound forms
BOUND_MODELS = ("pickup", "broken")

# a bound form: coeffs[j] multiplies l_{j+1}
Form = tuple[int, ...]


def _check_model(model: str) -> None:
    if model not in BOUND_MODELS:
        raise DomainError(f"model must be one of {BOUND_MODELS}, got {model!r}")


def _window(p: int, i: int) -> range:
    """The sticks that bound stick i from below: none for stick 1, stick
    i-1 alone (ordering) up to stick p, then the p sticks before it."""
    return range(i - p if i > p else max(i - 1, 1), i)


def min_length_form(p: int, i: int) -> Form:
    """Lower bound for stick i: zero, the previous stick, or the window sum."""
    require_p(p)
    require_int("stick index i", i)
    if i < 1:
        raise DomainError(f"stick index must be >= 1, got {i}")
    coeffs = [0] * (i - 1)
    for j in _window(p, i):
        coeffs[j - 1] = 1
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _chain(p: int, width: int, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(e_k, e_1 + ... + e_k): the chain of coefficient vectors over a
    window of ``width`` <= p consecutive lengths, and its running sum.

    e_1, e_0, ..., e_{2-width} are the unit vectors (e_k has its 1 at
    position 1-k, counting from 0).  A
    window cut short (width < p, the sticks before the p-th) repeats
    (1, 0, ..., 0) for e_2 .. e_{p+1-width}, because the sticks in between
    are bound by ordering only.  Every later e_k is the sum of the p vectors
    before it, mirroring the recurrence of the lengths themselves.  Built
    by a loop from the start, so no index is too deep to reach.
    """
    low = 2 - width
    chain = [[int(s == 1 - j) for s in range(width)] for j in range(low, 2)]
    chain += [chain[-1]] * (p - width)
    while len(chain) <= k - low:
        chain.append(list(map(sum, zip(*chain[-p:]))))
    summed = chain[1 - low : k - low + 1]  # e_1 .. e_k
    return tuple(chain[k - low]), tuple(sum(e[s] for e in summed) for s in range(width))


def e_vector(p: int, k: int) -> tuple[int, ...]:
    """Coefficient vector e_k over a window of p consecutive lengths,
    defined for k >= 2 - p.  Its leading entry is the k-th p-step
    Fibonacci number."""
    require_p(p)
    require_int("chain index k", k)
    if k < 2 - p:
        raise DomainError(f"e-vectors are defined for k >= {2 - p}, got {k}")
    return _chain(p, p, k)[0]


def max_length_form(
    p: int, n: int, i: int, model: str = "pickup"
) -> tuple[int, Form]:
    """Upper bound data for stick i, as (denominator, numerator form), so
    that l_i_max = (1 - form(l_1, ..., l_{i-1})) / denominator.

    Pick-up sticks: chaining the window inequalities from stick i up to
    stick n and capping l_n at 1 leaves the single vector e_{n-i+1} over a
    window of min(i, p) sticks; its leading entry is the denominator and
    its tail gives the coefficients on the previous sticks.  Broken stick:
    the cap is the unit total length instead, so the chain vectors for
    sticks i..n add up (the running sum) and every earlier stick picks up
    one extra unit coefficient from the total.

    Stick n itself needs no chain (its cap is 1, or the rest of the unit
    stick) and is rejected here.
    """
    _check_model(model)
    require_subset(p, n)
    require_int("stick index i", i)
    if not 1 <= i <= n - 1:
        raise DomainError(f"max forms cover sticks 1..{n - 1}, got {i}")
    width = min(i, p)
    e_k, running = _chain(p, width, n - i + 1)
    acc = e_k if model == "pickup" else running
    coeffs = (0,) * (i - width) + acc[:0:-1]  # acc[t] multiplies l_{i-t}
    if model == "broken":
        coeffs = tuple(c + 1 for c in coeffs)
    return acc[0], coeffs


def _tail_corrected(term, p: int, n: int, count: int) -> tuple[int, ...]:
    """term(p, n-i+1) for i = 1..count, minus the weighted tail
    sum_j j * term(p, n-i-j) for the first p-2 sticks."""
    out = []
    for i in range(1, count + 1):
        v = term(p, n - i + 1)
        if i <= p - 2:
            v -= sum(j * term(p, n - i - j) for j in range(1, p - i))
        out.append(v)
    return tuple(out)


def m_constants(p: int, n: int) -> tuple[int, ...]:
    """Pick-up sticks denominators m_1..m_n via the step-Fibonacci closed
    form: m_i = F_{n-i+1} minus a weighted tail for the first p-2 sticks."""
    require_subset(p, n)
    return _tail_corrected(fib, p, n, n)


def s_constants(p: int, n: int) -> tuple[int, ...]:
    """Broken-stick denominators s_1..s_{n-1}; s_n = 1 is implied.

    Same shape as ``m_constants`` with every step-Fibonacci number
    replaced by its prefix sum.
    """
    require_subset(p, n)
    return _tail_corrected(fib_prefix_sum, p, n, n - 1)


def _window_walk(p: int, weights: list[int]) -> tuple[int, ...]:
    """For i = n down to 2, add weight i to each stick in i's window: a unit
    on stick n gives m, and a unit on every stick gives (s_1, ..., s_{n-1}, 1)."""
    for i in range(len(weights), 1, -1):
        for j in _window(p, i):
            weights[j - 1] += weights[i - 1]
    return tuple(weights)


def m_constants_via_jacobian(p: int, n: int) -> tuple[int, ...]:
    """The m-vector by an independent route: row n of the inverse of the
    change of variables y_i = l_i - l_i_min, which weighs y_k by the number
    of window paths from stick n down to stick k."""
    require_subset(p, n)
    return _window_walk(p, [0] * (n - 1) + [1])


def max_min_identity_mismatches(
    p: int, n: int, model: str = "pickup"
) -> tuple[int, ...]:
    """The sticks i at which the telescoping identity linking consecutive
    bound intervals,

        m_i * (l_i_max - l_i_min) == m_{i-1} * (l_{i-1}_max - l_{i-1}),

    fails as an identity of affine forms over l_1..l_{i-1}; empty when it
    holds at every feasible prefix.  The broken model reads s for m.  The
    right-hand factor subtracts the realized l_{i-1}, which is what the two
    pinned length sequences in the derivation equate.  The identity reaches
    stick n in the pick-up model but only stick n-1 in the broken model:
    the last broken piece is fixed by the others, so its interval does not
    telescope.

    With l_i_max = (1 - N_i) / m_i, the left side is the form
    1 - N_i - m_i * Min_i and the right side 1 - N_{i-1} - m_{i-1} * l_{i-1},
    so stick i passes when the coefficients of N_i + m_i * Min_i equal
    those of N_{i-1} with m_{i-1} appended as the coefficient of l_{i-1}.
    Both sides carry the same constant 1, since no form has a constant
    term.  Equal forms make the identity hold at every prefix; on a
    feasible region with an interior, unequal ones make it fail somewhere.
    The denominators come from the closed forms, the numerator forms N_i
    from the vector route.
    """
    _check_model(model)
    require_subset(p, n)
    if model == "pickup":
        denominators, top = m_constants(p, n), n
    else:
        denominators, top = s_constants(p, n), n - 1
    # stick n, reached by pick-up sticks only, is capped at 1: N_n = 0
    numerators = [
        max_length_form(p, n, i, model)[1] if i < n else (0,) * (n - 1)
        for i in range(1, top + 1)
    ]
    bad = []
    for i in range(2, top + 1):
        m = denominators[i - 1]
        lhs = tuple(a + m * b for a, b in zip(numerators[i - 1], min_length_form(p, i)))
        if lhs != numerators[i - 2] + (denominators[i - 2],):
            bad.append(i)
    return tuple(bad)
