"""Exact and statistical machinery for stick-length polygon problems.

Given n random stick lengths, what is the probability that no p+1 of them
(or every p+1, or one random subset of p+1) can form a (p+1)-sided
polygon?  This package evaluates every known closed form exactly with
big-integer rationals, and verifies each one three ways: independent
algebraic derivations of the same constants, literal symbolic integration
of the defining integrals, and seeded Monte Carlo simulation.

The root exports the supported surface; the submodules (``sequences``,
``constraints``, ``closedform``, ``montecarlo``, ``oracle``, ``verify``,
``cli``) hold the rest.
"""

from .closedform import (
    ExactProb,
    closed_form,
    is_vacuous,
    pa_pickup,
    pn_broken,
    pn_exponential,
    pn_pickup,
    pn_pickup_truncated,
    pr_pickup,
)
from .constraints import m_constants, s_constants
from .errors import (
    DomainError,
    InfeasiblePrefixError,
    ResourceLimitError,
    SticksError,
    UnsupportedFormulaError,
)
from .montecarlo import DistributionSpec, EventSpec, MCEstimate, estimate
from .sequences import StepFibTable, fib, fib_prefix_sum, t_value

__version__ = "1.0.0"

__all__ = [
    "DistributionSpec",
    "DomainError",
    "EventSpec",
    "ExactProb",
    "InfeasiblePrefixError",
    "MCEstimate",
    "ResourceLimitError",
    "StepFibTable",
    "SticksError",
    "UnsupportedFormulaError",
    "closed_form",
    "estimate",
    "fib",
    "fib_prefix_sum",
    "is_vacuous",
    "m_constants",
    "pa_pickup",
    "pn_broken",
    "pn_exponential",
    "pn_pickup",
    "pn_pickup_truncated",
    "pr_pickup",
    "s_constants",
    "t_value",
]
