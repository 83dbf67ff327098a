"""Exact and statistical machinery for stick-length polygon problems.

Given n random stick lengths, what is the probability that no p+1 of them
(or every p+1, or one random subset of p+1) can form a (p+1)-sided
polygon?  This package evaluates every known closed form exactly with
big-integer rationals, and verifies each one three ways: independent
algebraic derivations of the same constants, literal symbolic integration
of the defining integrals, and seeded Monte Carlo simulation.

The root exports the supported surface; the submodules (``sequences``,
``constraints``, ``closedform``, ``specs``, ``montecarlo``, ``oracle``,
``verify``, ``cli``) hold the rest.  Importing the package loads no numpy:
``montecarlo`` is the only module that needs it, and ``estimate`` loads it
on first access.  The exact evaluators run with numpy absent.
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
    ResourceLimitError,
    SticksError,
    UnsupportedFormulaError,
)
from .sequences import StepFibTable, fib, fib_prefix_sum, t_value
from .specs import DistributionSpec, EventSpec, MCEstimate

__version__ = "1.0.0"

__all__ = [
    "DistributionSpec",
    "DomainError",
    "EventSpec",
    "ExactProb",
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


def __getattr__(name: str):
    # PEP 562: load the Monte Carlo module, and numpy with it, only when
    # ``estimate`` is asked for
    if name == "estimate":
        from .montecarlo import estimate

        return estimate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
