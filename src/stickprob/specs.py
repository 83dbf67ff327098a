"""The names of the sampling models and events, the validated specs
that select them, and the default Monte Carlo seed.

Plain Python, without numpy: the exact path, the CLI's option choices and
the Monte Carlo estimator read these same definitions, and only
``montecarlo`` loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import DomainError, require_p

__all__ = [
    "MODELS",
    "EVENTS",
    "NO_POLYGON",
    "ALL_POLYGON",
    "RANDOM_SUBSET_POLYGON",
    "DistributionSpec",
    "EventSpec",
    "MCEstimate",
    "MC_BASE_SEED",
]

# sampling models, named as in the CLI and the closed-form table
MODELS = ("pickup", "truncated", "exponential", "broken")

NO_POLYGON = "no_polygon"
ALL_POLYGON = "all_polygon"
RANDOM_SUBSET_POLYGON = "random_subset_polygon"
# the event kinds under the CLI's short names
EVENTS = {"pn": NO_POLYGON, "pa": ALL_POLYGON, "pr": RANDOM_SUBSET_POLYGON}

# the default base seed of the Monte Carlo concordance suite (cell k runs on
# seed + k), kept here so the CLI names it without loading verify
MC_BASE_SEED = 20250810


@dataclass(frozen=True)
class DistributionSpec:
    """Sampling model for the stick lengths.

    ``a`` is the truncation point of the ``truncated`` model, in [0, 1).
    ``rate`` is the ``exponential`` model's rate, a finite number in
    [1e-280, 1e280]: the positive lengths -log1p(-u) / rate then lie in
    [2**-53, 53 ln 2] / rate, so every length, and every sum of fewer than
    2**63 of them, is a normal float.  Both take any real number, a
    ``Fraction`` included, and are stored as floats.
    """

    kind: str
    a: float = 0.0
    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in MODELS:
            raise DomainError(f"unknown sampling model {self.kind!r}")
        for name in ("a", "rate"):
            value = getattr(self, name)
            if not isinstance(value, Real):
                raise DomainError(f"{name} must be a real number, got {value!r}")
            try:
                value = float(value)
            except OverflowError:  # an infinity, for the range checks below
                value = math.inf if value > 0 else -math.inf
            object.__setattr__(self, name, value)
        if self.kind == "truncated" and not 0.0 <= self.a < 1.0:
            raise DomainError(f"truncation point must lie in [0, 1), got {self.a}")
        if self.kind == "exponential" and not 1e-280 <= self.rate <= 1e280:
            raise DomainError(f"rate must be a number in [1e-280, 1e280], got {self.rate}")

    @classmethod
    def uniform01(cls) -> "DistributionSpec":
        return cls("pickup")

    @classmethod
    def uniform_truncated(cls, a: float) -> "DistributionSpec":
        return cls("truncated", a=a)

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "DistributionSpec":
        return cls("exponential", rate=rate)

    @classmethod
    def broken_stick(cls) -> "DistributionSpec":
        return cls("broken")


@dataclass(frozen=True)
class EventSpec:
    """Which polygon-formation event a trial scores."""

    kind: str
    p: int

    def __post_init__(self) -> None:
        if self.kind not in EVENTS.values():
            raise DomainError(f"unknown event kind {self.kind!r}")
        require_p(self.p)


@dataclass(frozen=True)
class MCEstimate:
    """Point estimate with its binomial standard error."""

    p_hat: float
    trials: int
    std_err: float
    seed: int
    event: EventSpec
    dist: DistributionSpec
    successes: int
