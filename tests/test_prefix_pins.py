"""Feasible prefixes drawn by ``sample_feasible_prefix``, pinned by digest.

Each sampled length is lo + (hi - lo) * t on its own bound interval, so
these digests pin every lower and upper bound on the sampling path.  Each
pin is the sha256 of one line per draw, fractions written in hex.  The
digests were recorded once, before the bound interval was restructured,
and are never regenerated: a simpler derivation must draw the same
prefixes.
"""

import hashlib
from random import Random

import pytest

from stickprob.constraints import sample_feasible_prefix

MAX_N = 8
GRIDS = (1, 7, 64)
DRAWS = 3


def prefix_digest(model: str, p: int) -> str:
    """One line per draw: (n, k, max_denominator) and the prefix, for
    n = p+1..8, k = 1..n-1, three draws each from one seeded stream."""
    rng = Random(1000 * p + len(model))
    lines = []
    for n in range(p + 1, MAX_N + 1):
        for k in range(1, n):
            for grid in GRIDS:
                for _ in range(DRAWS):
                    prefix = sample_feasible_prefix(
                        p, n, k, rng, model=model, max_denominator=grid
                    )
                    values = ",".join(
                        f"{x.numerator:x}/{x.denominator:x}" for x in prefix
                    )
                    lines.append(f"{n} {k} {grid} {values}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (model, p) -> prefix_digest
PREFIX_PINS = {
    ("pickup", 2):
        "ec5cb4d8b68a81eb5a19af9c7502c1ded6f7c4d54eb702628d2cba8926b4894b",
    ("pickup", 3):
        "2fd20239b2fc720db465ef10f9c57d5912e21fde50db60306ce422c0fed951a4",
    ("pickup", 4):
        "df9488c4f0543c0080e910470d25e9f4bb9efd7d0d973c250a3a51ba047c3367",
    ("broken", 2):
        "44545d794c274af3fc628ced25637e68dc07b849342586edead0acfd7ba64685",
    ("broken", 3):
        "5a4a7c910034f69bed036809104d3ab9d69fd5824ad6cce8033f1bd8621ccb9a",
    ("broken", 4):
        "a82ff84667aa8618fc8a079341aa567b0ac50967a4609d4da6487b2ed2f95381",
}


@pytest.mark.parametrize(("model", "p"), list(PREFIX_PINS))
def test_feasible_prefixes(model, p):
    assert prefix_digest(model, p) == PREFIX_PINS[model, p]
