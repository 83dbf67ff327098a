"""Lengths written by ``montecarlo._lengths_into``, pinned exactly.

Every model at n in {1, 2, 5, 20}, with the exponential model at two rates
so that the division by the rate is pinned too.  Each pin is the sha256 of
one line per draw, each length written with ``float.hex``, so a pin holds
only if every bit of every length is unchanged.  The digests were recorded
once, before the length transforms were rewritten to work in place, and are
never regenerated.
"""

import hashlib

import numpy as np
import pytest

from stickprob.montecarlo import _lengths_into, _trial_words
from stickprob.specs import NO_POLYGON, DistributionSpec, EventSpec

DRAWS = 4
DISTS = {
    "pickup": DistributionSpec.uniform01(),
    "truncated": DistributionSpec.uniform_truncated(0.25),
    "exponential": DistributionSpec.exponential(1.0),
    "exponential-3": DistributionSpec.exponential(3.0),
    "broken": DistributionSpec.broken_stick(),
}


def draw_lengths(dist: DistributionSpec, n: int, gen: np.random.Generator) -> np.ndarray:
    """One row of n sorted lengths from the next uniforms of ``gen``."""
    u = gen.random((1, _trial_words(EventSpec(NO_POLYGON, 2), dist, n)[0]))
    x = np.empty((1, n))
    _lengths_into(dist, u, x)
    return x[0]


def lengths_digest(name: str, n: int) -> str:
    """One line per draw, four draws from one Philox stream per cell."""
    gen = np.random.Generator(np.random.Philox(key=1000 * n + len(name)))
    lines = [
        " ".join(float.hex(x) for x in draw_lengths(DISTS[name], n, gen).tolist())
        for _ in range(DRAWS)
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (DISTS key, n) -> lengths_digest
SAMPLE_PINS = {
    ("pickup", 1):
        "d8409451d60433bcfcd97c1aa633bc7321a461bf776672e0668ea3987075ce62",
    ("pickup", 2):
        "cb2b0c502a5613cbbd45dc0c3853aa59a1f3e24af10429c17a18308bc2b76836",
    ("pickup", 5):
        "23a51538d90ca2d71554f0a7579d242531a9e90bd6c6ec5c01590efc7cf5e879",
    ("pickup", 20):
        "e5ceddc4202a426c081fa4cd8a6cb5d9530a06bcf01fefa8f9bdd93360ea8ffe",
    ("truncated", 1):
        "607c678e898da7b86715e2b2cf7586e1683195daf3b9267a3b3dd36addbc3234",
    ("truncated", 2):
        "24d33ec1d7ae42d866e6d50459c16eae28c041587e9280f543339717e2289876",
    ("truncated", 5):
        "5e210b9335e2ded14b98298faa48c82738c4daa9230ce626d0dc319d44069e5e",
    ("truncated", 20):
        "64d776a372b1c29269b9eea0e06961f6255830b9007f6eb071ea3eb41ec69f03",
    ("exponential", 1):
        "4b6272e5553327f262533187475aa9cb1b7a2aed0e70daa124cdda734de7da66",
    ("exponential", 2):
        "cf6bd3a8bd2ccba46e26f7c2fa9212e9472ca1ea6a4dc47f7914a41d3ce03808",
    ("exponential", 5):
        "ff8f3d704d7b012e6cfbdfc19ece180874388f707d528363002c8bd8a30f314d",
    ("exponential", 20):
        "c0750475c8bbc572b9d0f14fc322d38afa145f58439ecd700f3175bb74e41fd0",
    ("exponential-3", 1):
        "4b6451af4f0cd055557da0e41460ac40a478234ccabbd91cd0e025f898461574",
    ("exponential-3", 2):
        "aeba0d4b4e36a570189131c65d8b5ee314fa727f19fe6800e08b5c36a4ab5c5b",
    ("exponential-3", 5):
        "3f736606e3886ec0caa27afac47bf104a6df073b7236c58d0fcd30cf10927e7e",
    ("exponential-3", 20):
        "d72d122bdec6dab3b5c149fb3c317be5d9f69fca06113714c7dbdaa90f9437b8",
    ("broken", 1):
        "6c980c4a33d19226d2749ee944037e8d9e4212b826fe41bba78e356e4316a510",
    ("broken", 2):
        "75c5f21d8e7e5843a8ae6b1b68c43d7d446dfe036041243116e1fb511fc2b932",
    ("broken", 5):
        "5a9bc015703543341840877c51b02dd9d42ded575a81452acb48daf46d2d7e72",
    ("broken", 20):
        "354acad995aae4f9922b0f71498cdde5cd896f158631cd8bd3d67015d40ed4b0",
}


@pytest.mark.parametrize(("name", "n"), list(SAMPLE_PINS))
def test_sampled_lengths(name, n):
    assert lengths_digest(name, n) == SAMPLE_PINS[name, n]


def test_broken_single_piece_is_the_whole_stick():
    gen = np.random.Generator(np.random.Philox(key=3))
    lengths = draw_lengths(DistributionSpec.broken_stick(), 1, gen)
    assert lengths.dtype == np.float64
    assert lengths.tolist() == [1.0]
