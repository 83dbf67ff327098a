"""Exact PN values and the sequences under them, pinned by digest.

Each pin is the sha256 of a value written in hex (``num:x/den:x`` for a
fraction), which sidesteps CPython's int->str limit.  The digests were
recorded once, before the products and prefix sums were restructured, and
are never regenerated: a faster evaluation must give the same fractions.
The small grid is checked a second time in a ``python -O`` interpreter,
which strips the cross-route asserts in ``closedform``.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stickprob.closedform import (
    pn_broken,
    pn_exponential,
    pn_pickup,
    pn_pickup_truncated,
)
from stickprob.constraints import s_constants
from stickprob.sequences import fib_prefix_sum, t_value

SRC = Path(__file__).resolve().parents[1] / "src"

EVALUATORS = {
    "pickup": pn_pickup,
    "broken": pn_broken,
    "exponential": pn_exponential,
    "truncated": lambda p, n: pn_pickup_truncated(p, n, Fraction(1, 7)),
}
SMALL_NS = range(1, 41)
SEQ_INDEX = 1001


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _hex(prob) -> str:
    return f"{prob.numerator:x}/{prob.denominator:x}"


def small_grid_digest(model: str, p: int) -> str:
    """One digest over PN(p, n) for n = 1..40, one hex fraction a line."""
    evaluate = EVALUATORS[model]
    return _sha("\n".join(_hex(evaluate(p, n)) for n in SMALL_NS))


# (model, p) -> small_grid_digest
SMALL_PINS = {
    ('pickup', 2):
        "45988b851ad1555f20dc35208b8e8090dca8cf79b1b8db6ab6091447b90dbc23",
    ('pickup', 3):
        "6c244a9460607f1063d85021da5b5b39d414d93ff25857741ff4b76fd6500a79",
    ('pickup', 4):
        "24bd88a3649cf23fd7f710c2afab0f40e50d51c1cdd3c4aae2ef3e05bf3d6435",
    ('pickup', 5):
        "0d28277b4ad024d5709d29109eeaaf6a7b41b807db0a08c08d21148f1f07cd1f",
    ('broken', 2):
        "8694e1e7fc11794dac05ba4c16bc31dbe2ebdb128be14e3be7f0011da27b6ef7",
    ('broken', 3):
        "3d27c2eea61a3f3a61f8387322782319735080121d95b4557b5cfd4bdf7dc5ac",
    ('broken', 4):
        "724396c43d9bc49c72b61c547be3e1fa95f0ed72f4a752128be9befa740073fd",
    ('broken', 5):
        "07d5ed2be8cc15f7eeb04944ffb0bc992dfd85126885eafecde8829c3e8ed164",
    ('exponential', 2):
        "8694e1e7fc11794dac05ba4c16bc31dbe2ebdb128be14e3be7f0011da27b6ef7",
    ('exponential', 3):
        "3d27c2eea61a3f3a61f8387322782319735080121d95b4557b5cfd4bdf7dc5ac",
    ('exponential', 4):
        "724396c43d9bc49c72b61c547be3e1fa95f0ed72f4a752128be9befa740073fd",
    ('exponential', 5):
        "07d5ed2be8cc15f7eeb04944ffb0bc992dfd85126885eafecde8829c3e8ed164",
    ('truncated', 2):
        "732cd38e869456889d6f5eec124613011825f23184a94318e0a7d6c99093e8a9",
    ('truncated', 3):
        "0794c4905a169e5de8963f255010f15424d7028a2ed6c384b11ddc3002fa4544",
    ('truncated', 4):
        "f595307827f1a30ef2b9c8223cabb77402beeade9968005bb1bf55ef07908303",
    ('truncated', 5):
        "1cfd0769b80a175bfe87c190429c202f057e83b14236824f19a281219a2a6090",
}

# (model, p, n) -> digest of the single fraction
LARGE_PINS = {
    ('pickup', 2, 255):
        "a50c55f2cb55ab1acadedd69efca11e78a239098c69f30e5bfe1041cf8729335",
    ('pickup', 2, 503):
        "fb3899865e0f231a047f769043165861fe4efe60f144bb6465f1c526248a8bff",
    ('pickup', 2, 1001):
        "dd33c032d35f8cdbe02adca5214c0330253a1f6fea9a732d710b2cc0f7935e35",
    ('pickup', 3, 255):
        "bf7ef055bab030859ecf0dd88afd4be8b978af55b8c2631d3103cd61f74496b8",
    ('pickup', 3, 503):
        "8607f03bb8d5b66276bf5212929bc1d9a24cd27bef3ce927fbc4004ac126d6a9",
    ('pickup', 3, 1001):
        "8f5d430ae4ff3ae79f20d9b122527cf88c5f6335abdc9e5be2eeba111fbeedbc",
    ('pickup', 4, 255):
        "77efb57ea829877eefcaadb635958fb74443f11ec56d581498b22cfec6546381",
    ('pickup', 4, 503):
        "d411af5a7bee6b7cc49efd90747b40fb75b5e63bb1ff4f6f9b5fa50d090a0a9c",
    ('pickup', 5, 255):
        "55a9b3a8902ec60e5a716e979a6f11b617a5efe5c2f2428bbe4c000b086a80cf",
    ('pickup', 5, 503):
        "adc57d62bff5d0ee509cf9a14f2d01345d220ff0778ebc00ae6eb07cdffa5dc2",
    ('broken', 2, 255):
        "63e26353148cbd9ceea13c29b73edc3ae9afb55ae1ddd64f90fddbf678ea2030",
    ('broken', 2, 503):
        "a745b313f941a82398c067a149f14e5359a066f311e344fd26ad561033a26a70",
    ('broken', 2, 1001):
        "011ea57d576b35398e3c39ef0ec173bbf5e0081577db532367a480a604566eba",
    ('broken', 3, 255):
        "8f026cc774daf1c3e24d6c1b4becdc1b85ec621d012c1956b6cf1d078c8f1a0c",
    ('broken', 3, 503):
        "94f37c8fcfb8087792a78fdabf0fb4b1fcf00e850595c990c6780bcf38a9b408",
    ('broken', 3, 1001):
        "0efda3da517b8472b08f2a4d95ffccd001cceb2c6460a3d3b7f6492cc8869f26",
    ('broken', 4, 255):
        "a87767a08463437e0318eebb1b003e319adb5d75f8d902c71e3b34c8282d80c5",
    ('broken', 4, 503):
        "73b74f89cced6eb4187e61847c110dd186fd41b50bdb0c9331f7218fe8639da5",
    ('broken', 5, 255):
        "8703b89a82e0de0a34f2f1a9468f6bc9b9fd798545860cbfc284d1c31f228d32",
    ('broken', 5, 503):
        "fa241a89af4de6012d9812d6e9ad5547d83a4799a51f2f238de0a286797f6da4",
    ('exponential', 2, 255):
        "63e26353148cbd9ceea13c29b73edc3ae9afb55ae1ddd64f90fddbf678ea2030",
    ('exponential', 2, 503):
        "a745b313f941a82398c067a149f14e5359a066f311e344fd26ad561033a26a70",
    ('exponential', 2, 1001):
        "011ea57d576b35398e3c39ef0ec173bbf5e0081577db532367a480a604566eba",
    ('exponential', 3, 255):
        "8f026cc774daf1c3e24d6c1b4becdc1b85ec621d012c1956b6cf1d078c8f1a0c",
    ('exponential', 3, 503):
        "94f37c8fcfb8087792a78fdabf0fb4b1fcf00e850595c990c6780bcf38a9b408",
    ('exponential', 3, 1001):
        "0efda3da517b8472b08f2a4d95ffccd001cceb2c6460a3d3b7f6492cc8869f26",
    ('exponential', 4, 255):
        "a87767a08463437e0318eebb1b003e319adb5d75f8d902c71e3b34c8282d80c5",
    ('exponential', 4, 503):
        "73b74f89cced6eb4187e61847c110dd186fd41b50bdb0c9331f7218fe8639da5",
    ('exponential', 5, 255):
        "8703b89a82e0de0a34f2f1a9468f6bc9b9fd798545860cbfc284d1c31f228d32",
    ('exponential', 5, 503):
        "fa241a89af4de6012d9812d6e9ad5547d83a4799a51f2f238de0a286797f6da4",
    ('truncated', 2, 255):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 2, 503):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 2, 1001):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 3, 255):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 3, 503):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 3, 1001):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 4, 255):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 4, 503):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 5, 255):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
    ('truncated', 5, 503):
        "a93875fe509ac2fae0e0939d3ec71c4d978244c7398dd7185ca68c393426a5a6",
}

# (sequence, p) -> digest at index SEQ_INDEX (s_constants: its whole tuple)
SEQUENCE_PINS = {
    ('s_constants', 2):
        "dbf956ed6f37ae8c7865bd12cc6fd106d040988175ad9a1edb45659cab516407",
    ('fib_prefix_sum', 2):
        "d7dfbd171c0316a6d12d0bbc5e5e611f25dcc053903c3280c4cac8c493a3712b",
    ('t_value', 2):
        "d7dfbd171c0316a6d12d0bbc5e5e611f25dcc053903c3280c4cac8c493a3712b",
    ('s_constants', 3):
        "acd6920ea5d037a11726c4a6545e3e111b35583d6e160a02d578512ddb304b8f",
    ('fib_prefix_sum', 3):
        "8b002cf301b569e74a1c4685492100b4a5140557eb7ce1c859cd587618f5183a",
    ('t_value', 3):
        "8b002cf301b569e74a1c4685492100b4a5140557eb7ce1c859cd587618f5183a",
    ('s_constants', 4):
        "3c63916ae8f8a9dc79ba7f794768feafd0d0519f54438d5ab0f2a2f420574dd7",
    ('fib_prefix_sum', 4):
        "d0eebaacfe732bb2bc1512e9353b0c6287f4a7319bcba80184f60ed34eb458e3",
    ('t_value', 4):
        "d0eebaacfe732bb2bc1512e9353b0c6287f4a7319bcba80184f60ed34eb458e3",
    ('s_constants', 5):
        "69374be1c4c32928adf191e74eba844cdcd8d9e4186748b76623a7593a6ad393",
    ('fib_prefix_sum', 5):
        "9cf31290a5f1715e77675d016b9030203f5ff0b25190ff7034f7cf3f0621618c",
    ('t_value', 5):
        "9cf31290a5f1715e77675d016b9030203f5ff0b25190ff7034f7cf3f0621618c",
}

SEQUENCES = {
    "s_constants": lambda p: ",".join(f"{v:x}" for v in s_constants(p, SEQ_INDEX)),
    "fib_prefix_sum": lambda p: f"{fib_prefix_sum(p, SEQ_INDEX):x}",
    "t_value": lambda p: f"{t_value(p, SEQ_INDEX):x}",
}


@pytest.mark.parametrize(("model", "p"), list(SMALL_PINS))
def test_small_grid(model, p):
    assert small_grid_digest(model, p) == SMALL_PINS[model, p]


@pytest.mark.parametrize(("model", "p", "n"), list(LARGE_PINS))
def test_large_n(model, p, n):
    assert _sha(_hex(EVALUATORS[model](p, n))) == LARGE_PINS[model, p, n]


@pytest.mark.parametrize(("name", "p"), list(SEQUENCE_PINS))
def test_sequences_at_largest_index(name, p):
    assert _sha(SEQUENCES[name](p)) == SEQUENCE_PINS[name, p]


def test_small_grid_without_asserts():
    """Under ``python -O`` the cross-route asserts are gone; the values
    must not depend on them."""
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import test_exact_pins as pins\n"
        "print(json.dumps({'optimize': sys.flags.optimize, 'digests': "
        "[[m, p, pins.small_grid_digest(m, p)] for m, p in pins.SMALL_PINS]}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert {(m, p): d for m, p, d in out["digests"]} == SMALL_PINS
