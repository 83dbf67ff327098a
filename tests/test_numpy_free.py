"""The exact half of the package runs without numpy.

Only ``stickprob.montecarlo`` imports numpy.  The closed forms, the
constants, the spec validation and the symbolic oracle are exercised in a
fresh interpreter, once with numpy blocked from importing and once with it
importable but expected to stay unloaded.  This file itself imports no
numpy, so it runs where numpy is not installed.
"""

import importlib.util
import os
import subprocess
import sys

import pytest

import stickprob
from stickprob import closedform, constraints, specs

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(stickprob.__file__)))

_EXACT_CALLS = """
import sys
from fractions import Fraction

import stickprob
from stickprob import closedform, oracle
from stickprob.errors import DomainError

for (event, model), evaluate in sorted(closedform._CLOSED_FORMS.items()):
    result = stickprob.closed_form(event, model)(2, 5, Fraction(1, 4))
    if result != evaluate(2, 5, Fraction(1, 4)):
        raise SystemExit(f"{event} {model}: the two lookups disagree")
    result.decimal(12)
stickprob.pn_broken(3, 200)
stickprob.m_constants(3, 8)
stickprob.s_constants(3, 8)
stickprob.DistributionSpec.uniform_truncated(Fraction(1, 10))
stickprob.EventSpec("random_subset_polygon", 3)
for bad in (
    lambda: stickprob.DistributionSpec("uniform"),
    lambda: stickprob.DistributionSpec.exponential(0.0),
    lambda: stickprob.EventSpec("no_polygon", 1),
):
    try:
        bad()
    except DomainError:
        pass
    else:
        raise SystemExit("a bad spec was accepted")
if oracle.symbolic_pn_pickup(2, 5) != stickprob.pn_pickup(2, 5):
    raise SystemExit("the oracle disagrees with pn_pickup")
print(sys.modules.get("numpy") is not None)
"""


def _numpy_loaded_after_exact_calls(prelude: str) -> bool:
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", prelude + _EXACT_CALLS],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_exact_path_runs_with_numpy_blocked():
    # a None entry makes every "import numpy" raise ImportError
    assert not _numpy_loaded_after_exact_calls("import sys; sys.modules['numpy'] = None")


def test_exact_path_leaves_numpy_unloaded():
    assert not _numpy_loaded_after_exact_calls("")


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy is not installed")
def test_root_serves_the_monte_carlo_names():
    from stickprob import montecarlo

    assert stickprob.estimate is montecarlo.estimate
    for name in ("DistributionSpec", "EventSpec", "MCEstimate", "EVENTS", "MODELS"):
        assert getattr(montecarlo, name) is getattr(specs, name)
    assert stickprob.DistributionSpec is montecarlo.DistributionSpec


def test_root_rejects_unknown_names():
    with pytest.raises(AttributeError):
        stickprob.no_such_name


def test_bound_models_are_sampling_models():
    assert set(constraints.BOUND_MODELS) <= set(specs.MODELS)


def test_closed_forms_are_keyed_by_event_and_model():
    for event, model in closedform._CLOSED_FORMS:
        assert event in specs.EVENTS and model in specs.MODELS
