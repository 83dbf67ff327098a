"""The exact half of the package runs without numpy.

Only ``stickprob.montecarlo`` imports numpy.  The closed forms, the
constants, the spec validation and the symbolic oracle are exercised in a
fresh interpreter, once with numpy blocked from importing and once with it
importable but expected to stay unloaded.  So is the command line: every
``compute``, ``table``, ``constants`` and ``verify --suite exact`` request
pinned in ``test_cli_golden`` prints its golden bytes without loading
numpy, and the Monte Carlo commands, which do load it, exit 2 with one
line on stderr where it cannot be imported.  Each command loads only the
subsystems it runs: only ``verify`` loads the verification suite and the
oracle, and a single-threaded ``simulate`` no thread pool.  This file
itself imports no numpy, so it runs where numpy is not installed.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import stickprob
from stickprob import closedform, constraints, specs
from test_cli_golden import GOLDEN

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


# a None entry makes every "import numpy" raise ImportError
_BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"

# each argv through the CLI in process; prints which of the watched modules
# got loaded and, per argv, [exit code, sha256 of stdout, stderr]
_CLI_REQUESTS = """
import hashlib, io, json, sys
from stickprob.cli import cli

WATCHED = ("numpy", "stickprob.verify", "stickprob.oracle", "concurrent.futures")

runs = {}
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    code = 0
    try:
        cli.main(args=argv.split(), prog_name="stickprob")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    runs[argv] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()]
loaded = [name for name in WATCHED if sys.modules.get(name) is not None]
print(json.dumps({"loaded": loaded, "runs": runs}))
"""

_EXACT_ARGV = [
    argv for argv in GOLDEN
    if argv.split()[0] in ("compute", "table", "constants") or argv == "verify --suite exact"
]
_MC_ARGV = [
    argv for argv in GOLDEN
    if (argv.split()[0] == "simulate" and GOLDEN[argv][0] == 0) or argv.startswith("verify --suite mc")
]
_EMPTY = hashlib.sha256(b"").hexdigest()


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


def _numpy_loaded_after_exact_calls(prelude: str) -> bool:
    proc = _python(prelude + _EXACT_CALLS)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def _cli_requests(prelude: str, argvs: list[str]) -> tuple[set, dict]:
    proc = _python(prelude + _CLI_REQUESTS, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    return set(report["loaded"]), report["runs"]


def _assert_golden(runs: dict) -> None:
    for argv, (code, digest, stderr) in runs.items():
        assert (code, digest) == GOLDEN[argv], f"{argv}: {stderr}"


def test_exact_path_runs_with_numpy_blocked():
    assert not _numpy_loaded_after_exact_calls(_BLOCK_NUMPY)


def test_exact_path_leaves_numpy_unloaded():
    assert not _numpy_loaded_after_exact_calls("")


def test_exact_commands_leave_numpy_unloaded():
    assert "verify --suite exact" in _EXACT_ARGV
    loaded, runs = _cli_requests("", _EXACT_ARGV)
    assert "numpy" not in loaded
    _assert_golden(runs)


def test_only_verify_loads_the_oracle():
    argvs = [argv for argv in _EXACT_ARGV if argv.split()[0] != "verify"]
    loaded, runs = _cli_requests("", argvs)
    assert loaded == set()
    _assert_golden(runs)


def test_exact_commands_print_their_goldens_with_numpy_blocked():
    loaded, runs = _cli_requests(_BLOCK_NUMPY, _EXACT_ARGV)
    assert "numpy" not in loaded
    _assert_golden(runs)


def test_monte_carlo_commands_exit_2_with_numpy_blocked():
    argvs = _MC_ARGV + ["verify --suite all"]
    loaded, runs = _cli_requests(_BLOCK_NUMPY, argvs)
    assert "numpy" not in loaded
    for argv, (code, digest, stderr) in runs.items():
        assert code == 2, argv
        assert digest == _EMPTY, f"{argv}: stdout is not empty"
        assert stderr.count("\n") == 1 and "numpy" in stderr, f"{argv}: {stderr!r}"


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy is not installed")
def test_monte_carlo_commands_load_numpy():
    assert "verify --suite mc --trials 20000" in _MC_ARGV
    loaded, runs = _cli_requests("", _MC_ARGV)
    # every request here runs one chunk, so on one thread and with no pool
    assert loaded == {"numpy", "stickprob.verify", "stickprob.oracle"}
    _assert_golden(runs)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None, reason="numpy is not installed")
def test_root_serves_the_monte_carlo_names():
    from stickprob import montecarlo

    assert montecarlo.__all__ == ["estimate"]
    assert stickprob.estimate is montecarlo.estimate
    for name in ("DistributionSpec", "EventSpec", "MCEstimate"):
        assert getattr(stickprob, name) is getattr(specs, name)


def test_root_rejects_unknown_names():
    with pytest.raises(AttributeError):
        stickprob.no_such_name


def test_bound_models_are_sampling_models():
    assert set(constraints.BOUND_MODELS) <= set(specs.MODELS)


def test_closed_forms_are_keyed_by_event_and_model():
    for event, model in closedform._CLOSED_FORMS:
        assert event in specs.EVENTS and model in specs.MODELS
