"""The CLI exits with a documented status for any argv: drawn argv from a
bounded grammar, and the worker count from the flag or the environment."""

import json

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from stickprob.cli import cli

# ---------------------------------------------------------------------------
# --workers and STICKPROB_WORKERS
# ---------------------------------------------------------------------------

COMMANDS = {
    "simulate": ["simulate", "--event", "pn", "--p", "2", "--n", "4", "--trials", "500"],
    "verify": ["verify", "--suite", "exact"],
}
BAD_WORKERS = {
    "flag-0": (["--workers", "0"], None),
    "env-0": ([], "0"),
    "env-abc": ([], "abc"),
}


@pytest.mark.parametrize("source", list(BAD_WORKERS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_bad_worker_count_is_a_usage_error(command, source):
    flags, env = BAD_WORKERS[source]
    res = CliRunner().invoke(
        cli, COMMANDS[command] + flags, env={"STICKPROB_WORKERS": env}, catch_exceptions=False
    )
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "--workers" in res.stderr


@pytest.mark.parametrize(("flags", "env", "expected"), [
    ([], None, 1),
    ([], "3", 3),
    (["--workers", "2"], "abc", 2),
])
def test_flag_overrides_environment(flags, env, expected):
    res = CliRunner().invoke(
        cli, COMMANDS["simulate"] + flags, env={"STICKPROB_WORKERS": env}, catch_exceptions=False
    )
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["inputs"]["workers"] == expected


# ---------------------------------------------------------------------------
# drawn argv
# ---------------------------------------------------------------------------

GARBAGE = st.sampled_from(["abc", "", "1/0", "1:", ":", "2:x", "nan", "-", "--"])
UNKNOWN_FLAGS = st.sampled_from(["--bogus", "-x", "--p=", "--verbose"])


def rarely(odds):
    """True one draw in ``odds``; shrinks towards False."""
    return st.sampled_from([False] * (odds - 1) + [True])


def mostly(usual, unusual, odds=8):
    """A draw from ``usual``, but one in ``odds`` from ``unusual``."""
    return rarely(odds).flatmap(lambda odd: unusual if odd else usual)


def value(strategy):
    """Mostly a well-formed value, one draw in sixteen a garbage string."""
    return mostly(strategy, GARBAGE, 16)


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def ranges(lo, hi, width):
    """lo:hi with at most ``width`` entries, else a single value or an empty range."""
    span = st.tuples(st.integers(lo, hi), st.integers(0, width - 1))
    return mostly(
        span.map(lambda t: f"{t[0]}:{t[0] + t[1]}"),
        st.one_of(ints(lo, hi), span.map(lambda t: f"{t[0]}:{t[0] - t[1] - 1}")),
    )


def choice(*names):
    return value(st.sampled_from(names))


P = value(mostly(ints(2, 12), ints(-2, 1)))
N = value(mostly(ints(1, 60), ints(-3, 0)))
PROBLEMS = choice("pn", "pa", "pr")
MODELS = choice("pickup", "truncated", "exponential", "broken")
RATIONALS = value(mostly(
    st.sampled_from(["0", "1/4", "1/2", "99/100", "0.25", "1e-3"]),
    st.sampled_from(["1", "-1/3", "3/2"]),
))
DIGITS = value(mostly(ints(0, 60), st.sampled_from(["-1", "4000", "4001", "5000"])))

OPTIONS = {
    "compute": {
        "--model": MODELS, "--p": P, "--n": N, "--a": RATIONALS, "--decimal-digits": DIGITS,
    },
    "table": {
        # at most 5 x 6 = 30 cells
        "--model": MODELS, "--p": value(mostly(ranges(2, 12, 5), ranges(-1, 1, 5))),
        "--n": value(mostly(ranges(1, 60, 6), ranges(-2, 0, 6))),
        "--a": RATIONALS, "--output": choice("json", "csv"), "--decimal-digits": DIGITS,
    },
    "simulate": {
        "--event": PROBLEMS, "--model": MODELS, "--p": P, "--n": N,
        "--trials": value(mostly(ints(1, 5000), ints(-5, 0))),
        "--seed": value(mostly(ints(0, 2**32), st.sampled_from(["-1", str(2**64)]))),
        "--workers": value(mostly(ints(1, 4), ints(-1, 0))), "--a": RATIONALS,
        "--rate": value(mostly(st.sampled_from(["1", "0.5", "3"]),
                               st.sampled_from(["0", "-1", "inf", "nan", "1e300"]))),
        "--decimal-digits": DIGITS,
    },
    "constants fib": {"--p": P, "--i": value(ranges(-3, 60, 30))},
    "constants m": {"--p": P, "--n": N},
    "constants s": {"--p": P, "--n": N},
    "constants emax": {"--p": P, "--n": N, "--i": value(ints(-1, 60)),
                       "--model": mostly(choice("pickup", "broken"), MODELS)},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["compute", "table", "simulate", "constants"]))
    if command == "constants":
        command += " " + draw(mostly(st.sampled_from(["fib", "m", "s", "emax"]), GARBAGE))
    argv = command.split()
    problem = draw(PROBLEMS) if command in ("compute", "table") else None
    if problem is not None:
        argv.append(problem)
    options = OPTIONS.get(command, {})
    model = draw(options["--model"]) if "--model" in options else None
    # what a well-formed request passes; each choice is flipped one draw in sixteen
    needed = {
        "--event": True, "--p": True, "--i": True, "--n": problem != "pr",
        "--a": model == "truncated", "--rate": model == "exponential",
        "--model": True if model != "pickup" else None,
    }
    pairs = []
    for name, values in options.items():
        usual = needed.get(name)
        if draw(st.booleans()) if usual is None else draw(rarely(16)) != usual:
            pairs.append([name, model if name == "--model" else draw(values)])
    if draw(rarely(16)):
        pairs.append([draw(UNKNOWN_FLAGS)])
    for pair in draw(st.permutations(pairs)):
        argv += pair
    return argv


@settings(max_examples=250, deadline=None)
@given(argvs())
# boundary cases run on every pass: the largest truncated n, a NaN rate, a wide table
@example(["compute", "pn", "--p", "2", "--n", "60", "--model", "truncated", "--a", "99/100"])
@example(["simulate", "--event", "pn", "--p", "2", "--n", "4", "--rate", "nan",
          "--model", "exponential"])
@example(["table", "pn", "--p", "2:6", "--n", "55:60", "--decimal-digits", "5000"])
def test_any_argv_exits_with_a_documented_status(argv):
    res = CliRunner().invoke(cli, argv)
    assert res.exception is None or isinstance(res.exception, SystemExit), (argv, res.exception)
    assert res.exit_code in (0, 2, 3), (argv, res.output)
