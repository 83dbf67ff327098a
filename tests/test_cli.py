import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from stickprob import closedform, constraints
from stickprob.cli import _form_text, cli
from stickprob.constraints import m_constants
from stickprob.verify import EXACT_CHECKS

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, env=None):
    return runner.invoke(cli, list(args), env=env, catch_exceptions=False)


class TestCompute:
    def test_pn_pickup(self, runner):
        res = invoke(runner, "compute", "pn", "--model", "pickup", "--p", "2", "--n", "4")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["result"]["exact"] == {"num": 1, "den": 6}
        assert payload["result"]["vacuous"] is False
        assert payload["schema_version"] == 1

    def test_pn_default_model(self, runner):
        res = invoke(runner, "compute", "pn", "--p", "2", "--n", "4")
        assert json.loads(res.output)["inputs"]["model"] == "pickup"

    def test_pr(self, runner):
        res = invoke(runner, "compute", "pr", "--p", "2")
        payload = json.loads(res.output)
        assert payload["result"]["exact"] == {"num": 1, "den": 2}

    def test_truncated(self, runner):
        res = invoke(
            runner, "compute", "pn", "--model", "truncated",
            "--p", "2", "--n", "3", "--a", "1/4",
        )
        payload = json.loads(res.output)
        assert payload["result"]["exact"] == {"num": 4, "den": 27}
        assert payload["inputs"]["a"] == "1/4"

    def test_vacuous_annotation(self, runner):
        res = invoke(runner, "compute", "pn", "--p", "3", "--n", "3")
        payload = json.loads(res.output)
        assert payload["result"]["exact"] == {"num": 1, "den": 1}
        assert payload["result"]["vacuous"] is True

    def test_round_trip(self, runner):
        res = invoke(runner, "compute", "pn", "--model", "broken", "--p", "2", "--n", "4")
        payload = json.loads(res.output)
        again = invoke(
            runner, "compute", payload["inputs"]["problem"],
            "--model", payload["inputs"]["model"],
            "--p", str(payload["inputs"]["p"]),
            "--n", str(payload["inputs"]["n"]),
        )
        assert json.loads(again.output) == payload

    def test_unsupported_pa_exits_3(self, runner):
        res = runner.invoke(cli, ["compute", "pa", "--p", "4", "--n", "6"])
        assert res.exit_code == 3
        assert "Monte Carlo" in res.output

    def test_vacuous_pa_beyond_quadrilaterals(self, runner):
        res = invoke(runner, "compute", "pa", "--p", "5", "--n", "5")
        result = json.loads(res.output)["result"]
        assert result["exact"] == {"num": 1, "den": 1}
        assert result["vacuous"] is True

    def test_usage_errors_exit_2(self, runner):
        cases = [
            ["compute", "pn", "--p", "2"],                      # missing --n
            ["compute", "pn", "--p", "1", "--n", "4"],          # bad p
            ["compute", "pr", "--p", "2", "--n", "5"],          # pr takes no n
            ["compute", "pn", "--p", "2", "--n", "4", "--a", "1/4"],  # a without truncated
            ["compute", "pn", "--model", "truncated", "--p", "2", "--n", "3"],  # missing a
            ["compute", "pn", "--model", "truncated", "--p", "2", "--n", "3", "--a", "x"],
            ["compute", "pn", "--p", "2", "--n", "4", "--frob"],  # unknown flag
            ["compute", "pn", "--p", "2", "--n", "4", "--decimal-digits", "-1"],
            ["table", "pn", "--p", "2", "--n", "3:5", "--decimal-digits", "-1"],
            ["compute", "pn", "--p", "2", "--n", "30", "--decimal-digits", "5000"],
            ["table", "pn", "--p", "2", "--n", "3:5", "--decimal-digits", "4001"],
            ["simulate", "--event", "pn", "--model", "exponential", "--p", "2",
             "--n", "4", "--trials", "10", "--rate", "nan"],
            ["simulate", "--event", "pn", "--model", "exponential", "--p", "2",
             "--n", "4", "--trials", "10", "--rate", "0"],
            ["simulate", "--event", "pn", "--model", "exponential", "--p", "2",
             "--n", "4", "--trials", "10", "--rate", "-1"],
            # every length overflows, or collapses into a tie with the others
            ["simulate", "--event", "pn", "--model", "exponential", "--p", "2",
             "--n", "5", "--trials", "20000", "--seed", "1", "--rate", "inf"],
            ["simulate", "--event", "pn", "--model", "exponential", "--p", "2",
             "--n", "5", "--trials", "20000", "--seed", "1", "--rate", "1e-320"],
        ]
        for args in cases:
            # an exception the CLI lets escape fails here instead of exiting 1
            res = runner.invoke(cli, args, catch_exceptions=False)
            assert res.exit_code == 2, args
            assert "Traceback" not in res.output, args

    @pytest.mark.parametrize(("args", "event", "model"), [
        (["compute", "pa", "--model", "broken", "--p", "2", "--n", "4"], "pa", "broken"),
        (["compute", "pr", "--model", "broken", "--p", "2"], "pr", "broken"),
        (["table", "pr", "--model", "broken", "--p", "2:3"], "pr", "broken"),
        (["table", "pa", "--model", "truncated", "--p", "2", "--n", "4:5", "--a", "1/4"],
         "pa", "truncated"),
    ])
    def test_pair_without_closed_form_exits_3(self, runner, args, event, model):
        res = runner.invoke(cli, args)
        assert res.exit_code == 3
        assert res.stdout == ""
        assert f"simulate --event {event} --model {model}" in res.stderr


# each prints an integer past CPython's int->str digit limit (4300 by default)
OVERSIZED = [
    ["constants", "fib", "--p", "2", "--i", "21000:21000"],
    ["constants", "m", "--p", "2", "--n", "30000"],
    ["constants", "s", "--p", "2", "--n", "30000"],
    ["constants", "emax", "--p", "2", "--n", "22000", "--i", "1"],
    ["compute", "pr", "--p", "1800"],
    ["compute", "pa", "--p", "2", "--n", "16000"],
    ["table", "pn", "--p", "2", "--n", "249:250", "--output", "csv"],
]


@pytest.mark.parametrize("args", OVERSIZED, ids=" ".join)
def test_oversized_output_is_a_usage_error(runner, args):
    # an exception the CLI lets escape fails here instead of exiting 1
    res = runner.invoke(cli, args, catch_exceptions=False)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    assert "output too large to print" in res.stderr
    assert "integer string conversion" in res.stderr


@pytest.mark.parametrize(("a", "limit"), [("1e-9999", 4300), ("1e-1500", 1000)])
def test_tiny_truncation_point_is_a_usage_error(runner, a, limit):
    # 1e-9999 is past the literal limit; 1e-1500 parses, but its echo has a
    # denominator past a lowered int->str digit limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        res = runner.invoke(cli, ["compute", "pn", "--model", "truncated", "--p", "2",
                                  "--n", "3", "--a", a], catch_exceptions=False)
    finally:
        sys.set_int_max_str_digits(saved)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Traceback" not in res.stderr


class TestSimulate:
    def test_embeds_exact_and_z(self, runner):
        res = invoke(
            runner, "simulate", "--event", "pn", "--model", "pickup",
            "--p", "2", "--n", "4", "--trials", "20000", "--seed", "42",
        )
        payload = json.loads(res.output)
        assert payload["result"]["exact"] == {"num": 1, "den": 6}
        mc = payload["mc"]
        assert mc["trials"] == 20000
        assert mc["seed"] == 42
        assert mc["p_hat"] == mc["successes"] / mc["trials"]
        assert abs(mc["z_vs_exact"]) < 6

    def test_no_closed_form_gives_null_result(self, runner):
        res = invoke(
            runner, "simulate", "--event", "pa", "--model", "pickup",
            "--p", "4", "--n", "6", "--trials", "1000", "--seed", "1",
        )
        payload = json.loads(res.output)
        assert payload["result"] is None
        assert payload["mc"]["z_vs_exact"] is None

    def test_deterministic_for_fixed_seed(self, runner):
        # three chunks, so that more than one worker can take part
        args = [
            "simulate", "--event", "pr", "--model", "broken",
            "--p", "2", "--n", "5", "--trials", "140000", "--seed", "9",
        ]
        counts = {
            json.loads(invoke(runner, *args, "--workers", w).output)["mc"]["successes"]
            for w in ("1", "4", "100000")
        }
        assert len(counts) == 1

    def test_workers_env_override(self, runner):
        res = invoke(
            runner, "simulate", "--event", "pn", "--p", "2", "--n", "3",
            "--trials", "1000", "--seed", "3",
            env={"STICKPROB_WORKERS": "3"},
        )
        assert json.loads(res.output)["inputs"]["workers"] == 3

    def test_row_too_wide_exits_2(self, runner):
        # a pair without a closed form, so nothing evaluates PN at this n
        res = runner.invoke(cli, ["simulate", "--event", "pa", "--model", "broken",
                                  "--p", "2", "--n", "600000", "--trials", "1"],
                            catch_exceptions=False)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "sub-block budget" in res.stderr
        assert "Traceback" not in res.output

    def test_rate_only_for_exponential(self, runner):
        res = runner.invoke(
            cli, ["simulate", "--event", "pn", "--p", "2", "--n", "3",
                  "--trials", "10", "--seed", "1", "--rate", "2.0"],
        )
        assert res.exit_code == 2


class TestTable:
    def test_csv_grid(self, runner):
        res = invoke(
            runner, "table", "pn", "--model", "pickup",
            "--p", "2:4", "--n", "3:10", "--output", "csv",
        )
        rows = list(csv.reader(io.StringIO(res.output)))
        assert rows[0] == ["p", "n", "exact", "decimal"]
        assert len(rows) == 1 + 3 * 8
        lookup = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert lookup[("2", "4")] == "1/6"
        assert lookup[("3", "5")] == "1/40"
        assert lookup[("4", "4")] == "1/1"  # vacuous cell

    def test_json_cells(self, runner):
        res = invoke(runner, "table", "pn", "--model", "broken", "--p", "2", "--n", "3:4")
        payload = json.loads(res.output)
        assert payload["cells"] == [
            {"p": 2, "n": 3, "exact": {"num": 3, "den": 4},
             "decimal": payload["cells"][0]["decimal"]},
            {"p": 2, "n": 4, "exact": {"num": 3, "den": 7},
             "decimal": payload["cells"][1]["decimal"]},
        ]

    def test_pr_table_over_p(self, runner):
        res = invoke(runner, "table", "pr", "--p", "2:4", "--output", "csv")
        rows = list(csv.reader(io.StringIO(res.output)))
        assert [r[2] for r in rows[1:]] == ["1/2", "5/6", "23/24"]

    def test_bad_range_exits_2(self, runner):
        res = runner.invoke(cli, ["table", "pn", "--p", "4:2", "--n", "3:5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("text", ["1:2:3", "abc"])
    def test_malformed_range_exits_2(self, runner, text):
        res = runner.invoke(cli, ["table", "pn", "--p", text, "--n", "3:5"])
        assert res.exit_code == 2
        assert f"--p expects an integer or lo:hi range, got {text!r}" in res.output

    def test_pa_above_quadrilateral_exits_3(self, runner):
        res = runner.invoke(cli, ["table", "pa", "--p", "2:5", "--n", "4:6"])
        assert res.exit_code == 3


class TestConstants:
    def test_fib(self, runner):
        res = invoke(runner, "constants", "fib", "--p", "3", "--i", "1:6")
        assert json.loads(res.output)["result"]["values"] == [1, 1, 2, 4, 7, 13]

    def test_m(self, runner):
        res = invoke(runner, "constants", "m", "--p", "3", "--n", "5")
        assert json.loads(res.output)["result"]["values"] == [5, 4, 2, 1, 1]

    def test_s(self, runner):
        res = invoke(runner, "constants", "s", "--p", "2", "--n", "4")
        payload = json.loads(res.output)
        assert payload["result"]["values"] == [7, 4, 2]
        assert payload["result"]["terminal"] == 1

    def test_emax(self, runner):
        res = invoke(runner, "constants", "emax", "--p", "2", "--n", "5", "--i", "3")
        result = json.loads(res.output)["result"]
        assert result["denominator"] == 2
        assert result["numerator_form"]["coeffs"] == [0, 1]

    def test_form_text(self):
        assert _form_text((1, 0, 2, 1)) == "l4 + 2*l3 + l1"
        assert _form_text((0, 0, 0)) == "0"
        assert _form_text(()) == "0"

    def test_emax_rejects_last_stick(self, runner):
        res = runner.invoke(cli, ["constants", "emax", "--p", "2", "--n", "5", "--i", "5"])
        assert res.exit_code == 2

    def test_emax_rejects_model_without_constraint_system(self, runner):
        res = runner.invoke(cli, ["constants", "emax", "--p", "2", "--n", "5", "--i", "3",
                                  "--model", "truncated"])
        assert res.exit_code == 2

    @pytest.mark.parametrize(("p", "i"), [(2, 1), (3, 5)])
    def test_emax_long_chain(self, p, i):
        """A chain of 1500 e-vectors, in a fresh process with cold caches."""
        n = 1500
        argv = ["constants", "emax", "--p", str(p), "--n", str(n), "--i", str(i)]
        proc = subprocess.run(
            [sys.executable, "-m", "stickprob.cli", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["result"]["denominator"] == m_constants(p, n)[i - 1]


class TestVerify:
    def test_exact_suite_passes(self, runner):
        res = invoke(runner, "verify", "--suite", "exact")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["passed"] is True
        names = [check["name"] for check in payload["checks"]]
        # a check that raises reports under its function's name, so each
        # check's own result must carry that name too
        assert names == [check.__name__.removeprefix("check_") for check in EXACT_CHECKS]
        assert "triple_derivation_of_m" in names
        assert "symbolic_integration_matches_closed_form" in names
        assert all(check["passed"] for check in payload["checks"])

    def test_crashing_check_is_a_failed_check(self, runner, monkeypatch):
        """A check that raises reports under its own name and verify exits 1
        with its JSON, instead of aborting with a traceback."""
        zero_first = lambda p, n: (0,) + m_constants(p, n)[1:]
        monkeypatch.setattr(closedform, "m_constants", zero_first)
        monkeypatch.setattr(constraints, "m_constants", zero_first)
        res = invoke(runner, "verify", "--suite", "exact")
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["passed"] is False
        checks = {check["name"]: check for check in payload["checks"]}
        assert len(checks) == len(EXACT_CHECKS)
        crashed = checks["quadrilateral_form_agrees"]
        assert crashed["detail"].startswith("raised ZeroDivisionError: ")
        # the telescoping proof divides by nothing, so it fails without raising
        telescoping = checks["interval_telescoping_identity"]
        assert telescoping["passed"] is False
        assert " i=2" in telescoping["detail"]
        assert checks["t_matches_prefix_sums"]["passed"] is True

    def test_bad_run_argument_is_a_usage_error(self, runner):
        res = runner.invoke(cli, ["verify", "--suite", "mc", "--trials", "0"])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "trials must be >= 1" in res.output

    def test_exact_suite_under_optimize(self):
        """No exact check leans on an assert: python -O prints the same bytes."""
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "stickprob.cli", "verify", "--suite", "exact"],
                capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=300,
            )
            for flags in ([], ["-O"])
        ]
        assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
        assert runs[0].stdout == runs[1].stdout

    def test_mc_suite_small(self, runner):
        res = invoke(
            runner, "verify", "--suite", "mc", "--trials", "50000", "--workers", "2",
        )
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert any(c["name"].startswith("mc_concordance") for c in payload["checks"])


# every option of each command's echo, so that reversing them reorders argv
ARGV_ORDER = [
    ["compute", "pn", "--model", "truncated", "--p", "2", "--n", "5", "--a", "2/8",
     "--decimal-digits", "20"],
    ["table", "pn", "--model", "broken", "--p", "2:3", "--n", "3:5", "--decimal-digits", "6"],
    ["table", "pn", "--p", "2:3", "--n", "3:4", "--output", "csv", "--decimal-digits", "6"],
    ["simulate", "--event", "pn", "--model", "exponential", "--p", "2", "--n", "4",
     "--trials", "1000", "--seed", "7", "--workers", "1", "--rate", "2", "--decimal-digits", "8"],
    ["constants", "m", "--p", "3", "--n", "6"],
    ["constants", "emax", "--p", "2", "--n", "5", "--i", "3", "--model", "broken"],
    ["verify", "--suite", "exact", "--trials", "10", "--seed", "5", "--workers", "2"],
]


@pytest.mark.parametrize("argv", ARGV_ORDER, ids=" ".join)
def test_option_order_leaves_stdout_unchanged(runner, argv):
    """`inputs` follows the declared options, not argv, so reordering the
    options on the command line changes no byte of stdout."""
    first = next(i for i, word in enumerate(argv) if word.startswith("--"))
    pairs = [argv[i:i + 2] for i in range(first, len(argv), 2)]
    reordered = argv[:first] + [word for pair in reversed(pairs) for word in pair]
    res, again = (invoke(runner, *args) for args in (argv, reordered))
    assert res.exit_code == again.exit_code == 0
    assert again.stdout == res.stdout
