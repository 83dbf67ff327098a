"""Tests of the benchmark itself: the schema of BENCHMARK.json and of a
result, a tiny-size run of every workload, and runs that must fail.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_schema():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    spec = json.loads(raw)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in spec["command"])
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.match(w["name"]) and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _run(cwd: Path, workload: str, trace: int, seed: int = 5):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_matches_result_schema(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
    record = json.loads((BENCH / "out" / f"{workload}-seed5-trace{trace}-tiny.json").read_text())
    for key in ("stickprob", "python", "numpy", "nproc", "cpu", "rng"):
        assert key in record["provenance"]
    assert record["counts"]["workers"] == 1
    if workload == "cli-session":
        # the int->str defect stays visible: both requests fail in every session
        passes = len(record["detail"]["passes"]) + len(record["detail"].get("traced_passes", []))
        assert result["failed"] == len(wl.DEFECT_REQUESTS) * passes
    else:
        assert result["failed"] == 0
    if workload == "mc-grid":
        # chunks and blocks per trial as montecarlo ran them, one entry per cell
        cells = record["counts"]["mc_cells"]
        assert len(cells) == len(wl.mc_cells(5, "tiny"))
        assert all(c["chunks"] >= 1 and len(c["blocks_per_trial"]) == 1 for c in cells)
    if trace:
        for layer in ("sequences", "constraints", "closedform", "montecarlo", "oracle", "verify",
                      "cli"):
            assert result["metrics"][f"probe_self_s.{layer}"]["value"] > 0
            assert f"self_s.{layer}" in record["metrics"]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out", "*.egg-info")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")


MUTATIONS = {
    # exponential PN off by one in the denominator
    "exact-value": ("exact-bigint", "closedform.py",
                    "return ExactProb.from_fraction(Fraction(factorial(n), den))",
                    "return ExactProb.from_fraction(Fraction(factorial(n), den + 1))"),
    # pn_pickup's cross-route assert trips: every pick-up evaluation raises
    "exact-raises": ("exact-bigint", "closedform.py",
                     "assert result == _pn_pickup_step_fib(p, n)",
                     "assert result != _pn_pickup_step_fib(p, n)"),
    # one extra success per chunk
    "mc-value": ("mc-grid", "montecarlo.py", "    return int(ok.sum())\n",
                 "    return int(ok.sum()) + 1\n"),
    # different JSON indentation on stdout
    "cli-stdout": ("cli-session", "cli.py", "json.dumps(payload, indent=2)",
                   "json.dumps(payload, indent=1)"),
    # every exact identity check fails, so `verify --suite exact` exits 1
    "cli-verify-exits-1": ("cli-session", "verify.py", "    return CheckResult(name, True)\n",
                           "    return CheckResult(name, False)\n"),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_corrupted_output_fails_the_run(tmp_path, mutation):
    _copy_tree(tmp_path)
    workload, name, old, new = MUTATIONS[mutation]
    source = tmp_path / "src" / "stickprob" / name
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    proc = _run(tmp_path, workload, 0, seed=wl.DEFAULT_SEED)
    assert proc.returncode == 1, proc.stderr
    assert _last_json(proc.stdout)["correct"] is False
    assert "WRONG:" in proc.stdout


def test_directory_without_the_program_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "exact-bigint", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("size", wl.SIZES)
def test_inputs_are_seeded_and_have_goldens(size):
    goldens = wl.load_goldens()
    for workload in wl.WORKLOADS:
        assert wl.make_ops(workload, 7, size) == wl.make_ops(workload, 7, size)
        assert wl.make_ops(workload, 7, size) != wl.make_ops(workload, 8, size)
    for seed in range(40):
        for _, p, n in wl.exact_ops(seed, size):
            assert wl.exact_golden_key(p, n) in goldens["exact"]
        for argv in wl.cli_requests(seed, size):
            assert wl.cli_golden_key(argv) in goldens["cli"]
    cells = wl.mc_cells(0, size)
    assert {wl.mc_cell_name(c[0], c[1], c[3]) for c in cells} == set(goldens["mc"][size])
    assert len({c[4] for c in cells}) == 1


def test_checkers_flag_wrong_values_and_unexpected_failures():
    goldens = wl.load_goldens()
    ops = wl.exact_ops(0, "tiny")
    good = []
    for model, p, n in ops:
        ref = goldens["exact"][wl.exact_golden_key(p, n)]["pickup" if model == "pickup" else "broken"]
        good.append({"digest": ref["digest"], "decimal": ref["decimal"]})
    assert wl.check_exact(ops, good, goldens) == []
    bad = [dict(o) for o in good]
    bad[3]["digest"] = "0" * 16
    assert len(wl.check_exact(ops, bad, goldens)) == 1
    bad[3] = {"error": "AssertionError: PN pickup routes disagree"}
    assert len(wl.check_exact(ops, bad, goldens)) == 1

    cells = wl.mc_cells(wl.DEFAULT_SEED, "tiny")
    table = goldens["mc"]["tiny"]
    outs = [{"successes": table[wl.mc_cell_name(c[0], c[1], c[3])]["successes"], "trials": c[4]}
            for c in cells]
    assert wl.check_mc(wl.DEFAULT_SEED, "tiny", cells, outs, goldens) == []
    outs[0]["successes"] += 1
    assert len(wl.check_mc(wl.DEFAULT_SEED, "tiny", cells, outs, goldens)) == 1
    # at another seed, one count is within tolerance and a halved one is not
    assert wl.check_mc(1, "tiny", cells, outs, goldens) == []
    big = max(range(len(outs)), key=lambda i: outs[i]["successes"])
    outs[big]["successes"] //= 2
    assert len(wl.check_mc(1, "tiny", cells, outs, goldens)) == 1
    outs[big] = {"error": "RuntimeError: boom"}
    assert len(wl.check_mc(1, "tiny", cells, outs, goldens)) == 1

    reqs = wl.cli_requests(0, "tiny")
    outs = [{"exit": 0, "digest": goldens["cli"][wl.cli_golden_key(r)]} for r in reqs]
    assert wl.check_cli(reqs, outs, goldens) == []
    defect = [i for i, r in enumerate(reqs) if wl.is_defect_request(r)]
    other = [i for i, r in enumerate(reqs) if not wl.is_defect_request(r)]
    assert len(defect) == len(wl.DEFECT_REQUESTS)
    # a known-defect request may fail; once it passes, it must match its golden
    for i in defect:
        outs[i]["exit"] = 1
    assert wl.check_cli(reqs, outs, goldens) == []
    outs[defect[0]] = {"exit": 0, "digest": "f" * 16}
    assert len(wl.check_cli(reqs, outs, goldens)) == 1
    # any other request that exits nonzero is wrong, as is one that differs
    outs[other[0]]["exit"] = 1
    outs[other[1]]["digest"] = "f" * 16
    assert len(wl.check_cli(reqs, outs, goldens)) == 3
