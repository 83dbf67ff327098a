"""The stickprob benchmark.

    python3 perfbench/run.py --workload exact-bigint --seed 0 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``exact-bigint`` -- library PN for pick-up, broken and exponential sticks
  at p in {2, 3} and n near 250, 600 and 1200, each followed by
  ``.decimal(12)``;
* ``mc-grid`` -- ``estimate`` for every event x model cell at p = 2,
  n in {5, 20}, with equal trials per cell;
* ``cli-session`` -- a seeded session of in-process CLI requests.

Each pass over a workload's fixed operation list runs in a fresh
interpreter, one at a time, with one Monte Carlo worker.  Passes repeat
while the next one is expected to end within ``--seconds`` (at least
three).  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` traced and untraced passes alternate, a per-layer probe
runs, and the per-layer metrics are printed.  Every output is checked
against ``goldens.json`` outside the timed region; an operation that
raises or exits nonzero is a wrong output, except the known-defect
requests of ``workloads.DEFECT_REQUESTS``.  The last line of stdout is one
JSON object; the exit code is 1 if any output was wrong and 2 if the
benchmark could not run.  A full record of each run is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from layers import LAYERS
from probe import PROBE_PN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

SETUP_PER_PASS = 3
MIN_PASSES = 3
RUN_LIMIT_S = 160.0  # stop starting children after this; the run must end by 180 s
CHILD_TIMEOUT_S = 150.0
RNG_SCHEME = "Philox4x64 (numpy.random.Philox), uniforms from the top 53 bits of each word"
EXTRA_UNITS = {"trials_per_s": "1/s", "fail_ratio": "ratio", "latency_samples": "count",
               **{f"self_s.{layer}": "s" for layer in LAYERS}}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("STICKPROB_WORKERS", "PYTHONOPTIMIZE", "PYTHONPATH"):
        env.pop(var, None)
    return env


def spawn(job: dict, optimize: bool = False) -> dict:
    cmd = [sys.executable] + (["-O"] if optimize else []) + [str(HERE / "child.py")]
    try:
        proc = subprocess.run(cmd, input=json.dumps(job), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['job']} child timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{job['job']} child exited {proc.returncode}: {proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_time() -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    stickprob.cli and said so."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "setup"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup child failed: {err[-3000:]}")
    return elapsed


def _spin() -> float:
    t0 = time.perf_counter()
    total = 0
    for k in range(200_000):
        total += k
    return time.perf_counter() - t0


def pin_to_fastest_cpu(cpus: list[int]) -> int:
    """Pin this process, and so the next child, to the CPU among ``cpus``
    that runs a fixed Python loop fastest just now.  On a shared host one
    CPU can run far slower than the other for seconds to minutes, which
    otherwise makes a pass's time depend on where the scheduler put it."""
    if len(cpus) == 1:
        return cpus[0]
    samples: dict[int, list[float]] = {cpu: [] for cpu in cpus}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            samples[cpu].append(_spin())
    best = min(cpus, key=lambda cpu: statistics.median(samples[cpu]))
    os.sched_setaffinity(0, {best})
    return best


def typical_op_s(results: list[dict]) -> list[float]:
    """Each operation's median time over the run's passes.  On a shared host
    the CPU's speed swings by a third or more, in bursts of well under a
    second as well as in stretches of minutes; a per-operation median keeps
    one odd pass, fast or slow, from setting an operation's time."""
    return [statistics.median(ops) for ops in zip(*(res["op_s"] for res in results))]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def mc_cell_record(cell: list, out: dict) -> dict:
    """A cell's inputs, with the chunk count and Philox blocks per trial
    that montecarlo used for it (see ``passes.chunk_log``)."""
    event, model, p, n, trials, seed = cell
    return {"cell": wl.mc_cell_name(event, model, n), "p": p, "trials": trials, "seed": seed,
            "blocks_per_trial": out["blocks_per_trial"], "chunks": out["chunks"]}


class Run:
    def __init__(self, args, goldens: dict, all_cpus: list[int]) -> None:
        self.args = args
        self.all_cpus = all_cpus
        self.goldens = goldens
        self.ops = wl.make_ops(args.workload, args.seed, args.size)
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.provenance: dict = {}
        self.outputs: list[dict] = []
        self.setups: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def one_pass(self, trace: bool) -> dict:
        if self.elapsed() > RUN_LIMIT_S:
            raise BenchError(f"run limit of {RUN_LIMIT_S} s reached")
        cpu = pin_to_fastest_cpu(self.all_cpus)
        res = spawn({"job": "pass", "workload": self.args.workload, "ops": self.ops,
                     "trace": trace})
        res["cpu"] = cpu
        self.provenance = res["provenance"]
        self.outputs = outputs = res["outputs"]
        self.wrong += wl.check_outputs(self.args.workload, self.args.seed, self.args.size,
                                       self.ops, outputs, self.goldens)
        bad = [i for i, out in enumerate(outputs) if "error" in out or out.get("exit", 0) != 0]
        for i in bad:
            err = outputs[i].get("error", f"exit {outputs[i].get('exit')}")
            if err not in self.errors:
                self.errors.append(err)
        res["failed_ops"] = bad
        self.attempted += len(self.ops)
        self.failed += len(bad)
        return res

    def passes(self, seconds: float, traced: bool) -> tuple[list[dict], list[dict]]:
        """Untraced passes, alternating with traced ones when ``traced``.
        Before each untraced pass ``SETUP_PER_PASS`` set-up probes run, so
        that set-up is sampled across the whole run.  Another pass starts
        only while the last one, repeated, would end within ``seconds``."""
        plain, with_trace = [], []
        t0 = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            if traced and len(with_trace) < len(plain):
                with_trace.append(self.one_pass(True))
            else:
                if not traced:
                    pin_to_fastest_cpu(self.all_cpus)
                    self.setups += [setup_time() for _ in range(SETUP_PER_PASS)]
                plain.append(self.one_pass(False))
            now = time.perf_counter()
            enough = len(plain) + len(with_trace) >= MIN_PASSES
            if enough and now + (now - t_pass) - t0 > seconds:
                return plain, with_trace

    def end_to_end(self) -> tuple[dict, dict]:
        plain, _ = self.passes(self.args.seconds, traced=False)
        typical = typical_op_s(plain)
        failed = set().union(*(res["failed_ops"] for res in plain))
        # Latency is over the operations that completed.  The only ones
        # allowed to fail are the known-defect requests; any other failure
        # has already made the run wrong.  If all failed, the run is wrong
        # and the times until failure stand in.
        latency = [s for i, s in enumerate(typical) if i not in failed] or typical
        metrics = {
            "setup_s": statistics.median(self.setups),
            "wall_s": sum(typical),
            "req_p50_ms": percentile(latency, 0.5) * 1e3,
            "req_p90_ms": percentile(latency, 0.9) * 1e3,
            "peak_rss_mb": statistics.median(res["rss_mb"] for res in plain),
            "fail_ratio": self.failed / self.attempted,
            "latency_samples": len(plain) * len(latency),
        }
        if self.args.workload == "mc-grid":
            done = [(cell[4], s) for i, (cell, s) in enumerate(zip(self.ops, typical))
                    if i not in failed]
            metrics["trials_per_s"] = (sum(t for t, _ in done) / sum(s for _, s in done)
                                       if done else 0.0)
        detail = {"setup_runs_s": self.setups, "passes": self._pass_records(plain)}
        return metrics, detail

    def per_layer(self) -> tuple[dict, dict]:
        plain, traced = self.passes(self.args.seconds, traced=True)
        job = {"job": "probe", "size": self.args.size, "cpus": self.all_cpus}
        pin_to_fastest_cpu(self.all_cpus)
        probe = spawn({**job, "trace": False})
        pin_to_fastest_cpu(self.all_cpus)
        traced_probe = spawn({**job, "trace": True})
        pin_to_fastest_cpu(self.all_cpus)
        self.wrong += probe["wrong"] + traced_probe["wrong"]
        n = PROBE_PN[self.args.size][1]
        normal = spawn({"job": "crossroute", "n": n})["seconds"]
        optimized = spawn({"job": "crossroute", "n": n}, optimize=True)["seconds"]
        traced_wall = sum(typical_op_s(traced))
        metrics = dict(probe["metrics"])
        metrics["closedform.crossroute_s"] = normal - optimized
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - sum(typical_op_s(plain))
        # The workload's own self time is 0 in a layer it leaves idle, so
        # only the probe's, which every layer has, is a declared metric.
        for layer in LAYERS:
            metrics[f"self_s.{layer}"] = statistics.median(res["self_s"][layer] for res in traced)
            metrics[f"probe_self_s.{layer}"] = traced_probe["self_s"][layer]
        detail = {
            "passes": self._pass_records(plain),
            "traced_passes": self._pass_records(traced),
            "span_calls_probe": traced_probe["calls"],
            "probe_metrics_traced": traced_probe["metrics"],
            "crossroute": {"normal_s": normal, "optimized_s": optimized, "p": [2, 3], "n": n},
        }
        return metrics, detail

    def _pass_records(self, results: list[dict]) -> list[dict]:
        return [{"wall_s": r["wall_s"], "rss_mb": r["rss_mb"], "cpu": r["cpu"], "op_s": r["op_s"],
                 "failed_ops": r["failed_ops"], "self_s": r["self_s"], "span_calls": r["calls"]}
                for r in results]

    def counts(self) -> dict:
        out = {"operations_per_pass": len(self.ops), "workers": 1}
        if self.args.workload == "cli-session":
            out["requests_per_session"] = len(self.ops)
            out["requests_by_class"] = {cls: c[wl.SIZES.index(self.args.size)]
                                        for cls, c in wl.CLI_MIX.items()}
        if self.args.workload == "mc-grid":
            out["mc_cells"] = [mc_cell_record(cell, res) for cell, res in
                               zip(self.ops, self.outputs)]
        return out


def _declared(trace: int) -> dict[str, str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full",
                        help="tiny shrinks every input, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        if not (ROOT / "src" / "stickprob" / "__init__.py").is_file():
            raise BenchError(f"no stickprob sources under {ROOT / 'src'}")
        if not wl.GOLDENS_PATH.is_file():
            raise BenchError(f"{wl.GOLDENS_PATH} is missing")
        declared = _declared(args.trace)
        cpus = sorted(os.sched_getaffinity(0))
        run = Run(args, wl.load_goldens(), cpus)
        metrics, detail = run.per_layer() if args.trace else run.end_to_end()
        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise BenchError(f"declared metrics not measured: {missing}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    correct = not run.wrong
    units = {**EXTRA_UNITS, **_declared(0), **_declared(1)}
    for name in sorted(metrics):
        print(f"{name:58s} {metrics[name]:>16.6g} {units.get(name, '')}")
    print(f"operations attempted {run.attempted}, failed {run.failed}, "
          f"wrong {len(run.wrong)}")
    for line in run.wrong[:20]:
        print(f"WRONG: {line}")
    for line in run.errors[:5]:
        print(f"failed: {line}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "wrong": run.wrong, "errors": run.errors,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
        "counts": run.counts(),
        "provenance": {**run.provenance, "nproc": os.cpu_count(), "cpu": _cpu_model(),
                       "machine": platform.machine(), "rng": RNG_SCHEME, "allowed_cpus": cpus},
        "detail": detail,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
