"""Per-layer probe: fixed calls into each layer's public functions, timed
from outside.  ``run.py`` runs it twice: untraced for the timings, and
with the layer spans installed for each layer's self time, since the spans
slow the many small calls of the verify checks by half.

Runs in a fresh interpreter (see ``child.py``), so the step-Fibonacci
tables and the ``lru_cache``s start empty.  Every value timed here is also
checked, outside its timed region, against an independent route or a
golden; the list of failed checks goes back to ``run.py``.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

import workloads as wl

# (p, n) for the symbolic integrator; 8 is its default size guard
ORACLE_GRID = ((2, 7), (3, 7), (3, 8))
PROBE_PN = {"full": (3, 500), "tiny": (3, 40)}
# far below 1/m_1 at the probe size, so the truncated form is not trivially 0
PROBE_TRUNCATION = {"full": Fraction(1, 10**145), "tiny": Fraction(1, 10**15)}
SEQ_N = {"full": 2000, "tiny": 200}
PREFIX_N = {"full": 1000, "tiny": 100}
PARALLEL_TRIALS = {"full": 1 << 19, "tiny": 1 << 14}
CLI_REPEATS = {"full": 20, "tiny": 2}
CLI_PROBES = {
    "compute": ["compute", "pn", "--model", "pickup", "--p", "3", "--n", "30"],
    "table": ["table", "pn", "--model", "pickup", "--p", "2:3", "--n", "8:15"],
    "constants": ["constants", "m", "--p", "3", "--n", "30"],
    "simulate": list(wl.simulate_argv("pn", "pickup", 0)),
    "verify": ["verify", "--suite", "exact"],
}


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def step_fib(p: int, count: int) -> list[int]:
    """F_1..F_count by the bare recurrence, for checking."""
    vals = [0] * (p - 1) + [1]
    while len(vals) < count + p - 1:
        vals.append(sum(vals[-p:]))
    return vals[p - 1:]


def _sequences(size, span, metrics, bad):
    from stickprob import StepFibTable, fib_prefix_sum, t_value

    n, m = SEQ_N[size], PREFIX_N[size]
    with span("sequences"):
        metrics["sequences.fib_fill_s"], tops = _timed(
            lambda: [StepFibTable(p).fib(n) for p in (2, 3)])
        metrics["sequences.prefix_sum_s"], sums = _timed(
            lambda: [fib_prefix_sum(3, i) for i in range(1, m + 1)])
        metrics["sequences.t_value_s"], ts = _timed(
            lambda: [t_value(3, k) for k in range(1, m + 1)])
    if tops != [step_fib(p, n)[-1] for p in (2, 3)]:
        bad.append("sequences: table fill disagrees with the bare recurrence")
    ref = step_fib(3, m)
    expected = [sum(ref[:i]) for i in range(1, m + 1)]
    if sums != expected or ts != expected:
        bad.append("sequences: prefix sums or t-values disagree with summed recurrence")


def _constraints(size, span, metrics, bad):
    from stickprob import m_constants, s_constants

    n = SEQ_N[size]
    with span("constraints"):
        metrics["constraints.m_constants_s"], m = _timed(lambda: m_constants(3, n))
        metrics["constraints.s_constants_s"], s = _timed(lambda: s_constants(3, n))
    # p = 3: m_1 = T_n - T_{n-2}, m_i = T_{n-i+1}; s the same over prefix sums
    t = step_fib(3, n)
    st = [sum(t[:i]) for i in range(1, n + 1)]
    if m != (t[n - 1] - t[n - 3],) + tuple(reversed(t[: n - 1])):
        bad.append("constraints: m_constants disagree with the Tribonacci form")
    if s != (st[n - 1] - st[n - 3],) + tuple(reversed(st[1: n - 1])):
        bad.append("constraints: s_constants disagree with the prefix-sum form")


def _closedform(size, span, metrics, bad, goldens):
    from stickprob import pn_broken, pn_exponential, pn_pickup, pn_pickup_truncated

    p, n = PROBE_PN[size]
    a = PROBE_TRUNCATION[size]
    calls = {
        "pickup": lambda: pn_pickup(p, n),
        "broken": lambda: pn_broken(p, n),
        "exponential": lambda: pn_exponential(p, n),
        "truncated": lambda: pn_pickup_truncated(p, n, a),
    }
    probs = {}
    with span("closedform"):
        for model, call in calls.items():
            metrics[f"closedform.pn_s.{model}"], probs[model] = _timed(call)
        metrics["closedform.decimal_s"], decimals = _timed(
            lambda: {model: prob.decimal(12) for model, prob in probs.items()})
    metrics["closedform.den_bits"] = sum(prob.denominator.bit_length() for prob in probs.values())
    ref = goldens["probe"][size]["pn"]
    for model, prob in probs.items():
        key = "broken" if model == "exponential" else model
        got = wl.fraction_digest(prob.numerator, prob.denominator)
        if got != ref[key]["digest"] or decimals[model] != ref[key]["decimal"]:
            bad.append(f"closedform: pn {model} at p={p} n={n} differs from golden")


def _montecarlo(size, cpus, span, metrics, bad, goldens):
    from stickprob import EventSpec, estimate

    from passes import chunk_log
    from passes import dist as make_dist

    cells = wl.mc_cells(wl.DEFAULT_SEED, size)
    outputs = []
    metrics["montecarlo.trials"] = 0
    with chunk_log() as blocks:
        for ev, model, p, n, trials, seed in cells:
            event, dist = EventSpec(wl.MC_EVENT_KIND[ev], p), make_dist(model)
            with span("montecarlo"):
                dt, est = _timed(lambda: estimate(event, dist, n, trials, seed, workers=1))
            metrics[f"montecarlo.ns_per_trial.{wl.mc_cell_name(ev, model, n)}"] = dt * 1e9 / trials
            metrics["montecarlo.trials"] += trials
            outputs.append({"successes": est.successes, "trials": est.trials})
    metrics["montecarlo.chunks"] = len(blocks)
    bad.extend(f"montecarlo: {w}" for w in
               wl.check_mc(wl.DEFAULT_SEED, size, cells, outputs, goldens))
    event, dist = EventSpec("no_polygon", 2), make_dist("pickup")
    trials = PARALLEL_TRIALS[size]
    runs = {}
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)  # the two workers need both CPUs
    try:
        for workers in (1, 2):
            with span("montecarlo"):
                runs[workers] = _timed(
                    lambda: estimate(event, dist, 20, trials, 1, workers=workers))
    finally:
        os.sched_setaffinity(0, pinned)
    metrics["montecarlo.parallel_eff"] = runs[1][0] / runs[2][0]
    if runs[1][1].successes != runs[2][1].successes:
        bad.append("montecarlo: successes depend on the worker count")


def _oracle(span, metrics, bad):
    from stickprob import oracle, pn_pickup

    for p, n in ORACLE_GRID:
        with span("oracle"):
            dt, prob = _timed(lambda: oracle.symbolic_pn_pickup(p, n))
        metrics[f"oracle.symbolic_s.p{p}n{n}"] = dt
        metrics[f"oracle.terms_max.p{p}n{n}"] = max(
            len(poly.terms) for _, poly in oracle.integration_chain(p, n))
        if prob.fraction != pn_pickup(p, n).fraction:
            bad.append(f"oracle: symbolic PN differs from the closed form at p={p} n={n}")


def _verify(span, metrics, bad):
    from stickprob import verify

    for check in verify.EXACT_CHECKS:
        with span("verify"):
            dt, result = _timed(check)
        metrics[f"verify.check_s.{result.name}"] = dt
        if not result.passed:
            bad.append(f"verify: {result.name} failed: {result.detail}")


def _cli(size, span, metrics, bad, goldens):
    from stickprob import pn_pickup
    from stickprob.cli import cli

    from passes import cli_request

    repeats = CLI_REPEATS[size]
    stdout_bytes = 0
    for sub, argv in CLI_PROBES.items():
        times = []
        for _ in range(1 if sub == "verify" else repeats):
            code, text, seconds, error = cli_request(cli.main, argv, span)
            times.append(seconds)
            if code != 0 or wl.digest(text) != goldens["cli"][wl.cli_golden_key(argv)]:
                bad.append(f"cli: {' '.join(argv)} exited {code} or differs from golden")
        metrics[f"cli.request_s.{sub}"] = statistics.median(times)
        stdout_bytes += len(text.encode())
    metrics["cli.stdout_bytes"] = stdout_bytes
    # the library call behind the compute probe, for the CLI's own share
    lib = []
    for _ in range(repeats):
        with span("closedform"):
            lib.append(_timed(lambda: pn_pickup(3, 30).decimal(12))[0])
    metrics["cli.overhead_ms"] = (metrics["cli.request_s.compute"] - statistics.median(lib)) * 1e3


def run_probe(job: dict) -> dict:
    from layers import Tracer
    from passes import NoTracer

    size = job["size"]
    goldens = wl.load_goldens()
    tracer = Tracer() if job["trace"] else NoTracer()
    if job["trace"]:
        tracer.install()
    metrics: dict[str, float] = {}
    bad: list[str] = []
    _sequences(size, tracer.span, metrics, bad)
    _constraints(size, tracer.span, metrics, bad)
    _closedform(size, tracer.span, metrics, bad, goldens)
    _montecarlo(size, job["cpus"], tracer.span, metrics, bad, goldens)
    _oracle(tracer.span, metrics, bad)
    _verify(tracer.span, metrics, bad)
    _cli(size, tracer.span, metrics, bad, goldens)
    return {"metrics": metrics, "wrong": bad, "self_s": tracer.self_s, "calls": tracer.calls}
