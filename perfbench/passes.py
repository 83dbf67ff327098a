"""The three workloads' operation lists, each run once in this process.

Each runner returns (wall seconds, per-operation seconds, outputs).  The
outputs are reduced to digests and counts after the timed loop.
"""

import contextlib
import io
import sys
import time


class NoTracer:
    """Stands in for ``layers.Tracer`` when nothing is traced."""

    self_s: dict = {}
    calls: dict = {}

    def span(self, layer):
        return contextlib.nullcontext()


def exact_pass(ops, tracer):
    from stickprob import pn_broken, pn_exponential, pn_pickup

    from workloads import fraction_digest

    evaluators = {"pickup": pn_pickup, "broken": pn_broken, "exponential": pn_exponential}
    results, op_s = [], []
    start = time.perf_counter()
    for model, p, n in ops:
        t0 = time.perf_counter()
        try:
            prob = evaluators[model](p, n)
            results.append((prob, prob.decimal(12)))
        except Exception as exc:  # a failed operation, counted by run.py
            results.append(f"{type(exc).__name__}: {exc}"[:200])
        op_s.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    outputs = []
    for res in results:
        if isinstance(res, str):
            outputs.append({"error": res})
        else:
            prob, dec = res
            outputs.append({"digest": fraction_digest(prob.numerator, prob.denominator),
                            "decimal": dec, "den_bits": prob.denominator.bit_length()})
    return wall, op_s, outputs


def dist(model: str):
    from fractions import Fraction

    from stickprob import DistributionSpec

    from workloads import MC_TRUNCATION

    if model == "pickup":
        return DistributionSpec.uniform01()
    if model == "truncated":
        return DistributionSpec.uniform_truncated(float(Fraction(MC_TRUNCATION)))
    if model == "exponential":
        return DistributionSpec.exponential(1.0)
    return DistributionSpec.broken_stick()


@contextlib.contextmanager
def chunk_log():
    """Note every chunk ``montecarlo.estimate`` runs while inside, by
    wrapping the module's chunk runner; yields the list of the Philox
    blocks per trial passed to each chunk call.  The counts are the
    program's own, whatever its chunk size or word budget."""
    from stickprob import montecarlo

    inner = montecarlo._run_chunk
    blocks: list[int] = []

    def logged(event, dist, n, seed, blocks_per_trial, span):
        blocks.append(blocks_per_trial)
        return inner(event, dist, n, seed, blocks_per_trial, span)

    montecarlo._run_chunk = logged
    try:
        yield blocks
    finally:
        montecarlo._run_chunk = inner


def mc_pass(ops, tracer):
    from stickprob import EventSpec, estimate

    from workloads import MC_EVENT_KIND

    specs = [(EventSpec(MC_EVENT_KIND[ev], p), dist(model), n, trials, seed)
             for ev, model, p, n, trials, seed in ops]
    results, op_s, chunks = [], [], []
    start = time.perf_counter()
    with chunk_log() as blocks:
        for event, model_dist, n, trials, seed in specs:
            t0 = time.perf_counter()
            done = len(blocks)
            try:
                results.append(estimate(event, model_dist, n, trials, seed, workers=1))
            except Exception as exc:
                results.append(f"{type(exc).__name__}: {exc}"[:200])
            op_s.append(time.perf_counter() - t0)
            chunks.append(blocks[done:])
    wall = time.perf_counter() - start
    outputs = []
    for res, cell_blocks in zip(results, chunks):
        out = ({"error": res} if isinstance(res, str)
               else {"successes": res.successes, "trials": res.trials})
        out["chunks"] = len(cell_blocks)
        out["blocks_per_trial"] = sorted(set(cell_blocks))
        outputs.append(out)
    return wall, op_s, outputs


class _Stdout(io.StringIO):
    """sys.stdout replacement that notes when the last byte arrived."""

    last = None

    def write(self, text: str) -> int:
        n = super().write(text)
        self.last = time.perf_counter()
        return n


def cli_request(main, argv, span):
    """Run one CLI request in process, as ``stickprob <argv>`` would.
    Returns (exit code, stdout, seconds from argv to the last stdout byte,
    error text)."""
    out, err = _Stdout(), _Stdout()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = None
    t0 = time.perf_counter()
    try:
        with span("cli"):
            main(args=argv, prog_name="stickprob")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # the interpreter would print a traceback and exit 1
        code = 1
        error = f"{type(exc).__name__}: {exc}"[:200]
    finally:
        end = time.perf_counter()
        sys.stdout, sys.stderr = saved
    if code == 0 and out.last is not None:
        end = out.last
    return code, out.getvalue(), end - t0, error


def cli_pass(ops, tracer):
    from stickprob.cli import cli

    from workloads import digest

    results, op_s = [], []
    start = time.perf_counter()
    for argv in ops:
        code, text, seconds, error = cli_request(cli.main, argv, tracer.span)
        results.append((code, text, error))
        op_s.append(seconds)
    wall = time.perf_counter() - start
    outputs = []
    for code, text, error in results:
        entry = {"exit": code, "digest": digest(text), "bytes": len(text.encode())}
        if error:
            entry["error"] = error
        outputs.append(entry)
    return wall, op_s, outputs


PASSES = {"exact-bigint": exact_pass, "mc-grid": mc_pass, "cli-session": cli_pass}
