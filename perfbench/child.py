"""One measurement in a fresh interpreter; run by ``run.py``, not by hand.

    python3 perfbench/child.py setup        # import stickprob.cli, print "ready"
    python3 perfbench/child.py < job.json   # run a job, print one JSON line

Jobs: ``pass`` runs a workload's operation list once, ``probe`` times
calls into each layer, ``crossroute`` times the PN evaluators that carry a
cross-route ``assert`` (run once normally and once under ``python -O``).
Outputs are reduced to digests after the timed region; ``run.py`` judges
them against the goldens.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)


def _check_origin() -> None:
    import stickprob

    if not os.path.realpath(stickprob.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported stickprob from {stickprob.__file__}, not {SRC}")


def setup() -> None:
    import stickprob.cli  # noqa: F401  -- the import is what is measured

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    _check_origin()


def _provenance() -> dict:
    import platform
    from importlib import metadata

    import numpy
    import stickprob

    try:
        click_version = metadata.version("click")
    except metadata.PackageNotFoundError:
        click_version = None
    return {
        "stickprob": stickprob.__version__,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "optimize": sys.flags.optimize,
        "numpy": numpy.__version__,
        "click": click_version,
    }


def run_pass(job: dict) -> dict:
    import resource

    from layers import Tracer
    from passes import PASSES, NoTracer

    tracer = Tracer() if job["trace"] else NoTracer()
    if job["trace"]:
        tracer.install()
    wall, op_s, outputs = PASSES[job["workload"]](job["ops"], tracer)
    return {
        "wall_s": wall,
        "op_s": op_s,
        "outputs": outputs,
        "self_s": tracer.self_s,
        "calls": tracer.calls,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
    }


def run_crossroute(job: dict) -> dict:
    """Seconds spent in the PN evaluators that assert a second route; the
    difference between a normal and an optimized interpreter is the cost
    of those asserts."""
    from stickprob import fib, pn_broken, pn_pickup

    n = job["n"]
    for p in (2, 3):
        fib(p, n)  # warm tables, as the probe finds them
    t0 = time.perf_counter()
    for p in (2, 3):
        pn_pickup(p, n)
        pn_broken(p, n)
    return {"seconds": time.perf_counter() - t0, "optimize": sys.flags.optimize}


def main() -> None:
    if sys.argv[1:] == ["setup"]:
        setup()
        return
    import json

    job = json.load(sys.stdin)
    _check_origin()
    if job["job"] == "pass":
        result = run_pass(job)
    elif job["job"] == "probe":
        from probe import run_probe

        result = run_probe(job)
    else:
        result = run_crossroute(job)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
