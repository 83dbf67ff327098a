"""Regenerate ``goldens.json``: the expected output of every operation the
workloads and the probe can run.

    python3 perfbench/make_goldens.py

Each value is checked here by a route independent of the one the
benchmark times before it is written: pick-up PN against a product over a
bare Fibonacci/Tribonacci recurrence, broken-stick PN against the
exponential evaluator, Monte Carlo counts against their closed forms.
The CLI goldens are the output of the current CLI; this process lifts the
int->str digit limit so that requests which trip the limit in a normal
interpreter get the output a fixed CLI must print.  Takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.realpath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402
from probe import PROBE_PN, PROBE_TRUNCATION, step_fib  # noqa: E402


def _pickup_den(p: int, n: int) -> int:
    """Denominator of PN pick-up from the bare recurrence (p = 2 or 3)."""
    f = step_fib(p, n)
    den = 1
    for v in f[: n - 1]:
        den *= v
    return den * (f[n - 1] if p == 2 else f[n - 1] - f[n - 3])


def _entry(prob) -> dict:
    return {"digest": wl.fraction_digest(prob.numerator, prob.denominator),
            "decimal": prob.decimal(12)}


def _pn_pair(p: int, n: int) -> dict:
    from stickprob import pn_broken, pn_exponential, pn_pickup

    pickup, broken = pn_pickup(p, n), pn_broken(p, n)
    if (pickup.numerator, pickup.denominator) != (1, _pickup_den(p, n)):
        raise SystemExit(f"pn_pickup({p}, {n}) disagrees with the recurrence product")
    if broken.fraction != pn_exponential(p, n).fraction:
        raise SystemExit(f"pn_broken({p}, {n}) disagrees with pn_exponential")
    return {"pickup": _entry(pickup), "broken": _entry(broken)}


def exact_goldens() -> dict:
    out = {}
    for size in wl.SIZES:
        for tier in wl.EXACT_TIERS[size]:
            for n in range(tier, tier + wl.JITTER):
                for p in wl.EXACT_PS:
                    out[wl.exact_golden_key(p, n)] = _pn_pair(p, n)
                    print(f"exact p={p} n={n}", file=sys.stderr)
    return out


def probe_goldens() -> dict:
    from stickprob import pn_pickup_truncated

    out = {}
    for size in wl.SIZES:
        p, n = PROBE_PN[size]
        a = PROBE_TRUNCATION[size]
        pn = _pn_pair(p, n)
        truncated = pn_pickup_truncated(p, n, a)
        f = step_fib(p, n)
        expected = ((1 - (f[n - 1] - f[n - 3]) * a) / (1 - a)) ** n / _pickup_den(p, n)
        if truncated.fraction != expected or truncated.numerator == 0:
            raise SystemExit(f"pn_pickup_truncated({p}, {n}, {a}) disagrees with rescaling")
        pn["truncated"] = _entry(truncated)
        out[size] = {"pn": pn}
    return out


def _closed_form(event: str, model: str, p: int, n: int):
    from stickprob import (pa_pickup, pn_broken, pn_exponential, pn_pickup,
                           pn_pickup_truncated, pr_pickup)

    if event == "pn":
        return {"pickup": lambda: pn_pickup(p, n),
                "truncated": lambda: pn_pickup_truncated(p, n, Fraction(wl.MC_TRUNCATION)),
                "exponential": lambda: pn_exponential(p, n),
                "broken": lambda: pn_broken(p, n)}[model]()
    if model != "pickup":
        return None
    return pa_pickup(p, n) if event == "pa" else pr_pickup(p)


def mc_goldens() -> dict:
    from stickprob import EventSpec, estimate

    from passes import dist

    out = {}
    for size in wl.SIZES:
        table = {}
        for event, model, p, n, trials, seed in wl.mc_cells(wl.DEFAULT_SEED, size):
            est = estimate(EventSpec(wl.MC_EVENT_KIND[event], p), dist(model), n, trials, seed)
            exact = _closed_form(event, model, p, n)
            exact = None if exact is None else float(exact.fraction)
            if exact is not None:
                sigma = math.sqrt(exact * (1 - exact) / trials)
                if abs(est.successes / trials - exact) > wl.MC_SIGMAS * sigma + 1 / trials:
                    raise SystemExit(f"{event}.{model}.n{n}: estimate far from closed form")
            table[wl.mc_cell_name(event, model, n)] = {"exact": exact, "successes": est.successes}
        out[size] = table
    return out


def cli_goldens() -> dict:
    from stickprob.cli import cli

    from passes import NoTracer, cli_request

    sys.set_int_max_str_digits(0)
    out = {}
    for cls, requests in wl.cli_catalog().items():
        for argv in requests:
            code, text, _, error = cli_request(cli.main, list(argv), NoTracer().span)
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}: {error}")
            out[wl.cli_golden_key(argv)] = wl.digest(text)
        print(f"cli {cls}: {len(requests)} requests", file=sys.stderr)
    return out


def main() -> None:
    goldens = {
        "mc": mc_goldens(),
        "probe": probe_goldens(),
        "cli": cli_goldens(),
        "exact": exact_goldens(),
    }
    with open(wl.GOLDENS_PATH, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
