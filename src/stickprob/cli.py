"""Command-line interface.

Usage sketches::

    stickprob compute pn --model pickup --p 2 --n 4
    stickprob compute pn --model truncated --p 2 --n 3 --a 1/4
    stickprob compute pa --p 3 --n 6
    stickprob compute pr --p 2
    stickprob simulate --event pn --model broken --p 2 --n 4 --trials 1000000 --seed 42
    stickprob table pn --model pickup --p 2:4 --n 3:10 --output csv
    stickprob constants fib --p 3 --i 1:10
    stickprob constants m --p 3 --n 6
    stickprob constants emax --p 2 --n 5 --i 3
    stickprob verify --suite exact

Exact values cross this boundary as num/den strings or {"num", "den"}
objects, never floats.  Reports are JSON on stdout (CSV for tables on
request).  Exit status: 0 success, 1 verify found a failing identity,
2 usage error (an input outside a formula's domain or its size guards, a
Monte Carlo row too wide for the sub-block buffers, output holding an
integer past CPython's int->str digit limit, or Monte Carlo without an
importable numpy), 3 no closed form exists for the request: pa beyond
quadrilaterals with n > p (n <= p is vacuously 1 at every p), or an
(event, model) pair without one, such as pa or pr under any model but
pickup.
The exit-3 message names the Monte Carlo fallback, ``simulate --event E
--model M``.  Only ``simulate`` and ``verify --suite mc|all`` load numpy,
when they run: ``compute``, ``table``, ``constants`` and ``verify --suite
exact`` never do.  Likewise only ``verify`` loads the verification suite
and the symbolic oracle.  Where numpy cannot be imported, the Monte Carlo
commands exit 2 with one line on stderr that names it.  Ranges use
inclusive lo:hi syntax.  The only environment variable honoured is
STICKPROB_WORKERS, the default worker count for simulation.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import asdict
from fractions import Fraction

import click

from .closedform import ExactProb, closed_form, is_vacuous
from .errors import DomainError, ResourceLimitError, UnsupportedFormulaError, require_truncation
from .constraints import BOUND_MODELS, m_constants, max_length_form, s_constants
from .sequences import fib
from .specs import EVENTS, MC_BASE_SEED, MODELS, DistributionSpec, EventSpec

SCHEMA_VERSION = 1


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError as exc:
        raise click.UsageError(f"{flag} expects an integer or lo:hi range, got {text!r}") from exc
    if lo > hi:
        raise click.UsageError(f"{flag}: empty range {text!r}")
    return lo, hi


def _truncation(model: str, a: str | None) -> Fraction | None:
    """The --a rational, which the truncated model requires and no other takes."""
    if model != "truncated":
        if a is not None:
            raise click.UsageError("--a only applies to the truncated model")
        return None
    if a is None:
        raise click.UsageError("model truncated requires --a")
    return require_truncation(a)


def _exact_request(problem: str, model: str, n: int | str | None, a: str | None):
    """The closed form and --a rational for compute and table, in the order
    that puts exit 3 (no closed form) before any usage error."""
    form = closed_form(problem, model)
    a_value = _truncation(model, a)
    if problem == "pr" and n is not None:
        raise click.UsageError("pr does not depend on --n")
    if problem != "pr" and n is None:
        raise click.UsageError(f"{problem} requires --n")
    return form, a_value


def _inputs(**resolved) -> dict:
    """The request echo: each parameter click parsed, in declaration order
    (``ctx.params`` follows argv order).  ``resolved`` holds the values echoed
    in another form than parsed; ``_emit`` prints a Fraction as num/den."""
    ctx = click.get_current_context()
    return {param.name: resolved.get(param.name, ctx.params[param.name])
            for param in ctx.command.params}


def _exact_payload(prob: ExactProb, digits: int) -> dict:
    return {
        "exact": {"num": prob.numerator, "den": prob.denominator},
        "decimal": prob.decimal(digits),
    }


def _form_text(coeffs: tuple[int, ...]) -> str:
    """A bound form as text, longest stick first: "l4 + 2*l3 + l1"."""
    parts = [f"l{j}" if c == 1 else f"{c}*l{j}" for j, c in enumerate(coeffs, 1) if c]
    return " + ".join(reversed(parts)) or "0"


def _form_payload(coeffs: tuple[int, ...]) -> dict:
    return {
        "arity": len(coeffs),
        "coeffs": list(coeffs),
        # schema 1 carries a constant; no bound form has one, so it is always 0
        "constant": "0",
        "text": _form_text(coeffs),
    }


def _oversized(exc: ValueError) -> ResourceLimitError:
    """CPython's int->str digit limit, the only ValueError rendering can raise."""
    return ResourceLimitError(f"output too large to print: {exc}")


def _emit(command: str, inputs: dict, **body) -> None:
    try:
        inputs = {name: str(v) if isinstance(v, Fraction) else v for name, v in inputs.items()}
        payload = {"schema_version": SCHEMA_VERSION, "command": command, "inputs": inputs, **body}
        text = json.dumps(payload, indent=2)
    except ValueError as exc:
        raise _oversized(exc) from exc
    click.echo(text)


class _Cli(click.Group):
    """The one place where package errors become exit statuses: a value
    outside a formula's domain is a usage error (2), and so is Monte Carlo
    without an importable numpy; a request without a closed form is 3.
    Anything else, ValueError included, propagates."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DomainError, ResourceLimitError) as exc:
            raise click.UsageError(str(exc)) from exc
        except UnsupportedFormulaError as exc:
            click.echo(str(exc), err=True)
            ctx.exit(3)
        except ImportError as exc:
            if (exc.name or "").partition(".")[0] != "numpy":
                raise
            click.echo(f"Error: Monte Carlo needs numpy, which could not be imported: {exc}",
                       err=True)
            ctx.exit(2)


@click.group(cls=_Cli)
def cli() -> None:
    """Exact and Monte Carlo probabilities for stick-length polygon problems."""


_event_argument = click.argument("problem", type=click.Choice(list(EVENTS)))
_model_option = click.option("--model", type=click.Choice(MODELS), default="pickup",
                             show_default=True, help="Sampling model.")
_a_option = click.option("--a", "a", type=str, default=None,
                         help="Truncation point as num/den (model truncated only).")
_digits_option = click.option("--decimal-digits", type=int, default=12, show_default=True)
_workers_option = click.option("--workers", type=click.IntRange(min=1), default=1,
                               envvar="STICKPROB_WORKERS",
                               help="Defaults to STICKPROB_WORKERS, else 1.")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


@cli.command()
@_event_argument
@_model_option
@click.option("--p", "p", type=int, required=True, help="Polygon parameter: p+1 sides.")
@click.option("--n", "n", type=int, default=None, help="Number of sticks (not for pr).")
@_a_option
@_digits_option
def compute(problem: str, model: str, p: int, n: int | None,
            a: str | None, decimal_digits: int) -> None:
    """Evaluate one closed-form probability exactly."""
    form, a_value = _exact_request(problem, model, n, a)
    prob = form(p, n, a_value)
    result = _exact_payload(prob, decimal_digits)
    if problem != "pr":
        result["vacuous"] = is_vacuous(p, n)
    _emit("compute", _inputs(a=a_value), result=result)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--event", type=click.Choice(list(EVENTS)), required=True)
@_model_option
@click.option("--p", "p", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--trials", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_workers_option
@_a_option
@click.option("--rate", type=float, default=None,
              help="Exponential rate (model exponential only).")
@_digits_option
def simulate(event: str, model: str, p: int, n: int, trials: int, seed: int,
             workers: int, a: str | None, rate: float | None,
             decimal_digits: int) -> None:
    """Run the seeded Monte Carlo estimator; embeds the matching closed form
    and a z-score when one exists."""
    a_value = _truncation(model, a)
    if rate is not None and model != "exponential":
        raise click.UsageError("--rate only applies to the exponential model")
    dist = DistributionSpec(model, a=a_value or 0, rate=1.0 if rate is None else rate)
    from .montecarlo import estimate  # loads numpy, which no other command needs

    mc = estimate(EventSpec(EVENTS[event], p), dist, n, trials, seed, workers)

    try:
        exact = closed_form(event, model)(p, n, a_value)
    except UnsupportedFormulaError:
        exact = None
    z = None
    if exact is not None and mc.std_err > 0:
        z = (mc.p_hat - float(exact)) / mc.std_err
    result = _exact_payload(exact, decimal_digits) if exact is not None else None
    inputs = _inputs(a=a_value, rate=dist.rate if model == "exponential" else None)
    _emit("simulate", inputs, result=result, mc={
        "p_hat": mc.p_hat,
        "std_err": mc.std_err,
        "trials": mc.trials,
        "seed": mc.seed,
        "successes": mc.successes,
        "z_vs_exact": z,
    })


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


@cli.command()
@_event_argument
@_model_option
@click.option("--p", "p", type=str, required=True, help="p or lo:hi range.")
@click.option("--n", "n", type=str, default=None, help="n or lo:hi range (not for pr).")
@_a_option
@click.option("--output", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
@_digits_option
def table(problem: str, model: str, p: str, n: str | None,
          a: str | None, output: str, decimal_digits: int) -> None:
    """Tabulate a closed form over inclusive p and n ranges."""
    form, a_value = _exact_request(problem, model, n, a)
    p_lo, p_hi = _parse_range(p, "--p")
    ns = [None]
    if n is not None:
        n_lo, n_hi = _parse_range(n, "--n")
        ns = range(n_lo, n_hi + 1)

    cells = []
    for p_i in range(p_lo, p_hi + 1):
        for n_i in ns:
            prob = form(p_i, n_i, a_value)
            cells.append({"p": p_i, "n": n_i, **_exact_payload(prob, decimal_digits)})

    if output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["p", "n", "exact", "decimal"])
        try:
            for cell in cells:
                writer.writerow([
                    cell["p"],
                    "" if cell["n"] is None else cell["n"],
                    f"{cell['exact']['num']}/{cell['exact']['den']}",
                    cell["decimal"],
                ])
        except ValueError as exc:
            raise _oversized(exc) from exc
        click.echo(buf.getvalue(), nl=False)
        return
    _emit("table", _inputs(a=a_value), cells=cells)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


@cli.group()
def constants() -> None:
    """Emit the integer machinery behind the formulas."""


@constants.command("fib")
@click.option("--p", "p", type=int, required=True)
@click.option("--i", "i_range", type=str, required=True, help="Index or lo:hi range.")
def constants_fib(p: int, i_range: str) -> None:
    """p-step Fibonacci numbers over an index range."""
    lo, hi = _parse_range(i_range, "--i")
    _emit("constants", {"kind": "fib", "p": p, "lo": lo, "hi": hi}, result={"values": [fib(p, i) for i in range(lo, hi + 1)]})


@constants.command("m")
@click.option("--p", "p", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
def constants_m(p: int, n: int) -> None:
    """Pick-up sticks denominators m_1..m_n."""
    _emit("constants", {"kind": "m", **_inputs()},
          result={"values": list(m_constants(p, n))})


@constants.command("s")
@click.option("--p", "p", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
def constants_s(p: int, n: int) -> None:
    """Broken-stick denominators s_1..s_{n-1} (s_n = 1 implied)."""
    _emit("constants", {"kind": "s", **_inputs()},
          result={"values": list(s_constants(p, n)), "terminal": 1})


@constants.command("emax")
@click.option("--p", "p", type=int, required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--i", "i", type=int, required=True)
@click.option("--model", type=click.Choice(BOUND_MODELS), default="pickup",
              show_default=True)
def constants_emax(p: int, n: int, i: int, model: str) -> None:
    """The upper-bound data for one stick: denominator and numerator form."""
    den, form = max_length_form(p, n, i, model)
    try:
        payload = _form_payload(form)
        result = {
            "denominator": den,
            "numerator_form": payload,
            "text": f"l{i}_max = (1 - ({payload['text']})) / {den}",
        }
    except ValueError as exc:
        raise _oversized(exc) from exc
    _emit("constants", {"kind": "emax", **_inputs()}, result=result)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--suite", type=click.Choice(["all", "exact", "mc"]), default="all",
              show_default=True)
@click.option("--trials", type=int, default=1_000_000, show_default=True,
              help="Trials per Monte Carlo concordance target.")
@click.option("--seed", type=int, default=MC_BASE_SEED, show_default=True)
@_workers_option
def verify(suite: str, trials: int, seed: int, workers: int) -> None:
    """Run the named identity checks; exit nonzero if any fail."""
    from .verify import run_suite  # loads the oracle, which no other command needs

    results = run_suite(suite, trials=trials, seed=seed, workers=workers)
    passed = all(result.passed for result in results)
    _emit("verify", _inputs(), checks=[asdict(result) for result in results], passed=passed)
    if not passed:
        sys.exit(1)


def main() -> None:
    cli(prog_name="stickprob")


if __name__ == "__main__":
    main()
