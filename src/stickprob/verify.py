"""Named consistency checks spanning the whole package.

Two suites: ``exact`` runs every identity that must hold with zero
tolerance (different derivations of the same constants, closed forms
against the symbolic integrator, predicate algebra), and ``mc`` shakes
each (event, model, p, n) cell of one grid of closed forms against seeded
Monte Carlo, cell k on seed + k.  The CLI ``verify`` command renders the
results as JSON and exits nonzero if anything failed.

``EXACT_CHECKS`` is every ``check_*`` function defined above it, in
definition order, so each exact check is defined above it and each Monte
Carlo check below it.

The interval telescoping identity is proved on the bound forms, as equal
coefficient vectors over a grid of (p, n) for both bound models, so it
holds at every feasible prefix without sampling one.  Only the ``mc`` suite
imports ``montecarlo``, and numpy with it, so the exact suite runs without
numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, prod
from random import Random

from . import oracle
from .closedform import (
    ExactProb,
    closed_form,
    pa_pickup,
    pn_broken,
    pn_exponential,
    pn_pickup,
    pn_pickup_truncated,
    pr_pickup,
)
from .constraints import (
    BOUND_MODELS,
    e_vector,
    m_constants,
    m_constants_via_jacobian,
    max_length_form,
    max_min_identity_mismatches,
    s_constants,
)
from .errors import DomainError
from .sequences import fib, fib_prefix_sum
from .specs import EVENTS, NO_POLYGON, RANDOM_SUBSET_POLYGON, DistributionSpec, EventSpec
from .specs import MC_BASE_SEED

__all__ = [
    "CheckResult",
    "run_concordance",
    "run_suite",
    "EXACT_CHECKS",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _result(name: str, failures: list[str]) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; and {len(failures) - 4} more"
        return CheckResult(name, False, shown)
    return CheckResult(name, True)


# ---------------------------------------------------------------------------
# exact suite
# ---------------------------------------------------------------------------


def check_t_matches_prefix_sums() -> CheckResult:
    # the tail-chain rates, read off the windows alone, are the s constants
    # with s_n = 1 appended
    bad = [
        f"p={p} i={i}"
        for p in range(2, 7)
        for i, (rate, s) in enumerate(
            zip(oracle.exponential_rates(p, 40), s_constants(p, 40) + (1,)), 1
        )
        if rate != s
    ]
    return _result("t_matches_prefix_sums", bad)


def check_doubling_inside_initial_window() -> CheckResult:
    bad = [
        f"p={p} i={i}"
        for p in range(2, 9)
        for i in range(2, p + 1)
        if fib(p, i + 1) != 2 * fib(p, i)
    ]
    return _result("doubling_inside_initial_window", bad)


def check_prefix_sum_telescopes() -> CheckResult:
    bad = [
        f"p={p} i={i}"
        for p in range(2, 7)
        for i in range(2, 41)
        if fib_prefix_sum(p, i) - fib_prefix_sum(p, i - 1) != fib(p, i)
    ]
    return _result("prefix_sum_telescopes", bad)


def check_weighted_tail_collapses_to_index() -> CheckResult:
    # q == F_{q+1} - sum_{j=1}^{q-2} j F_{q-j} whenever q <= p
    bad = [
        f"p={p} q={q}"
        for p in range(3, 11)
        for q in range(3, p + 1)
        if q != fib(p, q + 1) - sum(j * fib(p, q - j) for j in range(1, q - 1))
    ]
    return _result("weighted_tail_collapses_to_index", bad)


def check_triple_derivation_of_m() -> CheckResult:
    bad = []
    for p in range(2, 7):
        for n in range(p + 1, 31):
            closed = m_constants(p, n)
            jac = m_constants_via_jacobian(p, n)
            vec = tuple(
                max_length_form(p, n, i)[0] for i in range(1, n)
            ) + (1,)
            if not closed == jac == vec:
                bad.append(f"p={p} n={n}")
    return _result("triple_derivation_of_m", bad)


def check_s_matches_vector_route() -> CheckResult:
    bad = []
    for p in range(2, 7):
        for n in range(p + 1, 31):
            closed = s_constants(p, n)
            vec = tuple(
                max_length_form(p, n, i, "broken")[0]
                for i in range(1, n)
            )
            if closed != vec:
                bad.append(f"p={p} n={n}")
    return _result("s_matches_vector_route", bad)


def check_e_vector_leads_with_step_fib() -> CheckResult:
    bad = [
        f"p={p} k={k}"
        for p in range(2, 7)
        for k in range(1, 31)
        if e_vector(p, k)[0] != fib(p, k)
    ]
    return _result("e_vector_leads_with_step_fib", bad)


def check_fibonacci_max_forms_for_triangles() -> CheckResult:
    bad = []
    for n in range(3, 21):
        for i in range(2, n):
            den, form = max_length_form(2, n, i)
            expected = (0,) * (i - 2) + (fib(2, n - i),)
            if den != fib(2, n - i + 1) or form != expected:
                bad.append(f"n={n} i={i}")
    return _result("fibonacci_max_forms_for_triangles", bad)


def check_broken_prefix_sums_for_triangles() -> CheckResult:
    bad = [
        f"n={n} i={i}"
        for n in range(3, 21)
        for i in range(1, n)
        if s_constants(2, n)[i - 1] != fib_prefix_sum(2, n - i + 1)
    ]
    return _result("broken_prefix_sums_for_triangles", bad)


def check_denominators_nonincreasing() -> CheckResult:
    # m and s (with its implied s_n = 1) both end at 1 and never grow
    bad = []
    for p in range(2, 7):
        for n in range(p + 1, 31):
            dens = {"m": m_constants(p, n), "s": s_constants(p, n) + (1,)}
            for name, den in dens.items():
                if any(a < b for a, b in zip(den, den[1:])) or den[-1] != 1:
                    bad.append(f"{name} p={p} n={n}")
    return _result("denominators_nonincreasing", bad)


def check_interval_telescoping_identity() -> CheckResult:
    bad = [
        f"{model} p={p} n={n} i={i}"
        for model in BOUND_MODELS
        for p in range(2, 7)
        for n in range(p + 1, 13)
        for i in max_min_identity_mismatches(p, n, model)
    ]
    return _result("interval_telescoping_identity", bad)


def _pn_pickup_quadrilateral(n: int) -> ExactProb:
    """Tribonacci-only form of pn_pickup(3, n), an independent route:
    1 / ((T_n - T_{n-2}) * T_1 * ... * T_{n-1})."""
    if n < 4:
        raise DomainError(f"the quadrilateral form needs n >= 4, got {n}")
    den = fib(3, n) - fib(3, n - 2)
    for i in range(1, n):
        den *= fib(3, i)
    return ExactProb.from_fraction(Fraction(1, den))


def check_quadrilateral_form_agrees() -> CheckResult:
    bad = [
        f"n={n}"
        for n in range(4, 21)
        if pn_pickup(3, n).fraction != _pn_pickup_quadrilateral(n).fraction
    ]
    return _result("quadrilateral_form_agrees", bad)


def check_triangle_product_inverts_fibonorial() -> CheckResult:
    bad = [
        f"n={n}"
        for n in range(3, 21)
        if pn_pickup(2, n).fraction * prod(fib(2, i) for i in range(1, n + 1)) != 1
    ]
    return _result("triangle_product_inverts_fibonorial", bad)


def check_all_gone_reduction_factorial() -> CheckResult:
    bad = [
        f"n={n}"
        for n in range(3, 13)
        if pn_pickup(n - 1, n).fraction != Fraction(1, factorial(n - 1))
    ]
    return _result("all_gone_reduction_factorial", bad)


def check_broken_reduction_power_of_two() -> CheckResult:
    bad = [
        f"n={n}"
        for n in range(3, 13)
        if pn_broken(n - 1, n).fraction != Fraction(n, 2 ** (n - 1))
    ]
    return _result("broken_reduction_power_of_two", bad)


def check_exponential_matches_broken() -> CheckResult:
    # pn_exponential returns pn_broken, so this one comparison holds both
    # to the tail-chain rates
    bad = [
        f"p={p} n={n}"
        for p in range(2, 8)
        for n in range(p + 1, 21)
        if Fraction(factorial(n), prod(oracle.exponential_rates(p, n)))
        != pn_exponential(p, n).fraction
    ]
    return _result("exponential_matches_broken", bad)


def check_complement_at_minimal_n() -> CheckResult:
    bad = [
        f"p={p}"
        for p in (2, 3)
        if pa_pickup(p, p + 1).fraction != 1 - pn_pickup(p, p + 1).fraction
    ] + [
        f"pr p={p}"
        for p in range(2, 13)
        if pr_pickup(p).fraction != 1 - pn_pickup(p, p + 1).fraction
    ]
    return _result("complement_at_minimal_n", bad)


def check_truncated_nonincreasing_in_cutoff() -> CheckResult:
    bad = []
    for p, n in ((2, 3), (2, 5), (3, 4), (3, 6)):
        cap = Fraction(1, m_constants(p, n)[0])
        grid = [cap * Fraction(j, 16) for j in range(17)]
        values = [pn_pickup_truncated(p, n, a).fraction for a in grid]
        if any(x < y for x, y in zip(values, values[1:])):
            bad.append(f"p={p} n={n} not nonincreasing")
        if values[-1] != 0:
            bad.append(f"p={p} n={n} endpoint {values[-1]} != 0")
        if values[0] != pn_pickup(p, n).fraction:
            bad.append(f"p={p} n={n} a=0 mismatch")
    return _result("truncated_nonincreasing_in_cutoff", bad)


def check_probabilities_reduced_and_in_range() -> CheckResult:
    bad = []
    probs = []
    for p in range(2, 6):
        for n in range(1, 13):
            probs.append(pn_pickup(p, n))
            probs.append(pn_broken(p, n))
            if p in (2, 3):
                probs.append(pa_pickup(p, n))
        probs.append(pr_pickup(p))
    for prob in probs:
        if not 0 <= prob.fraction <= 1:
            bad.append(f"{prob} out of range")
        if gcd(prob.numerator, prob.denominator) != 1:
            bad.append(f"{prob} not reduced")
    return _result("probabilities_reduced_and_in_range", bad)


def check_symbolic_integration_matches_closed_form() -> CheckResult:
    grid = [(p, n) for p in (2, 3) for n in range(p + 1, 8)]
    grid += [(4, 5), (4, 6), (4, 8), (5, 8), (6, 8)]
    bad = [
        f"p={p} n={n}"
        for p, n in grid
        if oracle.symbolic_pn_pickup(p, n).fraction != pn_pickup(p, n).fraction
    ]
    return _result("symbolic_integration_matches_closed_form", bad)


def check_symbolic_truncated_matches_closed_form() -> CheckResult:
    cases = [
        (2, 3, Fraction(1, 4)),
        (2, 3, Fraction(0)),
        (2, 3, Fraction(1, 2)),
        (2, 4, Fraction(1, 10)),
        (3, 4, Fraction(1, 8)),
    ]
    # a cutoff at or past 1/m_1 leaves probability 0 on both sides, which
    # hides a wrong form; these larger cells cut at a = 1/(2 m_1) instead
    cases += [
        (p, n, Fraction(1, 2 * m_constants(p, n)[0])) for p, n in ((2, 8), (3, 8), (4, 7))
    ]
    symbolic = {case: oracle.symbolic_pn_truncated(*case).fraction for case in cases}
    bad = [
        f"p={p} n={n} a={a}"
        for (p, n, a), sym in symbolic.items()
        if sym != pn_pickup_truncated(p, n, a).fraction
    ]
    if symbolic[2, 3, Fraction(1, 4)] != Fraction(4, 27):
        bad.append("reference value 4/27 missed")
    return _result("symbolic_truncated_matches_closed_form", bad)


def check_partial_integrals_vanish_at_max() -> CheckResult:
    bad = [
        f"p={p} n={n}"
        for p, n in ((2, 4), (2, 6), (3, 5), (4, 6))
        if not oracle.intermediates_vanish_at_max(p, n)
    ]
    return _result("partial_integrals_vanish_at_max", bad)


def check_matrix_recurrence_matches_step_fib() -> CheckResult:
    bad = []
    for p in range(2, 7):
        for l in range(1, 31):
            r = oracle.r_vector(p, l)
            if r[p - 1] != fib(p, l):
                bad.append(f"p={p} l={l} last entry")
                continue
            if r[p - 2] != fib(p, l + 1):
                bad.append(f"p={p} l={l} second-to-last entry")
                continue
            for i in range(1, p - 1):
                expected = fib(p, l + p - i) - sum(
                    (p - i - j) * fib(p, l + j - 1) for j in range(1, p - i)
                )
                if r[i - 1] != expected:
                    bad.append(f"p={p} l={l} entry {i}")
                    break
    return _result("matrix_recurrence_matches_step_fib", bad)


# every check_* function defined so far, in definition order
EXACT_CHECKS = tuple(f for name, f in globals().items() if name.startswith("check_"))


# ---------------------------------------------------------------------------
# Monte Carlo suite
# ---------------------------------------------------------------------------


# (event, model, p, n values) shaken statistically; pr is independent of n
_CONCORDANCE_GRID = (
    ("pn", "pickup", 2, range(3, 8)),
    ("pn", "pickup", 3, range(4, 8)),
    ("pn", "broken", 2, range(3, 7)),
    ("pn", "exponential", 2, range(3, 6)),
    ("pn", "truncated", 2, range(3, 5)),
    ("pa", "pickup", 2, range(3, 7)),
    ("pa", "pickup", 3, range(4, 7)),
    ("pr", "pickup", 2, (6,)),
    ("pr", "pickup", 3, (6,)),
)
_CONCORDANCE_CELLS = tuple(
    (event, model, p, n) for event, model, p, ns in _CONCORDANCE_GRID for n in ns
)
_CONCORDANCE_TRUNCATION = Fraction(1, 10)
_RETRY_FACTOR = 10


def run_concordance(
    trials: int = 10**6,
    seed: int = MC_BASE_SEED,
    workers: int = 1,
) -> list[CheckResult]:
    """Compare each cell's estimate (cell k on seed + k) with its closed form.

    A miss beyond 4 standard errors is rerun once at _RETRY_FACTOR times the
    trials before it counts as a failure; a genuine defect will not survive
    the tighter interval, while an unlucky draw almost always will.
    """
    from .montecarlo import estimate

    results = []
    for k, (event, model, p, n) in enumerate(_CONCORDANCE_CELLS):
        a = _CONCORDANCE_TRUNCATION if model == "truncated" else None
        label = f"{event}-{model}-p{p}"
        if event != "pr":
            label += f"-n{n}"
        if a is not None:
            label += f"-a{a}"
        event_spec = EventSpec(EVENTS[event], p)
        dist = DistributionSpec(model, a=a or 0)
        exact = float(closed_form(event, model)(p, n, a))
        for runs in (trials, trials * _RETRY_FACTOR):
            est = estimate(event_spec, dist, n, runs, seed + k, workers)
            diff = abs(est.p_hat - exact)
            if diff <= 4 * est.std_err:
                break
        passed = diff <= 4 * est.std_err
        z = diff / est.std_err if est.std_err else float(diff > 0) * float("inf")
        detail = (
            f"p_hat={est.p_hat:.6f} exact={exact:.6f} "
            f"z={z:.2f} trials={est.trials}"
        )
        if runs != trials:
            detail += " (retried)"
        results.append(CheckResult(f"mc_concordance[{label}]", passed, detail))
    return results


def check_workers_bit_identical(trials: int, seed: int) -> CheckResult:
    from .montecarlo import estimate

    bad = []
    cases = [
        (EventSpec(NO_POLYGON, 2), DistributionSpec.uniform01(), 5),
        (EventSpec(RANDOM_SUBSET_POLYGON, 2), DistributionSpec.broken_stick(), 5),
    ]
    for event, dist, n in cases:
        runs = [
            estimate(event, dist, n, trials, seed, workers=w) for w in (1, 4, 8)
        ]
        if len({(r.successes, r.p_hat) for r in runs}) != 1:
            bad.append(f"{event.kind}/{dist.kind}")
    return _result("workers_bit_identical", bad)


def check_exponential_rate_invariant(trials: int, seed: int) -> CheckResult:
    from .montecarlo import estimate

    event = EventSpec(NO_POLYGON, 2)
    lo = estimate(event, DistributionSpec.exponential(1.0), 4, trials, seed)
    hi = estimate(event, DistributionSpec.exponential(5.0), 4, trials, seed + 1)
    joint = (lo.std_err**2 + hi.std_err**2) ** 0.5
    ok = abs(lo.p_hat - hi.p_hat) <= 4 * joint
    return CheckResult(
        "exponential_rate_invariant",
        ok,
        f"rate1={lo.p_hat:.6f} rate5={hi.p_hat:.6f} joint_sigma={joint:.2e}",
    )


def check_predicate_scale_invariance(seed: int) -> CheckResult:
    from . import montecarlo

    rng = Random(seed)
    bad = []
    for _ in range(500):
        n = rng.randint(2, 9)
        p = rng.randint(2, 4)
        lengths = sorted(rng.random() for _ in range(n))
        scale = rng.choice((0.001, 0.5, 3.0, 1000.0))
        scaled = [scale * x for x in lengths]
        if montecarlo.no_polygon(lengths, p) != montecarlo.no_polygon(scaled, p):
            bad.append(f"no_polygon n={n} p={p}")
        if montecarlo.all_polygon(lengths, p) != montecarlo.all_polygon(scaled, p):
            bad.append(f"all_polygon n={n} p={p}")
    return _result("predicate_scale_invariance", bad)


def check_events_mutually_exclusive(seed: int) -> CheckResult:
    from . import montecarlo

    rng = Random(seed)
    bad = []
    for _ in range(500):
        p = rng.randint(2, 4)
        n = rng.randint(p + 1, 10)
        lengths = sorted(rng.random() for _ in range(n))
        if montecarlo.no_polygon(lengths, p) and montecarlo.all_polygon(lengths, p):
            bad.append(f"n={n} p={p}")
    return _result("events_mutually_exclusive", bad)


def _guarded(check, *args, name: str = "") -> list[CheckResult]:
    """The check's results; a check that raises has failed, under its usual
    name, so one crash cannot abort the suite or hide the other results."""
    try:
        result = check(*args)
    except Exception as exc:
        name = name or check.__name__.removeprefix("check_")
        return [CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")]
    return result if isinstance(result, list) else [result]


def run_suite(
    suite: str = "all",
    trials: int = 10**6,
    seed: int = MC_BASE_SEED,
    workers: int = 1,
) -> list[CheckResult]:
    if suite not in ("all", "exact", "mc"):
        raise ValueError(f"unknown suite {suite!r}")
    monte_carlo = suite in ("all", "mc")
    if monte_carlo:
        # numpy that cannot be imported, and bad run arguments (a usage
        # error), raise before any check runs; the concordance cells draw
        # seeds seed .. seed + len(cells) - 1
        from . import montecarlo

        montecarlo._check_run(trials, workers, seed)
        montecarlo._check_run(trials, workers, seed + len(_CONCORDANCE_CELLS) - 1)
    results: list[CheckResult] = []
    if suite in ("all", "exact"):
        for check in EXACT_CHECKS:
            results += _guarded(check)
    if monte_carlo:
        results += _guarded(check_predicate_scale_invariance, seed)
        results += _guarded(check_events_mutually_exclusive, seed + 1)
        results += _guarded(check_workers_bit_identical, min(trials, 10**6), seed)
        results += _guarded(check_exponential_rate_invariant, trials, seed)
        results += _guarded(run_concordance, trials, seed, workers, name="mc_concordance")
    return results
