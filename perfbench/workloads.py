"""Workload inputs, generated from the workload seed, and their output checks.

This module never imports stickprob: it builds the inputs the program
receives and judges the outputs the program returned, so a defect in the
package cannot also corrupt the judge.  The expected values live in
``goldens.json``, written by ``make_goldens.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS_PATH = HERE / "goldens.json"

WORKLOADS = ("exact-bigint", "mc-grid", "cli-session")
SIZES = ("full", "tiny")
DEFAULT_SEED = 0

# exact-bigint: every PN evaluator at p in {2, 3} and three sizes of n.  The
# seed moves each n by at most JITTER - 1 so that the work, which grows
# steeply in n, stays within a few percent across seeds.  The largest
# size is capped so that a pass takes about three seconds and a 30-second
# run holds five to seven passes: an operation's time is its median over
# passes.
EXACT_MODELS = ("pickup", "broken", "exponential")
EXACT_PS = (2, 3)
EXACT_TIERS = {"full": (250, 500, 1000), "tiny": (30, 60, 90)}
JITTER = 8

# mc-grid: every event x model cell at p = 2, n in {5, 20}, equal trials.
MC_EVENTS = ("pn", "pa", "pr")
MC_MODELS = ("pickup", "truncated", "exponential", "broken")
MC_P = 2
MC_NS = (5, 20)
MC_TRIALS = {"full": 1 << 17, "tiny": 1 << 12}
MC_TRUNCATION = "1/10"
MC_SIGMAS = 6.0  # tolerance at seeds without a bit-exact golden
# montecarlo names the CLI's events differently
MC_EVENT_KIND = {"pn": "no_polygon", "pa": "all_polygon", "pr": "random_subset_polygon"}

# cli-session: requests per class in one session, for each size.
CLI_MIX = {
    "compute_pn": (56, 8),
    "compute_pa": (8, 2),
    "compute_pr": (4, 1),
    "table_json": (6, 1),
    "table_csv": (6, 1),
    "const_fib": (6, 1),
    "const_m": (6, 1),
    "const_s": (6, 1),
    "const_emax": (6, 1),
    # every event x model alike, so each session costs the same; enough of
    # them that p90 falls inside this group, not at its edge
    "simulate": (24, 12),
    "verify": (1, 1),
    "defect": (2, 2),
}

SIMULATE_SEEDS = (0, 1, 2, 3)

# Requests whose output passes CPython's 4300-digit int->str limit.  They
# exit 1 with a ValueError until that defect is fixed, and count as failed
# operations meanwhile; their goldens hold the output a fixed CLI must print.
# Every other operation is expected to succeed: one that raises or exits
# nonzero is a wrong output, not a slow one.
DEFECT_REQUESTS = (
    ("compute", "pn", "--p", "2", "--n", "250"),
    ("table", "pn", "--p", "2", "--n", "190:210"),
)


def _mixed(items: list) -> list:
    """The items in one fixed interleaved order, the same for every seed.

    An operation's time depends on what ran before it in the process (a
    PN evaluation after a large one took twice as long as after a small
    one), so a seeded order would move the percentiles from seed to seed.
    """
    order = list(range(len(items)))
    random.Random(len(items)).shuffle(order)
    return [items[i] for i in order]


def digest(text: str | bytes) -> str:
    if isinstance(text, str):
        text = text.encode()
    return hashlib.sha256(text).hexdigest()[:16]


def fraction_digest(num: int, den: int) -> str:
    """Digest of a fraction in hex, which sidesteps the int->str limit."""
    return digest(f"{num:x}/{den:x}")


# ---------------------------------------------------------------------------
# exact-bigint
# ---------------------------------------------------------------------------


def exact_ops(seed: int, size: str) -> list[list]:
    rng = random.Random(f"exact-bigint/{seed}")
    ns = [tier + rng.randrange(JITTER) for tier in EXACT_TIERS[size]]
    return _mixed([[model, p, n] for n in ns for p in EXACT_PS for model in EXACT_MODELS])


def exact_golden_key(p: int, n: int) -> str:
    return f"{p},{n}"


def check_exact(ops: list[list], outputs: list[dict], goldens: dict) -> list[str]:
    """pickup against its golden; broken and exponential both against the
    broken golden, so exponential is checked by the independent t-route.
    An evaluation that raised is wrong: every one is expected to succeed."""
    wrong = []
    for (model, p, n), out in zip(ops, outputs):
        if "error" in out:
            wrong.append(f"{model} p={p} n={n} raised {out['error']}")
            continue
        ref = goldens["exact"][exact_golden_key(p, n)]
        key = "pickup" if model == "pickup" else "broken"
        if out["digest"] != ref[key]["digest"] or out["decimal"] != ref[key]["decimal"]:
            wrong.append(f"{model} p={p} n={n}")
    return wrong


# ---------------------------------------------------------------------------
# mc-grid
# ---------------------------------------------------------------------------


def mc_cells(seed: int, size: str) -> list[list]:
    """[event, model, p, n, trials, cell_seed] for every cell."""
    rng = random.Random(f"mc-grid/{seed}")
    cells = []
    for n in MC_NS:
        for event in MC_EVENTS:
            for model in MC_MODELS:
                cells.append([event, model, MC_P, n, MC_TRIALS[size], rng.getrandbits(63)])
    return _mixed(cells)


def mc_cell_name(event: str, model: str, n: int) -> str:
    return f"{event}.{model}.n{n}"


def check_mc(seed: int, size: str, cells: list[list], outputs: list[dict],
             goldens: dict) -> list[str]:
    """Bit-exact successes at the default seed; elsewhere within MC_SIGMAS
    standard errors of the closed form, or of the default-seed estimate
    where no closed form exists.  A cell that raised is wrong."""
    wrong = []
    table = goldens["mc"][size]
    for (event, model, _, n, trials, _), out in zip(cells, outputs):
        if "error" in out:
            wrong.append(f"{event}.{model}.n{n}: raised {out['error']}")
            continue
        ref = table[mc_cell_name(event, model, n)]
        got = out["successes"]
        if out["trials"] != trials or not 0 <= got <= trials:
            wrong.append(f"{event}.{model}.n{n}: bad counts {out}")
            continue
        if seed == DEFAULT_SEED:
            if got != ref["successes"]:
                wrong.append(f"{event}.{model}.n{n}: {got} != golden {ref['successes']}")
            continue
        if ref["exact"] is not None:
            centre = ref["exact"]
            var = centre * (1 - centre) / trials
        else:
            centre = ref["successes"] / trials
            var = 2 * centre * (1 - centre) / trials
        if abs(got / trials - centre) > MC_SIGMAS * math.sqrt(var) + 1.0 / trials:
            wrong.append(f"{event}.{model}.n{n}: {got}/{trials} far from {centre}")
    return wrong


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------


def simulate_argv(event: str, model: str, seed: int) -> tuple[str, ...]:
    extra = ("--a", MC_TRUNCATION) if model == "truncated" else ()
    return ("simulate", "--event", event, "--model", model, "--p", "2", "--n", "12",
            "--trials", "20000", "--seed", str(seed)) + extra


def cli_catalog() -> dict[str, list[tuple[str, ...]]]:
    """Every request a session can draw, by class.  Finite, so each one has
    a golden."""
    cat: dict[str, list[tuple[str, ...]]] = {k: [] for k in CLI_MIX}
    for model in ("pickup", "broken", "exponential", "truncated"):
        extras = [("--a", a) for a in ("1/4", "1/10")] if model == "truncated" else [()]
        for p in (2, 3, 4):
            for n in range(p + 1, 41):
                for extra in extras:
                    cat["compute_pn"].append(
                        ("compute", "pn", "--model", model, "--p", str(p), "--n", str(n)) + extra)
    for p in (2, 3):
        for n in range(p + 1, 41):
            cat["compute_pa"].append(("compute", "pa", "--p", str(p), "--n", str(n)))
    cat["compute_pr"] = [("compute", "pr", "--p", str(p)) for p in range(2, 9)]
    for model in ("pickup", "broken", "exponential", "truncated"):
        extra = ("--a", "1/4") if model == "truncated" else ()
        for p_range in ("2:3", "3:4"):
            for lo in (4, 8, 12, 16):
                argv = ("table", "pn", "--model", model, "--p", p_range,
                        "--n", f"{lo}:{lo + 7}") + extra
                cat["table_json"].append(argv)
                cat["table_csv"].append(argv + ("--output", "csv"))
    for p in range(2, 6):
        for hi in (20, 40, 60, 80):
            cat["const_fib"].append(("constants", "fib", "--p", str(p), "--i", f"1:{hi}"))
        for n in range(p + 1, 41):
            cat["const_m"].append(("constants", "m", "--p", str(p), "--n", str(n)))
            cat["const_s"].append(("constants", "s", "--p", str(p), "--n", str(n)))
    for model in ("pickup", "broken"):
        for p in (2, 3):
            for n in range(p + 1, 11):
                for i in range(1, n):
                    cat["const_emax"].append(("constants", "emax", "--p", str(p), "--n", str(n),
                                              "--i", str(i), "--model", model))
    cat["simulate"] = [simulate_argv(event, model, s)
                       for event in MC_EVENTS for model in MC_MODELS for s in SIMULATE_SEEDS]
    cat["verify"] = [("verify", "--suite", "exact")]
    cat["defect"] = list(DEFECT_REQUESTS)
    return cat


def cli_requests(seed: int, size: str) -> list[list[str]]:
    """One session: a fixed number of requests of each class, drawn by the
    seed.

    Draws are systematic -- evenly spaced through the catalog from a seeded
    start -- so every session covers the models, p and n alike and costs
    about the same whatever the seed."""
    rng = random.Random(f"cli-session/{seed}")
    cat = cli_catalog()
    column = SIZES.index(size)
    reqs: list[tuple[str, ...]] = []
    for cls, counts in CLI_MIX.items():
        options, count = cat[cls], counts[column]
        if cls == "defect":
            reqs.extend(options[:count])
        elif cls == "simulate":
            combos = [(event, model) for event in MC_EVENTS for model in MC_MODELS]
            reqs.extend(simulate_argv(event, model, rng.choice(SIMULATE_SEEDS))
                        for _ in range(count // len(combos)) for event, model in combos)
        else:
            step = len(options) / count
            start = rng.random() * step
            reqs.extend(options[int(start + i * step)] for i in range(count))
    return [list(r) for r in _mixed(reqs)]


def cli_golden_key(argv) -> str:
    return " ".join(argv)


def is_defect_request(argv) -> bool:
    return tuple(argv) in DEFECT_REQUESTS


def check_cli(reqs: list[list[str]], outputs: list[dict], goldens: dict) -> list[str]:
    """Exit 0 and stdout byte-identical to the golden.  Only a request in
    DEFECT_REQUESTS may exit nonzero: it is then a failed request, counted
    apart.  Any other nonzero exit is a wrong output."""
    wrong = []
    for argv, out in zip(reqs, outputs):
        if out["exit"] != 0:
            if not is_defect_request(argv):
                wrong.append(f"{cli_golden_key(argv)}: exited {out['exit']}, expected 0")
            continue
        ref = goldens["cli"][cli_golden_key(argv)]
        if out["digest"] != ref:
            wrong.append(f"{cli_golden_key(argv)}: stdout differs from golden")
    return wrong


# ---------------------------------------------------------------------------


def make_ops(workload: str, seed: int, size: str) -> list[list]:
    if workload == "exact-bigint":
        return exact_ops(seed, size)
    if workload == "mc-grid":
        return mc_cells(seed, size)
    return cli_requests(seed, size)


def check_outputs(workload: str, seed: int, size: str, ops: list, outputs: list[dict],
                  goldens: dict) -> list[str]:
    if len(outputs) != len(ops):
        return [f"{len(outputs)} outputs for {len(ops)} operations"]
    if workload == "exact-bigint":
        return check_exact(ops, outputs, goldens)
    if workload == "mc-grid":
        return check_mc(seed, size, ops, outputs, goldens)
    return check_cli(ops, outputs, goldens)


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)
