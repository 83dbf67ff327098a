"""The parts of the package that the benchmark under ``perfbench/`` relies on.

perfbench's tracer looks up every name in each module's ``__all__``, its
mutation tests patch the program at fixed anchor strings, and its scripts
import names from the package and read attributes off them.  A stale export,
a moved anchor or a deleted name breaks benchmark runs, so all three are
checked here, reading the anchors from perfbench's own test module and the
names from perfbench's sources rather than copying them.  An
``assert`` in the package must be such an anchor: cross-route checks belong
in ``verify`` and the tests, which ``python -O`` does not strip.  The
committed campaign records, ``BENCH_*.json`` at the root, are checked to
name only what ``BENCHMARK.json`` declares, so that two of them compare.
"""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import stickprob

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stickprob"
MODULES = ["stickprob"] + [
    f"stickprob.{info.name}" for info in pkgutil.iter_modules(stickprob.__path__)
]


def _mutations() -> dict:
    tree = ast.parse((ROOT / "perfbench" / "tests" / "test_perfbench.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "MUTATIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tests/test_perfbench.py defines no MUTATIONS")


MUTATIONS = _mutations()


def _perfbench_references() -> list[str]:
    """``file:dotted.name`` for every name a perfbench script imports from
    stickprob, and every attribute it names on one.  Scopes are not told
    apart, so a name counts as imported throughout its file."""
    refs = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # local name -> the dotted stickprob name it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "stickprob":
                    for alias in node.names:
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "stickprob":
                        refs.add(f"{path.name}:{alias.name}")
                        if alias.asname:
                            bound[alias.asname] = alias.name
                        else:
                            bound["stickprob"] = "stickprob"
        refs.update(f"{path.name}:{dotted}" for dotted in bound.values())
        refs.update(
            f"{path.name}:{bound[node.value.id]}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        )
    return sorted(refs)


def _resolve(dotted: str) -> None:
    """Look a dotted name up, importing submodules on the way; raise if
    any part of it is missing."""
    head, *rest = dotted.split(".")
    obj = importlib.import_module(head)
    for part in rest:
        if inspect.ismodule(obj) and not hasattr(obj, part):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("reference", _perfbench_references())
def test_every_name_perfbench_uses_resolves(reference):
    _resolve(reference.split(":")[1])


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_anchor_occurs_once(mutation):
    _, filename, anchor, _ = MUTATIONS[mutation]
    text = (PACKAGE / filename).read_text()
    assert text.count(anchor) == 1


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_every_assert_is_a_mutation_anchor(path):
    anchors = tuple(a for _, name, a, _ in MUTATIONS.values() if PACKAGE / name == path)
    text = path.read_text()
    stray = [
        node.lineno
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Assert)
        and not ast.get_source_segment(text, node).startswith(anchors)
    ]
    assert not stray


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_names_declared_workloads_and_metrics(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    record = json.loads(path.read_text())
    assert record["end_to_end"]
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        for workload, metrics in record.get(section, {}).items():
            assert workload in workloads, (section, workload)
            for name, metric in metrics.items():
                assert declared.get(name) == metric["unit"], (section, workload, name)
