"""The parts of the package that the benchmark under ``perfbench/`` relies on.

perfbench's tracer looks up every name in each module's ``__all__``, and its
mutation tests patch the program at fixed anchor strings.  A stale export or
a moved anchor breaks benchmark runs, so both are checked here, reading the
anchors from perfbench's own test module rather than copying them.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stickprob

ROOT = Path(__file__).resolve().parents[1]
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


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_anchor_occurs_once(mutation):
    _, filename, anchor, _ = MUTATIONS[mutation]
    text = (ROOT / "src" / "stickprob" / filename).read_text()
    assert text.count(anchor) == 1
