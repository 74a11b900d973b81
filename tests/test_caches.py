"""Every cache in the package is on the record.

A cache holds memory and ties its value to a key; one that no workload hits
is code to delete. The table below names each `functools.cache`,
`lru_cache` and `cached_property` in `src/biphoton`, what it is keyed on
and which benchmark workload hits it, with the hits and misses counted
over that workload's ops (200 model-sweep or tomo-stream ops, 8
scenario-run runs). A cache added, removed or renamed without its line
here fails the test, so the table is updated, and its counts measured,
in the change that makes it.
"""

import ast
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "biphoton"
CACHE_NAMES = {"cache", "lru_cache", "cached_property"}

#: "<module>.<qualified name>": (what it is keyed on, the workload that hits
#: it or None, its measured traffic).
CACHES = {
    "bell.ChshPlan._settings": (
        "the plan object", "model-sweep",
        "bell.OPTIMAL_PLAN's 16 outcome settings: 399 hits, 1 miss; "
        "scenario-run 15 hits, 1 miss"),
    "bell.ChshPlan._joints": (
        "the plan object", "model-sweep",
        "bell.OPTIMAL_PLAN's joint observables: 199 hits, 1 miss; "
        "scenario-run 15 hits, 1 miss"),
    "cli._fringe_grid": (
        "nothing (one value)", "model-sweep", "999 hits, 1 miss; scenario-run 39, 1"),
    "cli.build_parser": (
        "nothing (one value)", "model-sweep", "399 hits, 1 miss; scenario-run 7, 1"),
    "scenario._bell_state": (
        "the Bell-state label", "model-sweep", "1,067 hits, 1 miss; scenario-run 35, 1"),
    "scenario._strict_loader": (
        "the base YAML loader", "model-sweep", "399 hits, 1 miss; scenario-run 7, 1"),
    "sim._labelled_setting": (
        "the label pair", "tomo-stream",
        "3,184 hits, 16 misses; scenario-run none (tomography_plan returns "
        "sim._PLAN, which a miss on a plan pair hands back)"),
    "sim.MeasurementSetting.pair": (
        "the setting object", "model-sweep",
        "3,184 hits, 16 misses (the CHSH settings); scenario-run 256, 32"),
    "tomo._plan_arrays": (
        "the tuple of setting objects, by identity", "tomo-stream",
        "199 hits, 1 miss across files; scenario-run 7 hits, 1 miss across runs"),
}


def is_cache(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(
        decorator, "id", None)
    return name in CACHE_NAMES


def caches(tree: ast.Module, module: str) -> list:
    """The qualified names of the functions `tree` decorates with a cache,
    and "<module> line <n>" for each cache named anywhere but in a
    decorator (a cache built by a call, say)."""
    found, decorators = [], set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                for decorator in child.decorator_list:
                    decorators.update(map(id, ast.walk(decorator)))
                    if is_cache(decorator):
                        found.append(name)
                visit(child, name)

    visit(tree, module)
    for node in ast.walk(tree):
        named = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if named in CACHE_NAMES and id(node) not in decorators:
            found.append(f"{module} line {node.lineno}")
    return found


def test_every_cache_has_its_line():
    found = [name for path in sorted(SRC.glob("*.py"))
             for name in caches(ast.parse(path.read_text(), str(path)), path.stem)]
    unlisted, gone = set(found) - set(CACHES), set(CACHES) - set(found)
    assert (sorted(unlisted), sorted(gone)) == ([], [])


def test_each_line_names_a_workload():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for name, (key, workload, traffic) in CACHES.items():
        assert key and traffic, name
        assert workload is None or workload in workloads, name


@pytest.mark.parametrize("code, want", [
    ("import functools\n@functools.lru_cache(maxsize=4)\ndef f(x): pass\n", ["m.f"]),
    ("from functools import cache\n@cache\ndef f(): pass\n", ["m.f"]),
    ("import functools\nclass C:\n    @functools.cached_property\n    def p(self): pass\n"
     "    def q(self): pass\n", ["m.C.p"]),
    ("import functools\ng = functools.lru_cache(None)(len)\n", ["m line 2"]),
    ("import functools\n@functools.wraps(len)\ndef f(): pass\n", []),
], ids=["lru_cache", "bare-cache", "cached_property", "called", "another-decorator"])
def test_the_guard_sees_each_form(code, want):
    assert caches(ast.parse(code), "m") == want
