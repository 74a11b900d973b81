"""Every public function and class of the package is called, measured or
documented.

A public module-level function or class of `src/biphoton` must meet one of
three conditions:

- code in `src/biphoton` outside its own definition names it;
- it owns a BENCHMARK.json per-layer key (`<module>.<name>.<stat>`);
- README.md names it in code (an inline code span or a code block).

A name that meets none is reached by the tests alone: a second way to compute
what the package already computes, which goes, or which the README says what
it is for. Names are matched as identifiers, so an attribute of the same name
anywhere in `src/biphoton` counts as a use.
"""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "biphoton"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree: ast.Module) -> list:
    return [node.name for node in tree.body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")]


def named(node: ast.AST):
    """Every identifier `node` names: variables, attributes and imports."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rpartition(".")[2]


def referenced(trees) -> set:
    """The identifiers the module-level statements of `trees` name, each
    definition's own name left out of what its body names."""
    found = set()
    for tree in trees:
        for statement in tree.body:
            own = statement.name if isinstance(statement, DEFINITIONS) else None
            found.update(name for name in named(statement) if name != own)
    return found


def readme_names(text: str) -> set:
    """The identifiers in the code of a Markdown text: its fenced blocks and
    its inline code spans."""
    fenced = re.compile(r"```.*?```", re.S)
    code = fenced.findall(text) + re.findall(r"`([^`\n]+)`", fenced.sub("", text))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def unused(sources: dict, keys: set, readme: str) -> list:
    """`<module>.<name>` of each public function or class of `sources`
    (module name to source text) that meets none of the three conditions."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    names = referenced(trees.values()) | readme_names(readme)
    return sorted(f"{module}.{name}" for module, tree in trees.items()
                  for name in public_definitions(tree)
                  if name not in names and f"{module}.{name}" not in keys)


def benchmark_owners() -> set:
    """`<module>.<name>` of each BENCHMARK.json per-layer key."""
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {".".join(layer["name"].split(".")[:2]) for layer in layers}


def test_every_public_name_is_called_measured_or_documented():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    assert unused(sources, benchmark_owners(), readme) == []


@pytest.mark.parametrize("sources, keys, readme, want", [
    ({"m": "def f(): pass\ndef _g(): return f()\n"}, set(), "", []),
    ({"m": "def f(n): return f(n - 1)\n"}, set(), "", ["m.f"]),
    ({"a": "def f(): pass\n", "b": "from a import f\n"}, set(), "", []),
    ({"a": "class C: pass\n", "b": "import a\nx = a.C()\n"}, set(), "", []),
    ({"m": "def f(): pass\n"}, {"m.f"}, "", []),
    ({"m": "def f(): pass\n"}, set(), "Call `m.f(x)`.", []),
    ({"m": "def f(): pass\n"}, set(), "```python\ny = f()\n```\n", []),
    ({"m": "def f(): pass\n"}, set(), "f is documented in prose only.", ["m.f"]),
    ({"m": "def _f(): pass\nclass C:\n    def g(self): pass\n"}, set(), "", ["m.C"]),
], ids=["called", "recursion-only", "imported", "attribute", "keyed", "inline-code",
        "code-block", "prose-only", "private-and-methods"])
def test_the_guard_sees_each_form(sources, keys, readme, want):
    assert unused(sources, keys, readme) == want
