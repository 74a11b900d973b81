"""Every per-layer span key that BENCHMARK.json declares names a callable
the benchmark's tracer can find.

The tracer wraps the public functions and classes of each `biphoton`
module, and the public methods of those classes, and reports each under
`<module>.<name>` or `<module>.<Class>.<method>`. A traced function that is
renamed, made private, moved to another module or inlined stops reporting
its key without any error; this test names it instead.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SPAN_STATS = ("calls", "total_s", "self_s")


def span_names():
    """The distinct callable names behind the `.calls`, `.total_s` and
    `.self_s` keys, without the tracer's own keys (`trace.*`), the artifact
    counts (`cli.artifacts.*`), the bare `<module>.self_s` totals and the
    derived statistics."""
    keys = [layer["name"] for layer in json.loads(BENCHMARK.read_text())["per_layer"]]
    names = []
    for key in keys:
        name, _, stat = key.rpartition(".")
        if (stat in SPAN_STATS and "." in name and name not in names
                and not name.startswith(("trace.", "cli.artifacts."))):
            names.append(name)
    return names


def test_declared_keys_are_found():
    names = span_names()
    assert "tomo.objective_and_gradient" in names
    assert "sim.MeasurementSetting.projector" in names
    assert not any(name.endswith(".self_s") or name.startswith("cli.artifacts")
                   for name in names)


@pytest.mark.parametrize("name", span_names())
def test_key_names_a_public_callable_of_its_module(name):
    module_name, *path = name.split(".")
    module = importlib.import_module(f"biphoton.{module_name}")
    owner_name, *method = path
    assert not owner_name.startswith("_"), name
    owner = getattr(module, owner_name, None)
    assert inspect.isfunction(owner) or inspect.isclass(owner), name
    assert owner.__module__ == module.__name__, name
    if not method and inspect.isclass(owner):
        # A class's span times its own constructor.
        assert "__init__" in vars(owner) and not issubclass(owner, BaseException), name
    if method:
        assert inspect.isclass(owner) and len(method) == 1, name
        assert not method[0].startswith("_"), name
        attr = vars(owner).get(method[0])
        if isinstance(attr, classmethod):
            attr = attr.__func__
        assert inspect.isfunction(attr), name
