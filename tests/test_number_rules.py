"""One rule per kind of number.

`scenario._integer` decides what counts as an integer argument and
`scenario._number` what counts as a real one, for every library entry
point: a Python or numpy integer (never a bool) and a real number (never a
bool, a string or NaN). Each refusal is one line, "<argument> must be
<phrase>, got <value>". The table below gives each converted entry point
malformed values; the guard at the end fails when a module other than
`scenario` decides by itself what an integer or a real number is.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from biphoton import bell, cli, optics, qstate, sim, tomo
from biphoton.scenario import ChannelSpec, ScenarioConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "biphoton"
RHO = qstate.to_density(qstate.bell_state("phi+"))
RECORDS = sim.acquire_tomography(RHO, sim.tomography_plan(), 1000, 2)
NOT_INTEGERS = [True, np.True_, 2.0, "2", math.nan, math.inf, -math.inf]
NOT_NUMBERS = [True, np.False_, "0.5", math.nan]

#: (entry point, call with the value, the name its message starts with,
#: the phrase of its rule, the malformed values).
ENTRIES = [
    ("stream-seed", lambda v: sim.stream(v), "seed", "a non-negative integer",
     NOT_INTEGERS),
    ("stream-key", lambda v: sim.stream(1, v), "seed", "a non-negative integer",
     NOT_INTEGERS),
    ("stream-count", lambda v: sim.stream(1, 2, count=v), "count",
     "a non-negative integer", NOT_INTEGERS),
    ("mle-seed", lambda v: tomo.mle_reconstruct(RECORDS, seed=v), "seed",
     "a non-negative integer", NOT_INTEGERS),
    ("kraus-arm", lambda v: optics.KrausChannel((np.eye(2),), arm=v), "arm", "1 or 2",
     [np.True_, 1.0, np.float64(2.0)]),
    ("depolarize", lambda v: optics.depolarize(RHO, v), "p", "a number in [0, 1]",
     [*NOT_NUMBERS, -0.1, 1.5, math.inf]),
    ("coupler-eta_h", lambda v: optics.anisotropic_coupler(v, 0.5), "eta_h",
     "a number in [0, 1]", [*NOT_NUMBERS, 1.5]),
    ("coupler-eta_v", lambda v: optics.anisotropic_coupler(0.5, v), "eta_v",
     "a number in [0, 1]", [*NOT_NUMBERS, -0.5]),
    ("pump-eta_h", lambda v: optics.pump_compensation(v, 1.0), "eta_h",
     "a finite positive number", [*NOT_NUMBERS, 0.0, math.inf]),
    ("pump-eta_v", lambda v: optics.pump_compensation(1.0, v), "eta_v",
     "a finite positive number", [*NOT_NUMBERS, -1.0, math.inf]),
    ("schmidt", lambda v: qstate.schmidt_pure(v), "theta", "a number in [0, pi/2]",
     [*NOT_NUMBERS, "0.3", -0.1, 2.0]),
    ("extinction", lambda v: sim.leak_fraction_for_extinction(v), "extinction",
     "a number above 1", [*NOT_NUMBERS, 1.0, -math.inf]),
    ("leak", lambda v: sim.h_state_with_leak(v), "leak", "a number in [0, 1)",
     [*NOT_NUMBERS, False, 1.0, math.inf]),
    ("spec-coupler", lambda v: ChannelSpec("coupler", {"eta_h": v, "eta_v": 0.5}),
     "coupler eta_h", "a number in [0, 1]", [*NOT_NUMBERS, 1.5, math.inf]),
    ("spec-ratio", lambda v: ChannelSpec("coupler", {"eta_h": 0.5, "ratio": v}),
     "coupler ratio", "a finite positive number", [*NOT_NUMBERS, 0.0, math.inf]),
    ("fit-noise", lambda v: cli.fit_noise(v, RHO), "target concurrence", "a number",
     [math.nan, np.float64(math.nan)]),
    ("plan-alice", lambda v: bell.ChshPlan((v, 0.5), (0, 1)), "alice angle",
     "a finite number", [*NOT_NUMBERS, "a", math.inf]),
    ("plan-bob", lambda v: bell.ChshPlan((0, 1), (0.5, v)), "bob angle",
     "a finite number", [*NOT_NUMBERS, -math.inf]),
    ("correlation-a", lambda v: bell.correlation(RHO, v, 0), "a", "a finite number",
     [*NOT_NUMBERS, math.inf]),
    ("correlation-b", lambda v: bell.correlation(RHO, 0, v), "b", "a finite number",
     [*NOT_NUMBERS, -math.inf]),
    ("ket", lambda v: qstate.ket(v), "angle", "a finite number",
     [True, np.False_, math.nan, math.inf]),
    ("rotation", lambda v: optics.rotation(v), "angle", "a finite number",
     [*NOT_NUMBERS, "a", math.inf]),
    ("polarizer", lambda v: optics.polarizer(v), "angle", "a finite number",
     [*NOT_NUMBERS, -math.inf]),
    ("waveplate-retardance", lambda v: optics.waveplate(v, 0.0), "retardance",
     "a finite number", [*NOT_NUMBERS, math.inf]),
    ("waveplate-angle", lambda v: optics.waveplate(np.pi, v), "angle", "a finite number",
     [*NOT_NUMBERS, math.inf]),
    ("fringe-eta_h", lambda v: optics.transmission_fringe(v, 1.0, [0.0]), "eta_h",
     "a number in [0, 1]", [*NOT_NUMBERS, 2.0, -0.5]),
    ("fringe-eta_v", lambda v: optics.transmission_fringe(1.0, v, [0.0]), "eta_v",
     "a number in [0, 1]", [*NOT_NUMBERS, math.inf]),
    ("extinction-eta_h", lambda v: sim.leak_fraction_for_extinction(25.0, v, 1.0),
     "eta_h", "a number in [0, 1]", [*NOT_NUMBERS, 1.5]),
    ("extinction-eta_v", lambda v: sim.leak_fraction_for_extinction(25.0, 1.0, v),
     "eta_v", "a number in [0, 1]", [*NOT_NUMBERS, -1.0, math.inf]),
]
CASES = [(entry, call, f"{name} must be {phrase}, got {value!r}", value)
         for entry, call, name, phrase, values in ENTRIES for value in values]


@pytest.mark.parametrize("call, message, value", [case[1:] for case in CASES],
                         ids=[f"{case[0]}-{case[3]!r}" for case in CASES])
def test_malformed_value_is_refused_with_one_line(monkeypatch, call, message, value):
    monkeypatch.setattr(tomo, "_lbfgsb", lambda *args, **kwargs: pytest.fail("fitted"))
    with pytest.raises(ValueError) as raised:
        call(value)
    assert str(raised.value) == message


def test_numpy_integers_are_accepted_and_kept_as_python_ints():
    result = tomo.mle_reconstruct(RECORDS, replicas=np.int64(2))
    assert result.uncertainties is not None
    assert result.uncertainties == tomo.mle_reconstruct(RECORDS, replicas=2).uncertainties
    spec = ChannelSpec("identity", {}, np.int64(1))
    config = ScenarioConfig(name="x", source="phi+", seed=np.int64(3),
                            bootstrap_replicas=np.int32(2), channel_chain=(spec,))
    kraus = optics.KrausChannel((np.eye(2),), arm=np.uint8(2))
    held = [spec.arm, config.seed, config.bootstrap_replicas, kraus.arm]
    assert held == [1, 3, 2, 2] and [type(v) for v in held] == [int] * 4
    assert json.dumps({"seed": config.seed}) == '{"seed": 3}'


@pytest.mark.parametrize("alice, bob", [(1.0, (0, 1)), ((0, 1), None),
                                        ((0, 1), (0.1, 0.2, 0.3))])
def test_a_party_that_is_not_a_pair_is_refused(alice, bob):
    with pytest.raises(ValueError, match="^each party needs exactly two analyzer angles$"):
        bell.ChshPlan(alice, bob)


def test_leak_behind_a_coupler_that_passes_no_v():
    # eta_v = 0 leaves every extinction reachable only by a pure V leak.
    for extinction in (25.0, 1e300, math.inf):
        assert sim.leak_fraction_for_extinction(extinction, 0.4, 0.0) == 1.0
    with pytest.raises(ValueError) as raised:
        sim.leak_fraction_for_extinction(25.0, 0.0, 0.0)
    assert str(raised.value) == "eta_h and eta_v are both 0: no photon is transmitted"
    assert sim.leak_fraction_for_extinction(math.inf, 1.0, 0.5) == 0.0


def rule_breaches(tree: ast.Module) -> list:
    """Where `tree` calls `operator.index`, names `numbers.Integral` or
    `numbers.Real`, or tests `isinstance(..., bool)`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                (node.value.id, node.attr) in {("operator", "index"),
                                               ("numbers", "Integral"), ("numbers", "Real")}):
            found.append(f"{node.value.id}.{node.attr}, line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("operator", "numbers"):
            names = {alias.name for alias in node.names}
            if names & {"index", "Integral", "Real", "*"}:
                found.append(f"from {node.module} import, line {node.lineno}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(kind, ast.Name) and kind.id == "bool" for kind in kinds):
                found.append(f"isinstance(..., bool), line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "scenario.py"}),
                         ids=lambda path: path.name)
def test_only_scenario_decides_what_a_number_is(path):
    assert rule_breaches(ast.parse(path.read_text(), str(path))) == []


def test_the_guard_sees_each_form():
    code = ("import numbers, operator\n"
            "from operator import index\n"
            "operator.index(v)\n"
            "isinstance(v, numbers.Integral)\n"
            "isinstance(v, numbers.Real)\n"
            "isinstance(v, (int, bool))\n")
    lines = sorted(int(breach.rpartition(" ")[2]) for breach in rule_breaches(ast.parse(code)))
    assert lines == [2, 3, 4, 5, 6]
