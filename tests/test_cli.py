"""Tests for scenario configuration, the runner and the command line."""

import ast
import contextlib
import dataclasses
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml

from biphoton import cli, optics, qstate, scenario, sim, tomo
from biphoton.cli import (builtin_scenario, fit_noise, load_scenario, resolve_model,
                          run_scenario)
from biphoton.scenario import ChannelSpec, ScenarioConfig, efficiency_budget
from biphoton.qstate import (DensityMatrix, PureState, _depolarized_concurrence,
                             bell_state, concurrence, fidelity_with_pure,
                             random_density, to_density)
from biphoton.optics import anisotropic_coupler, apply_chain, apply_channel, depolarize

# The four experiments as measured: bare source, taper, taper-nanowire
# junction (40.3% H transmission, H:V 1.78) and pump-compensated junction.
NANOWIRE_CHAIN = (ChannelSpec("coupler", {"eta_h": 0.403, "ratio": 1.78}, 1),)
PAPER_PRESETS = {
    "source": dict(source="phi+", noise_fit_concurrence=0.924),
    "taper": dict(source="phi+", noise_fit_concurrence=0.852),
    "nanowire": dict(source="phi+", channel_chain=NANOWIRE_CHAIN,
                     noise_fit_concurrence=0.700,
                     fidelity_target={"schmidt_theta": math.atan2(0.594, 0.801)},
                     singles_extinction=25.0),
    "nanowire-compensated": dict(source="compensated", channel_chain=NANOWIRE_CHAIN,
                                 noise_fit_concurrence=0.824,
                                 singles_extinction=25.0),
}


def small_config(tmp_path, name="small", **overrides):
    base = dict(
        name=name,
        source="phi+",
        channel_chain=(ChannelSpec("coupler", {"eta_h": 0.403, "ratio": 1.78}, 1),),
        noise_p=0.1,
        mean_pairs=1500,
        seed=5,
        outputs=str(tmp_path / name),
        bootstrap_replicas=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def run_python(code, *args, env=None):
    """stdout of `code` run with `args` in a fresh interpreter that imports
    this checkout's biphoton; the run must succeed."""
    env = dict(os.environ if env is None else env)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout


#: Malformed scenario files as (key dropped from a valid file, text appended
#: to it, word the error must name).
MALFORMED_SCENARIOS = [
    (None, "channel_chain:\n  - {kind: coupler, ratio: 1.78}\n", "eta_h"),
    (None, "channel_chain:\n  - {eta_h: 0.4, ratio: 1.78}\n", "kind"),
    (None, "noise_p: [0.1\n", "bad.yaml"),
    (None, "channel_chain:\n  - {kind: polarizer}\n", "angle"),
    (None, "channel_chain:\n  - {kind: waveplate, angle: 0.3}\n", "retardance"),
    (None, "channel_chain:\n  - 5\n", "channel_chain"),
    ("name", "", "name"),
    ("source", "", "source"),
    (None, "channel_chain:\n  - {kind: polarizer, angle: [1]}\n", "angle"),
    ("mean_pairs", "mean_pairs: abc\n", "mean_pairs"),
    ("source", "source: [1]\n", "source"),
    (None, "channel_chain:\n  - {kind: coupler, eta_h: 0.4, ratio: x}\n", "ratio"),
    (None, "channel_chain:\n  - {kind: identity, arm: [1]}\n", "arm"),
    ("source", "source: {theta: 0.3}\n", "schmidt_theta"),
    (None, "noise_p: abc\n", "noise_p"),
    (None, "singles_extinction: [25]\n", "singles_extinction"),
    ("outputs", "outputs: [1]\n", "outputs"),
    (None, "channel_chain: 5\n", "channel_chain"),
    (None, "channel_chain: true\n", "channel_chain"),
    (None, "channel_chain:\n  - {kind: identity, arm: .inf}\n", "arm"),
    (None, "channel_chain:\n  - {kind: coupler, eta_h: 0.4, ratio: 0}\n", "ratio"),
    (None, "noise_fit_concurrence: .nan\n", "noise_fit_concurrence"),
    (None, "channel_chain:\n  - {kind: identity, arm: 1.9}\n", "arm"),
    ("name", "name: [1]\n", "name"),
    ("mean_pairs", "mean_pairs: .inf\n", "mean_pairs"),
    (None, "singles_extinction: -5\n", "singles_extinction"),
    (None, "tomography_plan: xyz\n", "tomography_plan"),
    ("mean_pairs", "mean_pairs: 1.0e+300\n", "mean_pairs"),
    (None, "channel_chain:\n  - {kind: polarizer, angle: .inf}\n", "polarizer angle"),
    (None, "channel_chain:\n  - {kind: waveplate, retardance: .nan}\n",
     "waveplate retardance"),
    (None, "channel_chain:\n  - {kind: waveplate, retardance: 1.5, angle: -.inf}\n",
     "waveplate angle"),
    ("bootstrap_replicas", f"bootstrap_replicas: {scenario.MAX_BOOTSTRAP_REPLICAS + 1}\n",
     "bootstrap_replicas"),
    ("outputs", "outputs: ''\n", "outputs"),
    ("mean_pairs", f"mean_pairs: {'9' * 400}\n", "mean_pairs"),
    (None, f"channel_chain:\n  - {{kind: coupler, eta_h: {'9' * 400}, ratio: 2}}\n",
     "coupler eta_h"),
    ("source", f"source: {{schmidt_theta: {'9' * 400}}}\n", "source schmidt_theta"),
    (None, "channel_chain:\n  - {kind: polarizer, angle: true}\n", "polarizer angle"),
    (None, "channel_chain:\n  - {kind: waveplate, retardance: '1.5'}\n",
     "waveplate retardance"),
    ("source", "source: {schmidt_theta: true}\n", "source schmidt_theta"),
    ("source", "source: {schmidt_theta: 0.3, phase: 1}\n", "phase"),
    (None, "singles_extinction: 25\n"
           "channel_chain:\n  - {kind: coupler, eta_h: 0.4, eta_v: 0}\n",
     "singles_extinction"),
    (None, "singles_extinction: .inf\n"
           "channel_chain:\n  - {kind: coupler, eta_h: 0.4, eta_v: 0}\n",
     "singles_extinction inf cannot be reached"),
    (None, "1: 2\nwavelength: 808\n", "unknown scenario keys"),
    (None, "channel_chain:\n  - {kind: identity, 1: 2, tilt: 3}\n", "unexpected"),
    (None, "seed: 9\n", "seed"),
    (None, "channel_chain:\n  - {kind: polarizer, angle: 0.1, angle: 0.2}\n", "angle"),
    ("mean_pairs", f"mean_pairs: {'9' * 5000}\n", "bad.yaml"),
    (None, "noise_fit_concurrence: -0.5\n", "noise_fit_concurrence"),
    (None, "noise_fit_concurrence: 1.5\n", "noise_fit_concurrence"),
    ("source", "source: xyz\n", "source"),
    (None, "fidelity_target: {schmidt_theta: 9}\n", "fidelity_target schmidt_theta"),
]
MALFORMED_IDS = [
    "coupler-without-eta_h", "channel-without-kind", "yaml-syntax",
    "polarizer-without-angle", "waveplate-without-retardance",
    "channel-not-a-mapping", "without-name", "without-source",
    "polarizer-angle-a-list", "mean_pairs-not-a-number", "source-a-list",
    "coupler-ratio-not-a-number", "arm-a-list",
    "source-mapping-without-schmidt_theta", "noise_p-not-a-number",
    "singles_extinction-a-list", "outputs-a-list", "channel_chain-a-number",
    "channel_chain-a-bool", "arm-infinite", "coupler-ratio-zero",
    "noise_fit_concurrence-nan", "arm-not-an-integer", "name-a-list",
    "mean_pairs-infinite", "singles_extinction-below-1", "tomography_plan-unknown",
    "mean_pairs-too-large", "polarizer-angle-infinite", "waveplate-retardance-nan",
    "waveplate-angle-minus-infinite", "bootstrap_replicas-too-large", "outputs-empty",
    "mean_pairs-beyond-float-range", "coupler-eta_h-beyond-float-range",
    "schmidt_theta-beyond-float-range", "polarizer-angle-a-bool",
    "waveplate-retardance-a-quoted-number", "schmidt_theta-a-bool",
    "schmidt-mapping-with-another-key", "singles_extinction-behind-eta_v-zero",
    "singles_extinction-infinite-behind-eta_v-zero",
    "unknown-keys-of-two-types", "channel-parameters-of-two-types", "seed-repeated",
    "polarizer-angle-repeated", "mean_pairs-beyond-the-int-digit-limit",
    "noise_fit_concurrence-negative", "noise_fit_concurrence-above-1",
    "source-unknown-bell-label", "fidelity_target-theta-out-of-range"]


#: The malformed cases whose fault shows only in the resolved model: a
#: singles extinction that the channel chain puts out of reach.
PHYSICS_FAULTS = [(None, f"singles_extinction: {extinction}\n"
                         "channel_chain:\n  - {kind: coupler, eta_h: 0.4, eta_v: 0}\n")
                  for extinction in ("25", ".inf")]


def malformed_scenario(dropped, text, outputs) -> str:
    lines = ["name: x", "source: phi+", "seed: 3", "mean_pairs: 500",
             f"outputs: {outputs}", "bootstrap_replicas: 0"]
    return "".join(f"{line}\n" for line in lines
                   if line.split(":")[0] != dropped) + text


def assert_every_command_rejects(tmp_path, capsys, dropped, text, named):
    path = tmp_path / "bad.yaml"
    path.write_text(malformed_scenario(dropped, text, tmp_path / "out"))
    # Every command rejects the same files, whichever keys it reads.
    for command in ("run", "fringe", "chsh"):
        assert cli.main([command, str(path)]) == 2, command
        # tmp_path holds the test id, which may spell the key itself.
        err = capsys.readouterr().err.replace(str(tmp_path), "")
        assert err.startswith("error:") and named in err, command
        assert err.count("\n") == 1, command
        assert not (tmp_path / "out").exists()


#: Values the fuzz writes over a key's value; 1e300 is a string in YAML 1.1.
FUZZ_VALUES = (".inf", "-.inf", ".nan", "[1]", "{a: 1}", "true", "null", "1e300",
               "1.0e+300", "-1.0e+300", "-1", "0", "'0.5'", "'abc'", '""', "9" * 400)

#: Scenario texts the fuzz mutates besides the built-ins, which hold only
#: couplers: every other channel kind and a schmidt_theta mapping.
FUZZ_SEED_TEXTS = (
    "name: optics\nsource:\n  schmidt_theta: 0.6\nchannel_chain:\n"
    "  - kind: waveplate\n    retardance: 3.14\n    angle: 0.4\n    arm: 2\n"
    "  - kind: identity\n    arm: 1\nnoise_p: 0.05\nsingles_extinction: 25.0\n"
    "mean_pairs: 2000\nseed: 3\noutputs: out/optics\n",
    "name: polarizer\nsource: phi-\nchannel_chain:\n"
    "  - kind: polarizer\n    angle: 0.7\n    arm: 1\n"
    "  - kind: waveplate\n    retardance: 1.57\nfidelity_target:\n"
    "  schmidt_theta: 0.3\nnoise_p: 0.1\nmean_pairs: 2000\nseed: 5\n"
    "outputs: out/polarizer\n",
)


def scenario_mutants(count: int, seed: int = 2014):
    """`count` texts of the built-in scenarios and `FUZZ_SEED_TEXTS`, each
    with one to three lines dropped, duplicated, edited, given a new value or
    broken by a tab, drawn from a fixed-seed generator."""
    rng = random.Random(seed)
    texts = [(resources.files("biphoton") / "scenarios" / f"{name}.yaml").read_text()
             for name in cli.BUILTIN_SCENARIOS] + list(FUZZ_SEED_TEXTS)
    for _ in range(count):
        lines = rng.choice(texts).splitlines()
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            line = lines[i]
            cut = rng.randrange(len(line) + 1)
            mutation = rng.choice(("drop", "duplicate", "edit", "value", "tab"))
            if mutation == "drop" and len(lines) > 1:
                del lines[i]
            elif mutation == "duplicate":
                lines.insert(i, line)
            elif mutation == "edit":
                char = rng.choice("0123456789.-e:[]{}#, x")
                lines[i] = line[:cut] + char + line[cut + 1:]
            elif mutation == "value" and ":" in line:
                lines[i] = f"{line.split(':')[0]}: {rng.choice(FUZZ_VALUES)}"
            elif mutation == "tab":
                lines[i] = line[:cut] + "\t" + line[cut:]
        yield "".join(f"{line}\n" for line in lines)


class TestEfficiencyBudget:
    def test_product_of_measured_stages(self):
        budget = efficiency_budget([("objective", 0.401), ("confocal", 0.705),
                                    ("fiber", 0.702)])
        assert budget.total == pytest.approx(0.401 * 0.705 * 0.702, abs=1e-12)
        assert budget.total == pytest.approx(0.1985, abs=1e-4)

    def test_solve_for_unknown_stage(self):
        budget = efficiency_budget([0.401, 0.705, 0.702], solve_total=0.075,
                                   quoted_unknown=0.403)
        assert budget.solved_unknown == pytest.approx(0.378, abs=5e-4)
        assert budget.quoted_unknown == 0.403
        assert budget.quoted_gap == pytest.approx(budget.solved_unknown - 0.403,
                                                  abs=1e-12)
        payload = budget.to_json_dict()
        assert payload["solved_unknown"]["quoted"] == 0.403
        assert payload["solved_unknown"]["recomputed"] != 0.403

    def test_single_perfect_stage(self):
        assert efficiency_budget([1.0]).total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_positive_efficiency(self):
        with pytest.raises(ValueError):
            efficiency_budget([0.5, 0.0])

    @pytest.mark.parametrize("kwargs", [
        {"solve_total": math.nan}, {"solve_total": 0.0},
        {"solve_total": 0.6}, {"solve_total": 0.3, "quoted_unknown": math.inf},
        {"quoted_unknown": 0.3}],
        ids=["total-nan", "total-zero", "solved-stage-above-1", "quoted-inf",
             "quoted-without-total"])
    def test_rejects_bad_solve_inputs(self, kwargs):
        with pytest.raises(ValueError):
            efficiency_budget([0.5], **kwargs)

    def test_solved_stage_of_exactly_1(self):
        assert efficiency_budget([0.5], solve_total=0.5).solved_unknown == 1.0

    def test_total_is_order_invariant(self):
        a = efficiency_budget([0.3, 0.9, 0.5]).total
        b = efficiency_budget([0.9, 0.5, 0.3]).total
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("stages, kwargs, what", [
        ([True], {}, "stage efficiency"),
        (["0.5"], {}, "stage efficiency"),
        ([("fiber", "0.5")], {}, "stage efficiency"),
        ([1.0], {"solve_total": True}, "--solve-total"),
        ([1.0], {"solve_total": "0.5"}, "--solve-total"),
        ([1.0], {"solve_total": 0.5, "quoted_unknown": True}, "--quoted-unknown"),
    ], ids=["stage-bool", "stage-str", "named-stage-str", "total-bool", "total-str",
            "quoted-bool"])
    def test_rejects_bools_and_strings(self, stages, kwargs, what):
        with pytest.raises(ValueError, match=rf"^{what} must be a number in \(0, 1\], got "):
            efficiency_budget(stages, **kwargs)


def reference_fit_noise(target_concurrence: float, base_state: DensityMatrix) -> float:
    """The noise-fit bisection with every step on the exact concurrence of
    the depolarized state, frozen as the bit-identity oracle of `fit_noise`."""
    if target_concurrence < 0.0:
        raise ValueError("target concurrence must be non-negative")
    base_c = concurrence(base_state)
    if target_concurrence > base_c + 1e-12:
        raise ValueError(f"target concurrence {target_concurrence} exceeds the "
                         f"base state's {base_c:.6f}")

    def miss(p: float) -> float:
        return concurrence(depolarize(base_state, p)) - target_concurrence

    lo, hi = 0.0, 1.0
    if miss(lo) <= 0.0:
        return 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        gap = miss(mid)
        if abs(gap) < 1e-6:
            return mid
        if gap > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fit_outcome(fit, target: float, base: DensityMatrix) -> str:
    """The fitted p as `float.hex`, or the text of the ValueError raised."""
    try:
        return fit(target, base).hex()
    except ValueError as exc:
        return f"error: {exc}"


def channel_output(config: ScenarioConfig) -> DensityMatrix:
    """The noiseless post-selected state that `resolve_model` fits noise to."""
    channels = [spec.channel() for spec in config.channel_chain]
    return apply_chain(to_density(config.source_state()), channels).state


def sweep_configs(count: int, seed: int = 1313):
    """`count` scenarios in the benchmark's model-sweep mix, cycling through
    its 12 combinations: phi+, compensated or Schmidt source; noise fitted
    or given; singles extinction or none. Coupler and source parameters and
    the fitted target are drawn as that sweep draws them."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        ratio, eta_h = rng.uniform(1.0, 3.0), rng.uniform(0.2, 1.0)
        chain = (ChannelSpec("coupler", {"eta_h": eta_h, "ratio": ratio},
                             int(rng.integers(1, 3))),)
        theta = rng.uniform(0.15, math.pi / 2 - 0.15)
        source = ("phi+", "compensated", {"schmidt_theta": theta})[i % 3]
        config = ScenarioConfig(name=f"sweep-{i}", source=source, channel_chain=chain,
                                seed=i, singles_extinction=(
                                    rng.uniform(5.0, 50.0) if i // 6 % 2 else None))
        target = concurrence(channel_output(config)) * rng.uniform(0.2, 0.98)
        if i // 3 % 2:
            yield dataclasses.replace(config, noise_p=rng.uniform(0.0, 0.5)), target
        else:
            yield dataclasses.replace(config, noise_fit_concurrence=target), target


def nearly_product_state(rng, eps: float) -> DensityMatrix:
    """A random product pure state with a random admixture of size `eps`."""
    kets = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    amps = np.kron(kets[0], kets[1]) + eps * np.concatenate(kets[1:])
    return to_density(PureState(amps / np.linalg.norm(amps)))


def fit_bases(seed: int, count: int):
    """(base, targets) pairs: seeded Ginibre states of ranks 1-4 in turn, then
    nearly product pure states, each with targets 0, its concurrence C and
    u*C; every tenth also with a target just above C and a negative one."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i < count * 9 // 10:
            base = random_density(rng, 1 + i % 4)
        else:
            base = nearly_product_state(rng, 10.0 ** rng.uniform(-9.0, -2.0))
        c = concurrence(base)
        targets = [0.0, c, c * rng.uniform()]
        if i % 10 == 0:
            targets += [c + 1e-9, -rng.uniform()]
        yield base, targets


class TestFitNoise:
    def test_target_equal_to_base_needs_no_noise(self):
        rho = to_density(bell_state("phi+"))
        assert fit_noise(concurrence(rho), rho) == pytest.approx(0.0, abs=1e-9)

    def test_fit_to_0_700_on_channel_output(self):
        rho = to_density(bell_state("phi+"))
        out = apply_channel(rho, anisotropic_coupler(0.403, 0.403 / 1.78)).state
        p = fit_noise(0.700, out)
        from biphoton.optics import depolarize
        assert concurrence(depolarize(out, p)) == pytest.approx(0.700, abs=1e-6)

    def test_unreachable_target_rejected(self):
        rho = to_density(bell_state("phi+"))
        noisy = depolarize(rho, 0.5)
        with pytest.raises(ValueError, match="exceeds"):
            fit_noise(0.99, noisy)

    @pytest.mark.parametrize("target", ["a", True, None])
    def test_target_that_is_not_a_number_is_named(self, target):
        with pytest.raises(ValueError, match="^target concurrence must be a number, got "):
            fit_noise(target, to_density(bell_state("phi+")))

    def test_nan_target_rejected(self):
        # NaN compares false with everything, so it passed both range checks
        # and the bisection returned a tiny p.
        rho = to_density(bell_state("phi+"))
        with pytest.raises(ValueError, match="^target concurrence must be a number, got nan$"):
            fit_noise(float("nan"), rho)

    def test_target_zero(self):
        rho = to_density(bell_state("phi+"))
        p = fit_noise(0.0, rho)
        from biphoton.optics import depolarize
        assert concurrence(depolarize(rho, p)) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("name", cli.BUILTIN_SCENARIOS)
    def test_builtin_fits_match_the_exact_bisection(self, name):
        config = builtin_scenario(name)
        want = reference_fit_noise(config.noise_fit_concurrence, channel_output(config))
        assert resolve_model(config).noise_p.hex() == want.hex()

    def test_sweep_fits_match_the_exact_bisection(self):
        for config, target in sweep_configs(96):
            base = channel_output(config)
            # The sweep's target, then band edges: targets that put the
            # exact gap at the first mid 1e-6 either side of zero, and one
            # just below the base state's concurrence.
            first = concurrence(depolarize(base, 0.5))
            for t in (target, first + 1e-6, first - 1e-6, concurrence(base) - 1e-7):
                assert fit_outcome(fit_noise, t, base) == fit_outcome(
                    reference_fit_noise, t, base), (config, t)
            if config.noise_fit_concurrence is not None:
                assert resolve_model(config).noise_p.hex() == fit_outcome(
                    reference_fit_noise, target, base)

    def test_sweep_fits_evaluate_few_steps(self, monkeypatch):
        # The convexity bounds decide all but a few steps of each fit; the
        # bisection alone evaluates about 18.
        counts = []

        def counted(mat):
            at = _depolarized_concurrence(mat)

            def step(p):
                counts[-1] += 1
                return at(p)
            return step

        monkeypatch.setattr(qstate, "_depolarized_concurrence", counted)
        for config, target in sweep_configs(96):
            counts.append(0)
            fit_noise(target, channel_output(config))
        assert sum(counts) / len(counts) <= 5.0
        assert max(counts) <= 8

    def test_eigenbasis_concurrence_is_convex_and_non_increasing(self):
        # What the bounds rest on, within the error they allow each value:
        # along the white-noise line the concurrence never rises, and lies
        # below its chords, also between close points.
        allowance = cli._FIT_MARGIN
        rng = np.random.default_rng(53)
        bases = [base for base, _ in fit_bases(51, 100)]
        bases += [channel_output(config) for config, _ in sweep_configs(48)]
        grid = np.linspace(0.0, 1.0, 33)
        for base in bases:
            at = _depolarized_concurrence(base.matrix)
            values = [at(p) for p in grid]
            assert all(b <= a + allowance for a, b in zip(values, values[1:])), base.matrix
            for _ in range(8):
                half = 0.5 * 10.0 ** rng.uniform(-8.0, -1.0)
                mid = rng.uniform(half, 1.0 - half)
                chord = 0.5 * (at(mid - half) + at(mid + half))
                assert at(mid) <= chord + allowance, (base.matrix, mid, half)

    @pytest.mark.parametrize("seed", [21, 22, 23, 24])
    def test_random_fits_match_the_exact_bisection(self, seed):
        # 4 x 500 bases, each at targets 0, C and u*C (and a few that raise).
        for base, targets in fit_bases(seed, 500):
            for target in targets:
                assert fit_outcome(fit_noise, target, base) == fit_outcome(
                    reference_fit_noise, target, base), (base.matrix, target)

    def test_close_call_at_the_first_mid_is_decided_exactly(self, monkeypatch):
        # A base whose eigenbasis and exact concurrences at the first mid,
        # p = 0.5, differ in their last bits, and a target that puts the
        # exact gap just below the 1e-6 stop and the eigenbasis gap at or
        # above it (or the other way round): only the exact one may decide.
        rng = np.random.default_rng(17)
        while True:
            base = random_density(rng, 2)
            exact = concurrence(depolarize(base, 0.5))
            cheap = _depolarized_concurrence(base.matrix)(0.5)
            if exact > 0.05 and cheap != exact:
                break
        candidates = [exact - 1e-6]
        for _ in range(64):
            candidates[:0] = [np.nextafter(candidates[0], -1.0)]
            candidates.append(np.nextafter(candidates[-1], 2.0))
        target = next(float(t) for t in candidates
                      if (abs(exact - t) < 1e-6) != (abs(cheap - t) < 1e-6))
        assert abs(abs(exact - target) - 1e-6) < 1e-12
        want = reference_fit_noise(target, base)
        assert fit_noise(target, base).hex() == want.hex()
        # The eigenbasis gap alone takes the other branch at p = 0.5.
        monkeypatch.setattr(cli, "_FIT_MARGIN", -1.0)
        assert fit_noise(target, base) != want

    def test_every_step_exact_keeps_the_bits(self, monkeypatch):
        cases = [(c.noise_fit_concurrence, channel_output(c))
                 for c in map(builtin_scenario, cli.BUILTIN_SCENARIOS)]
        cases += [(t, b) for b, targets in fit_bases(31, 100) for t in targets]
        want = [fit_outcome(fit_noise, t, b) for t, b in cases]
        exact_steps = []

        def counted(rho, p):
            exact_steps.append(p)
            return depolarize(rho, p)

        monkeypatch.setattr(cli, "_FIT_MARGIN", 1.0)
        monkeypatch.setattr(optics, "depolarize", counted)
        assert [fit_outcome(fit_noise, t, b) for t, b in cases] == want
        # One exact evaluation at every mid.
        assert len(exact_steps) > 5 * len(cases)

    @pytest.mark.parametrize("offset", [0.9e-9, -0.9e-9])
    def test_eigenbasis_error_below_the_margin_keeps_the_bits(self, monkeypatch,
                                                              offset):
        # Any eigenbasis concurrence within the margin of the exact one gives
        # the same fit: steps it cannot decide go to the exact concurrence.
        def shifted(mat):
            at = _depolarized_concurrence(mat)
            return lambda p: at(p) + offset

        monkeypatch.setattr(qstate, "_depolarized_concurrence", shifted)
        for base, targets in fit_bases(41, 200):
            # Exact gaps at the first mid just inside and outside the stop.
            first = concurrence(depolarize(base, 0.5))
            targets += [first + sign * (1e-6 + shift) for sign in (1.0, -1.0)
                        for shift in (5e-10, -5e-10)]
            for target in targets:
                assert fit_outcome(fit_noise, target, base) == fit_outcome(
                    reference_fit_noise, target, base), (base.matrix, target)


class TestScenarioConfig:
    def test_builtin_names(self):
        for name in cli.BUILTIN_SCENARIOS:
            config = builtin_scenario(name)
            assert config.name == name
            assert config.seed >= 0

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            builtin_scenario("vacuum")

    def test_packaged_presets_match_paper_values(self):
        for name, preset in PAPER_PRESETS.items():
            expected = ScenarioConfig(name=name, seed=7, outputs=f"out/{name}",
                                      **preset)
            assert builtin_scenario(name) == expected
        packaged = resources.files("biphoton") / "scenarios"
        stems = sorted(p.name[:-len(".yaml")] for p in packaged.iterdir()
                       if p.name.endswith(".yaml"))
        assert stems == sorted(cli.BUILTIN_SCENARIOS)
        for stem in stems:
            assert load_scenario(packaged / f"{stem}.yaml").name == stem

    def test_seed_required_in_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nsource: phi+\n")
        with pytest.raises(ValueError, match="seed"):
            load_scenario(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nsource: phi+\nseed: 1\nwavelength: 808\n")
        with pytest.raises(ValueError, match="unknown scenario keys"):
            load_scenario(path)

    def test_noise_options_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ScenarioConfig(name="x", source="phi+", noise_p=0.1,
                           noise_fit_concurrence=0.8, seed=1)

    def test_noise_p_range(self):
        with pytest.raises(ValueError, match="noise_p"):
            ScenarioConfig(name="x", source="phi+", noise_p=1.5, seed=1)

    @pytest.mark.parametrize("chain", [
        ({"kind": "coupler", "eta_h": 0.5, "eta_v": 0.4},), "ab", None,
        [ChannelSpec("coupler", {"eta_h": 0.5, "eta_v": 0.4}, 1)],
    ], ids=["mapping-entry", "string", "none", "list"])
    def test_channel_chain_must_be_a_tuple_of_specs(self, chain):
        # Refused when the config is built: `coupler_etas` and
        # `resolve_model` read each entry as a ChannelSpec, and a list would
        # leave a mutable chain in a frozen config.
        with pytest.raises(ValueError, match="^channel_chain must be a tuple of ChannelSpec"):
            ScenarioConfig(name="x", source="phi+", seed=1, channel_chain=chain)

    def test_checked_bell_states_are_shared_read_only(self):
        # The config's check and its model share each built Bell state.
        config = ScenarioConfig(name="x", source="phi+", fidelity_target="psi-", seed=1)
        target = scenario._pure_state("psi-", "fidelity_target")
        assert resolve_model(config).target is target
        assert config.source_state() is scenario._pure_state("phi+", "source")
        assert not target.amplitudes.flags.writeable

    def test_bootstrap_replicas_bound_is_accepted(self, tmp_path):
        # Parsing only: a run at the bound fits for minutes.
        path = tmp_path / "most.yaml"
        path.write_text(yaml.safe_dump({
            "name": "most", "source": "phi+", "seed": 3,
            "bootstrap_replicas": scenario.MAX_BOOTSTRAP_REPLICAS}))
        config = load_scenario(path)
        assert config.bootstrap_replicas == scenario.MAX_BOOTSTRAP_REPLICAS


class TestResolveModel:
    def test_compensated_source_is_noiselessly_maximal(self, tmp_path):
        config = small_config(tmp_path, source="compensated", noise_p=0.0)
        model = resolve_model(config)
        assert fidelity_with_pure(model.state, bell_state("phi+")) >= 1 - 1e-10

    def test_compensated_needs_coupler(self, tmp_path):
        # Refused when the config is built, before any model is resolved.
        with pytest.raises(ValueError, match="^'compensated' source needs a coupler in the chain$"):
            small_config(tmp_path, source="compensated", channel_chain=())
        with pytest.raises(ValueError, match="needs a coupler"):
            small_config(tmp_path, source="compensated",
                         channel_chain=(ChannelSpec("waveplate", {"retardance": 1.0}, 1),))

    def test_compensated_behind_lossless_coupler_is_phi_plus(self, tmp_path):
        chain = (ChannelSpec("coupler", {"eta_h": 1, "eta_v": 1}, 1),)
        config = small_config(tmp_path, source="compensated", channel_chain=chain,
                              noise_p=0.0)
        assert config.coupler_etas == (1.0, 1.0)
        model = resolve_model(config)
        assert fidelity_with_pure(model.state, bell_state("phi+")) >= 1 - 1e-10

    def test_noise_fit_resolves_concurrence(self, tmp_path):
        config = small_config(tmp_path, noise_p=None, noise_fit_concurrence=0.7)
        model = resolve_model(config)
        assert concurrence(model.state) == pytest.approx(0.7, abs=1e-6)
        assert 0.0 < model.noise_p < 1.0

    def test_effective_pairs_track_success(self, tmp_path):
        config = small_config(tmp_path)
        model = resolve_model(config)
        assert model.effective_pairs == pytest.approx(
            config.mean_pairs * model.success_probability, rel=1e-12)

    def test_invalid_channel_kind(self, tmp_path):
        with pytest.raises(ValueError, match="channel kind"):
            config = small_config(tmp_path,
                                  channel_chain=(ChannelSpec("mirror", {}, 1),))
            resolve_model(config)

    def test_bool_arm_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="arm"):
            config = small_config(tmp_path,
                                  channel_chain=(ChannelSpec("identity", {}, True),))
            resolve_model(config)

    def test_unexpected_channel_params(self, tmp_path):
        with pytest.raises(ValueError, match="unexpected"):
            spec = ChannelSpec("coupler", {"eta_h": 0.4, "eta_v": 0.3, "tilt": 1}, 1)
            config = small_config(tmp_path, channel_chain=(spec,))
            resolve_model(config)


class TestChannelSpec:
    @pytest.mark.parametrize("kind, params, parsed", [
        ("coupler", {"eta_h": 0.403, "ratio": 1.78}, {"eta_h": 0.403, "eta_v": 0.403 / 1.78}),
        ("coupler", {"eta_h": 1, "eta_v": 0}, {"eta_h": 1.0, "eta_v": 0.0}),
        ("polarizer", {"angle": 0.7}, {"angle": 0.7}),
        ("waveplate", {"retardance": 3}, {"retardance": 3.0, "angle": 0.0}),
        ("identity", {}, {})])
    def test_a_built_spec_holds_its_parsed_params_and_parses_to_itself(
            self, kind, params, parsed):
        spec = ChannelSpec(kind, params, 2)
        assert spec.params == parsed
        assert [type(v) for v in spec.params.values()] == [float] * len(parsed)
        assert dataclasses.replace(spec) == spec
        assert ChannelSpec(kind, spec.params, 2).params == parsed

    @pytest.mark.parametrize("eta_h, ratio", [(1.5, 2.0), (0.9, 0.5), (-0.1, 1.0)])
    def test_coupler_efficiencies_outside_0_1_rejected(self, eta_h, ratio):
        with pytest.raises(ValueError,
                           match=r"^coupler eta_[hv] must be a number in \[0, 1\], got -?\d"):
            ChannelSpec("coupler", {"eta_h": eta_h, "ratio": ratio})

    def test_resolving_a_model_parses_no_channel(self, monkeypatch):
        config = builtin_scenario("nanowire-compensated")
        want = resolve_model(config)

        number = scenario._number

        def no_parse(value, what, *args, **kwargs):
            # The noise fit reads its target, which is not a channel parameter.
            if what != "target concurrence":
                raise AssertionError("a channel parameter was parsed again")
            return number(value, what, *args, **kwargs)

        monkeypatch.setattr(scenario, "_number", no_parse)
        got = resolve_model(config)
        assert (got.state.matrix.tobytes(), got.noise_p, got.eta_v) == (
            want.state.matrix.tobytes(), want.noise_p, want.eta_v)


EXPECTED_ARTIFACTS = sorted([
    "density_matrix.json", "tomography.json", "chsh.json", "counts.csv",
    "fringe_single.csv", "fringe_transmission.csv", "fringe_biphoton_h.csv",
    "fringe_biphoton_d.csv", "metrics.json", "manifest.json",
])


class TestRunScenario:
    def test_writes_all_artifacts(self, tmp_path):
        config = small_config(tmp_path, bootstrap_replicas=5,
                              singles_extinction=25.0)
        report = run_scenario(config)
        outdir = Path(config.outputs)
        assert sorted(p.name for p in outdir.iterdir()) == EXPECTED_ARTIFACTS
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["seed"] == config.seed
        assert manifest["artifacts"] == EXPECTED_ARTIFACTS
        assert report.tomography.uncertainties is not None

    def test_emitted_density_matrix_reingests(self, tmp_path):
        config = small_config(tmp_path)
        run_scenario(config)
        payload = json.loads((Path(config.outputs) / "density_matrix.json").read_text())
        DensityMatrix.from_json_dict(payload)  # invariants enforced on load

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = small_config(tmp_path, name="a", bootstrap_replicas=3)
        config_b = dataclasses.replace(config_a, outputs=str(tmp_path / "b"))
        run_scenario(config_a)
        run_scenario(config_b)
        for name in EXPECTED_ARTIFACTS:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_seed_changes_counts(self, tmp_path):
        report_a = run_scenario(small_config(tmp_path, name="s1", seed=1))
        report_b = run_scenario(small_config(tmp_path, name="s2", seed=2))
        assert report_a.chsh.S != report_b.chsh.S

    def test_runs_share_one_plan(self, tmp_path, capsys):
        # The second run of a process finds the plan's arrays built.
        assert cli.main(["run", "source", "--outputs", str(tmp_path / "source")]) == 0
        misses = tomo._plan_arrays.cache_info().misses
        assert cli.main(["run", "taper", "--outputs", str(tmp_path / "taper")]) == 0
        assert tomo._plan_arrays.cache_info().misses == misses
        # The plan's settings are the objects its count files read back as.
        plan = sim.tomography_plan()
        for name in ("source", "taper"):
            records = sim.records_from_csv(tmp_path / name / "counts.csv")
            assert len(records) == len(plan)
            assert all(rec.setting is setting for rec, setting in zip(records, plan))


class TestCommandLine:
    def test_budget_command(self, capsys):
        code = cli.main(["budget", "0.401", "0.705", "0.702",
                         "--solve-total", "0.075", "--quoted-unknown", "0.403"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solved_unknown"]["recomputed"] == pytest.approx(0.378, abs=5e-4)
        assert payload["solved_unknown"]["quoted"] == 0.403

    def test_budget_total_is_bit_equal_to_numpy_s_product(self):
        # math.prod and np.prod both multiply the stages left to right.
        rng = random.Random(14)
        for length in range(1, 65):
            for _ in range(20):
                stages = [1.0 - rng.random() for _ in range(length)]
                assert (efficiency_budget(stages).total.hex()
                        == float(np.prod(stages)).hex()), stages

    def test_budget_named_stages(self, capsys):
        code = cli.main(["budget", "objective=0.401", "confocal=0.705"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stages"][0]["name"] == "objective"

    def test_run_yaml_scenario(self, tmp_path, capsys):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.05,
            "mean_pairs": 800, "seed": 3, "outputs": str(tmp_path / "out"),
            "bootstrap_replicas": 0,
        }))
        code = cli.main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "concurrence" in out
        assert (tmp_path / "out" / "metrics.json").exists()

    def test_run_seed_override(self, tmp_path):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.05,
            "mean_pairs": 500, "seed": 3, "outputs": str(tmp_path / "out"),
            "bootstrap_replicas": 0,
        }))
        assert cli.main(["run", str(path), "--seed", "9"]) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["seed"] == 9

    def test_fringe_command(self, tmp_path, capsys):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.0,
            "mean_pairs": 500, "seed": 3, "outputs": str(tmp_path / "out"),
        }))
        assert cli.main(["fringe", str(path)]) == 0
        assert (tmp_path / "out" / "fringe_biphoton_h.csv").exists()
        assert "visibility" in capsys.readouterr().out

    def test_fringe_grid_is_built_once_and_read_only(self):
        grid = cli._fringe_grid()
        assert cli._fringe_grid() is grid and not grid.flags.writeable
        assert grid.tobytes() == np.deg2rad(np.arange(0.0, 180.0, 10.0)).tobytes()

    def test_chsh_command(self, tmp_path, capsys):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.0,
            "mean_pairs": 500, "seed": 3, "outputs": str(tmp_path / "out"),
        }))
        assert cli.main(["chsh", str(path)]) == 0
        payload = json.loads((tmp_path / "out" / "chsh.json").read_text())
        assert "S" in payload and "sigma_S" in payload
        assert "S =" in capsys.readouterr().out

    def test_errors_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: x\nsource: phi+\n")  # no seed
        assert cli.main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("seed", 2.7), ("seed", True),
        ("bootstrap_replicas", -3), ("bootstrap_replicas", 1),
        ("bootstrap_replicas", 2.5)])
    def test_invalid_config_value_exits_2(self, tmp_path, capsys, key, value):
        fields = {"name": "x", "source": "phi+", "mean_pairs": 500, "seed": 3,
                  "outputs": str(tmp_path / "out"), "bootstrap_replicas": 0}
        fields[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(fields))
        assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dropped, text, named", MALFORMED_SCENARIOS,
                             ids=MALFORMED_IDS)
    def test_malformed_scenario_exits_2(self, tmp_path, capsys, dropped, text,
                                        named):
        assert_every_command_rejects(tmp_path, capsys, dropped, text, named)

    @pytest.mark.parametrize("dropped, text, named", MALFORMED_SCENARIOS,
                             ids=MALFORMED_IDS)
    def test_malformed_scenario_exits_2_with_pure_python_yaml(
            self, monkeypatch, tmp_path, capsys, dropped, text, named):
        # The loader of a PyYAML built without libyaml.
        monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.SafeLoader)
        assert_every_command_rejects(tmp_path, capsys, dropped, text, named)

    @pytest.mark.parametrize("dropped, text, named", MALFORMED_SCENARIOS,
                             ids=MALFORMED_IDS)
    def test_malformed_scenario_fails_to_load(self, tmp_path, dropped, text, named):
        # Every fault but one that depends on the resolved physics is found
        # when the file is loaded, before any model is built.
        path = tmp_path / "bad.yaml"
        path.write_text(malformed_scenario(dropped, text, tmp_path / "out"))
        if (dropped, text) in PHYSICS_FAULTS:
            config = load_scenario(path)
            with pytest.raises(ValueError, match=named):
                resolve_model(config)
            return
        with pytest.raises(ValueError) as raised:
            load_scenario(path)
        assert named in str(raised.value).replace(str(tmp_path), "")

    @pytest.mark.parametrize("loader", [scenario._YAML_LOADER, yaml.SafeLoader],
                             ids=["default-loader", "pure-python-loader"])
    @pytest.mark.parametrize("text", ["seed: 9\n", "noise_p: [0.1\n"],
                             ids=["repeated-key", "yaml-syntax"])
    def test_yaml_error_names_the_file_once(self, monkeypatch, tmp_path, capsys,
                                            loader, text):
        # PyYAML's marks name the file as well; the line names it once.
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        path = tmp_path / "bad.yaml"
        path.write_text(malformed_scenario(None, text, tmp_path / "out"))
        assert cli.main(["chsh", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid YAML: ") and "line" in err
        assert err.count(str(path)) == 1 and err.count("\n") == 1

    def test_repeated_main_calls_are_independent(self, tmp_path):
        # The parser is built once per process; one call's options must not
        # carry over to the next.
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.05, "mean_pairs": 500,
            "seed": 3, "outputs": str(tmp_path / "out")}))
        written = []
        for extra in ([], ["--seed", "5"], []):
            assert cli.main(["chsh", str(path), *extra]) == 0
            written.append((tmp_path / "out" / "chsh.json").read_bytes())
        assert written[1] != written[0]
        assert written[2] == written[0]

    @pytest.mark.parametrize("command", ["run", "fringe", "chsh"])
    def test_rerun_into_the_same_outputs_is_byte_identical(self, tmp_path, command):
        # Each artifact is rewritten in place: a rerun over another seed's
        # files, of other lengths, must leave exactly a fresh run's bytes.
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.05, "mean_pairs": 500,
            "seed": 3, "outputs": str(tmp_path / "out"), "bootstrap_replicas": 0}))

        def files(outdir):
            return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

        for seed, outputs in (("3", "fresh"), ("3", "out"), ("5", "out"), ("3", "out")):
            assert cli.main([command, str(path), "--seed", seed,
                             "--outputs", str(tmp_path / outputs)]) == 0
            if seed == "5":
                assert files(tmp_path / "out") != files(tmp_path / "fresh")
        assert files(tmp_path / "out") == files(tmp_path / "fresh")

    @pytest.mark.parametrize("command, artifact", [
        ("run", "counts.csv"), ("fringe", "fringe_biphoton_h.csv"),
        ("chsh", "chsh.json")])
    @pytest.mark.parametrize("blocker", ["read-only-file", "directory"])
    def test_unwritable_artifact_exits_2(self, tmp_path, capsys, command, artifact,
                                         blocker):
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.05, "mean_pairs": 500,
            "seed": 3, "outputs": str(tmp_path / "out"), "bootstrap_replicas": 0}))
        target = tmp_path / "out" / artifact
        if blocker == "directory":
            target.mkdir(parents=True)
        else:
            assert cli.main([command, str(path)]) == 0
            target.chmod(0o444)
            if os.access(target, os.W_OK):
                pytest.skip("this user writes read-only files (root)")
        before = target.read_bytes() if target.is_file() else None
        capsys.readouterr()
        assert cli.main([command, str(path), "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert artifact in err
        assert (target.read_bytes() if target.is_file() else None) == before

    def test_failed_run_leaves_no_manifest(self, tmp_path, capsys):
        # A run that fails part-way has rewritten some artifacts and not
        # others; the earlier run's manifest may not stay to name that set.
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_p": 0.05, "mean_pairs": 500,
            "seed": 3, "outputs": str(tmp_path / "out"), "bootstrap_replicas": 0}))
        outdir = tmp_path / "out"
        assert cli.main(["run", str(path)]) == 0
        assert json.loads((outdir / "manifest.json").read_text())["seed"] == 3
        (outdir / "chsh.json").unlink()
        (outdir / "chsh.json").mkdir()
        capsys.readouterr()
        assert cli.main(["run", str(path), "--seed", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (outdir / "manifest.json").exists()
        (outdir / "chsh.json").rmdir()
        assert cli.main(["run", str(path), "--seed", "5"]) == 0
        assert json.loads((outdir / "manifest.json").read_text())["seed"] == 5

    @pytest.mark.parametrize("command", ["run", "fringe", "chsh"])
    def test_empty_outputs_flag_exits_2(self, tmp_path, monkeypatch, capsys, command):
        # An empty directory name would put the artifacts in the working
        # directory.
        monkeypatch.chdir(tmp_path)
        assert cli.main([command, "source", "--outputs", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: outputs must be a directory path, got ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_chsh_seed_beyond_32_bits(self, tmp_path):
        assert cli.main(["chsh", "source", "--seed", str(2**32),
                         "--outputs", str(tmp_path)]) == 0
        assert (tmp_path / "chsh.json").is_file()

    def test_module_entry_point_runs_without_warnings(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "biphoton.cli",
             "--help"], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0 and done.stderr == ""
        assert "usage: biphoton" in done.stdout

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_cli_pins_one_blas_thread_unless_set(self, preset, expected):
        # Importing the package loads no numpy, so the CLI's setting is in
        # place before OpenBLAS reads it; a value already set is kept.
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        probe = ("import os, sys, biphoton\n"
                 "assert 'numpy' not in sys.modules\n"
                 "import biphoton.cli\n"
                 "print(os.environ['OPENBLAS_NUM_THREADS'])\n")
        assert run_python(probe, env=env) == f"{expected}\n"

    def test_infinite_extinction_is_accepted(self, tmp_path):
        # An infinite extinction ratio is a polarizer that leaks nothing.
        path = tmp_path / "ideal.yaml"
        path.write_text(yaml.safe_dump({
            "name": "ideal", "source": "phi+", "noise_p": 0.0,
            "singles_extinction": math.inf, "mean_pairs": 500, "seed": 3,
            "outputs": str(tmp_path / "out"), "bootstrap_replicas": 0}))
        for command in ("run", "fringe", "chsh"):
            assert cli.main([command, str(path)]) == 0, command

    def test_invalid_budget_exits_nonzero(self, capsys):
        assert cli.main(["budget", "0.0"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["0.5", "--solve-total", "nan"], "--solve-total"),
        (["0.5", "--solve-total", "inf"], "--solve-total"),
        (["0.5", "--solve-total", "-1"], "--solve-total"),
        (["0.5", "--solve-total", "0.9"], "--solve-total"),
        (["0.5", "--solve-total", "0.4", "--quoted-unknown", "nan"], "--quoted-unknown"),
        (["0.5", "--solve-total", "0.4", "--quoted-unknown", "1.5"], "--quoted-unknown"),
        (["0.5", "--quoted-unknown", "0.3"], "--quoted-unknown"),
    ], ids=["total-nan", "total-inf", "total-negative", "solved-stage-above-1",
            "quoted-nan", "quoted-above-1", "quoted-without-total"])
    def test_bad_budget_flag_exits_2(self, capsys, argv, flag):
        assert cli.main(["budget", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert flag in captured.err


class TestScenarioFuzz:
    @pytest.mark.filterwarnings("error")
    def test_mutated_scenarios_exit_0_or_2_with_one_error_line(self, tmp_path,
                                                                capsys):
        path = tmp_path / "mutant.yaml"
        outputs = str(tmp_path / "out")
        for text in scenario_mutants(400):
            path.write_text(text)
            for command in ("chsh", "fringe"):
                code = cli.main([command, str(path), "--outputs", outputs])
                err = capsys.readouterr().err
                assert (code, err) == (0, "") or (
                    code == 2 and err.startswith("error:") and err.count("\n") == 1
                ), f"{command} exit {code}, stderr {err!r} on\n{text}"


def load_or_none(text: str, loader):
    """repr of the YAML `text` loaded with `loader`, None if it does not parse
    (a ValueError: an int past Python's digit limit)."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError):
        return None


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestYamlLoaders:
    """Scenarios are parsed with libyaml's CSafeLoader, which shares
    SafeLoader's constructor and resolver; SafeLoader is the fallback."""

    def test_cli_parses_with_libyaml(self):
        loader = scenario._strict_loader(scenario._YAML_LOADER)
        assert loader.__bases__ == (yaml.CSafeLoader,)

    def test_loaders_never_return_different_objects(self, tmp_path):
        packaged = resources.files("biphoton") / "scenarios"
        texts = [(packaged / f"{name}.yaml").read_text()
                 for name in cli.BUILTIN_SCENARIOS]
        texts += [malformed_scenario(dropped, text, tmp_path / "out")
                  for dropped, text, _ in MALFORMED_SCENARIOS]
        texts += list(scenario_mutants(400))
        for text in texts:
            pure = load_or_none(text, yaml.SafeLoader)
            fast = load_or_none(text, yaml.CSafeLoader)
            # One loader may reject what the other reads (tabs, stray BOMs).
            assert pure is None or fast is None or pure == fast, text

    @pytest.mark.parametrize("text, parsed", [("seed:\t7\n", {"seed": 7}),
                                              ("a: 1\t# c\n", {"a": 1})],
                             ids=["before-value", "before-comment"])
    def test_tab_separates_only_under_libyaml(self, text, parsed):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == parsed
        with pytest.raises(yaml.scanner.ScannerError, match="cannot start any token"):
            yaml.load(text, Loader=yaml.SafeLoader)

    def test_scenario_with_tab_loads_only_under_libyaml(self, tmp_path, monkeypatch):
        path = tmp_path / "tab.yaml"
        path.write_text("name: x\nsource: phi+\nseed:\t7\n")
        assert load_scenario(path).seed == 7
        monkeypatch.setattr(scenario, "_YAML_LOADER", yaml.SafeLoader)
        with pytest.raises(ValueError, match="invalid YAML"):
            load_scenario(path)


class TestStartUp:
    """Importing the command line and building its parser loads no numpy,
    PyYAML, json or dataclasses, and each command loads only what it runs.
    The fits load only scipy's compiled L-BFGS-B core, never the
    `scipy.optimize` package, and share that core with `scipy.optimize`
    when it is imported as well."""

    @pytest.mark.parametrize("command", [
        "cli.build_parser()",
        "assert cli.main(['chsh', 'nanowire', '--outputs', sys.argv[1]]) == 0",
    ], ids=["parser", "chsh"])
    def test_cli_leaves_scipy_optimize_unloaded(self, tmp_path, command):
        probe = ("import sys\n"
                 "from biphoton import cli\n"
                 f"{command}\n"
                 "assert 'scipy.optimize' not in sys.modules\n")
        run_python(probe, str(tmp_path / "out"))

    @pytest.mark.parametrize("argv, code", [
        (None, None), (["--help"], 0), (["run", "source", "--no-such-flag"], 2),
        (["budget", "0.9", "0.8", "--solve-total", "0.5"], 0),
    ], ids=["parser", "help", "bad-flag", "budget"])
    def test_parser_help_errors_and_budget_load_no_numpy(self, argv, code):
        # No PyYAML either; only budget builds a value object and prints JSON.
        probe = ("import ast, sys\n"
                 "from biphoton import cli\n"
                 "argv = ast.literal_eval(sys.argv[1])\n"
                 "cli.build_parser()\n"
                 "try:\n"
                 "    code = None if argv is None else cli.main(argv)\n"
                 "except SystemExit as exc:\n"
                 "    code = exc.code\n"
                 "print(repr([code, sorted(set(sys.argv[2:]) & set(sys.modules))]))\n")
        modules = ["numpy", "yaml", *(f"biphoton.{m}" for m in
                                      ("qstate", "optics", "sim", "bell", "tomo"))]
        if argv is None or argv[0] != "budget":
            modules += ["json", "dataclasses", "biphoton.scenario"]
        out = run_python(probe, repr(argv), *modules)
        assert ast.literal_eval(out.splitlines()[-1]) == [code, []]

    @pytest.mark.parametrize("command", ["chsh", "fringe"])
    def test_chsh_and_fringe_load_no_tomography(self, tmp_path, command):
        probe = ("import sys\n"
                 "from biphoton import cli\n"
                 f"assert cli.main(['{command}', 'nanowire', '--outputs', sys.argv[1]]) == 0\n"
                 "print(sorted({'biphoton.tomo', 'scipy', 'scipy.optimize._lbfgsb'}"
                 " & set(sys.modules)))\n")
        assert run_python(probe, str(tmp_path / "out")).splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", ["run", "chsh", "fringe", "budget"])
    def test_commands_run_in_an_interpreter_without_numpy(self, tmp_path, command):
        # As the `biphoton` script runs them: nothing imported beforehand, so
        # every name a command uses must resolve from its own imports.
        path = tmp_path / "tiny.yaml"
        path.write_text(yaml.safe_dump({
            "name": "tiny", "source": "phi+", "noise_fit_concurrence": 0.8,
            "singles_extinction": 25.0, "mean_pairs": 500, "seed": 3,
            "outputs": str(tmp_path / "out"), "bootstrap_replicas": 2}))
        argv = (["budget", "0.9", "0.8"] if command == "budget"
                else [command, str(path)])
        probe = ("import sys\n"
                 "from biphoton.cli import main\n"
                 "assert 'numpy' not in sys.modules\n"
                 "assert main(sys.argv[1:]) == 0\n")
        run_python(probe, *argv)
        if command != "budget":
            assert any((tmp_path / "out").iterdir())

    def test_package_loads_each_submodule_on_first_use(self):
        probe = ("import sys, types\n"
                 "import biphoton\n"
                 "names = ['bell', 'cli', 'optics', 'qstate', 'scenario', 'sim', 'tomo']\n"
                 "assert sorted(biphoton.__all__) == names\n"
                 "assert not [n for n in names if f'biphoton.{n}' in sys.modules]\n"
                 "for name in names:\n"
                 "    module = getattr(biphoton, name)\n"
                 "    assert isinstance(module, types.ModuleType), name\n"
                 "    assert sys.modules[f'biphoton.{name}'] is module, name\n")
        run_python(probe)

    @pytest.mark.parametrize("first", ["biphoton.tomo", "scipy.optimize"])
    def test_fits_and_minimize_share_one_core(self, first):
        # Loaded by the fits first, the core is loaded again by
        # `scipy.optimize`, so that the package binds it: a single-phase
        # extension loaded again is a new module holding the same functions.
        probe = (f"import {first}\n"
                 "import sys\n"
                 "import numpy as np\n"
                 "from scipy.optimize import minimize\n"
                 "from biphoton import tomo\n"
                 "fit = minimize(lambda x: ((x - 1.0) ** 2).sum(), np.zeros(3),\n"
                 "               jac=lambda x: 2.0 * (x - 1.0), method='L-BFGS-B')\n"
                 "assert fit.success and np.allclose(fit.x, 1.0), fit\n"
                 "core = sys.modules['scipy.optimize._lbfgsb']\n"
                 "assert core.setulb is tomo.setulb\n")
        if first == "scipy.optimize":
            probe += "assert core is tomo.setulb.__self__\n"
        run_python(probe)

    def test_scipy_optimize_imported_after_the_fits_binds_the_core(self):
        # The fits load the core without the package; the package imported
        # later must still hold it as `_lbfgsb`, where `mock.patch` finds it.
        probe = ("import biphoton.tomo, scipy.optimize\n"
                 "from unittest import mock\n"
                 "assert scipy.optimize._lbfgsb.setulb is biphoton.tomo.setulb\n"
                 "with mock.patch('scipy.optimize._lbfgsb.setulb') as fake:\n"
                 "    assert scipy.optimize._lbfgsb.setulb is fake\n")
        run_python(probe)


def parallel_scenario(tmp_path, monkeypatch, replicas=2, cpus=(0, 1)):
    """A small scenario file whose `run` splits the rows of its fit (the
    main fit's and `replicas` bootstrap replicas') over one process per CPU
    in `cpus`: a split floor of one row a process lets every row have a
    process of its own."""
    monkeypatch.setattr(tomo, "_JOB_REPLICAS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
    path = tmp_path / "parallel.yaml"
    path.write_text(yaml.safe_dump({
        "name": "parallel", "source": "phi+", "noise_p": 0.05, "mean_pairs": 500,
        "seed": 3, "outputs": str(tmp_path / "out"), "bootstrap_replicas": replicas}))
    return path


@contextlib.contextmanager
def pipes_closed():
    """Asserts that the block leaves no file descriptor open and lets none
    be closed by the garbage collector (a ResourceWarning)."""
    fds = len(os.listdir("/dev/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert len(os.listdir("/dev/fd")) == fds


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelBootstrap:
    """`run` splits the bootstrap replicas over forked workers, one per
    usable CPU; a worker's failure is the run's, and no worker, zombie or
    pipe outlives the run."""

    @pytest.mark.parametrize("cpus, forks", [
        ((0,), 0), (None, 0), ((0, 1), 1), ((0, 1, 2, 3), 3)],
        ids=["one-cpu", "no-sched_getaffinity", "two-cpus", "four-cpus"])
    def test_run_forks_one_worker_per_extra_cpu_and_writes_the_same_bytes(
            self, tmp_path, monkeypatch, cpus, forks):
        path = parallel_scenario(tmp_path, monkeypatch, replicas=5, cpus=(0,))
        assert cli.main(["run", str(path), "--outputs", str(tmp_path / "serial")]) == 0
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))
        calls = []
        fork = os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        with pipes_closed():
            assert cli.main(["run", str(path)]) == 0
        assert len(calls) == forks
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == EXPECTED_ARTIFACTS
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes()), name
        assert_no_child_left()

    @pytest.mark.parametrize("fault, why", [
        ("raises", "failed: ValueError('no fit for this row')"),
        ("dies", f"failed: killed by signal {int(signal.SIGKILL)}")])
    def test_failed_worker_exits_2_and_leaves_no_process(self, tmp_path, monkeypatch,
                                                         capsys, fault, why):
        parent = os.getpid()
        objective = tomo.objective_and_gradient

        def failing(*args, **kwargs):
            if os.getpid() != parent:  # in the worker of block 1
                if fault == "raises":
                    raise ValueError("no fit for this row")
                os.kill(os.getpid(), signal.SIGKILL)
            return objective(*args, **kwargs)

        monkeypatch.setattr(tomo, "objective_and_gradient", failing)
        path = parallel_scenario(tmp_path, monkeypatch)
        capsys.readouterr()
        with pipes_closed():
            assert cli.main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bootstrap worker for rows 1-2 ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.rstrip().endswith(why)
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert_no_child_left()

    @staticmethod
    def stall_workers(monkeypatch):
        """Every bootstrap worker sleeps for 10 minutes."""
        parent = os.getpid()
        objective = tomo.objective_and_gradient

        def stalled(*args, **kwargs):
            if os.getpid() != parent:
                time.sleep(600)
            return objective(*args, **kwargs)

        monkeypatch.setattr(tomo, "objective_and_gradient", stalled)

    def test_interrupt_right_after_a_fork_kills_and_reaps_that_worker(self, tmp_path,
                                                                      monkeypatch):
        # SIGINT reaches the parent the moment its first fork returns, before
        # it can have put the child on record.
        self.stall_workers(monkeypatch)
        path = parallel_scenario(tmp_path, monkeypatch)
        fork = os.fork

        def interrupted():
            pid = fork()
            if pid:
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        monkeypatch.setattr(os, "fork", interrupted)
        with pipes_closed(), pytest.raises(KeyboardInterrupt):
            cli.main(["run", str(path)])
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert_no_child_left()

    def test_interrupt_while_waiting_kills_and_reaps_every_worker(self, tmp_path,
                                                                  monkeypatch):
        self.stall_workers(monkeypatch)

        def interrupt(*_):
            raise KeyboardInterrupt

        path = parallel_scenario(tmp_path, monkeypatch, replicas=4, cpus=(0, 1, 2, 3))
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            # The parent's own block is the main fit's row; by then it waits
            # on the three stalled workers.
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pipes_closed(), pytest.raises(KeyboardInterrupt):
                cli.main(["run", str(path)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 60.0
        assert_no_child_left()


class TestThreadedHost:
    """A fork copies only the calling thread, so `run` in a process that
    runs another thread fits every replica itself."""

    def test_run_beside_a_live_thread_forks_nothing_and_writes_the_serial_bytes(
            self, tmp_path, monkeypatch, second_thread):
        # One usable CPU: the serial run forks nothing, thread or not.
        path = parallel_scenario(tmp_path, monkeypatch, replicas=5, cpus=(0,))
        assert cli.main(["run", str(path), "--outputs", str(tmp_path / "serial")]) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a thread"))
        assert cli.main(["run", str(path)]) == 0
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert names == EXPECTED_ARTIFACTS
        for name in names:
            assert ((tmp_path / "out" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes()), name
