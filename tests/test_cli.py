"""Tests for scenario configuration, the runner and the command line."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml

from biphoton import cli
from biphoton.cli import (ChannelSpec, ScenarioConfig, builtin_scenario,
                          efficiency_budget, fit_noise, load_scenario,
                          resolve_model, run_scenario)
from biphoton.qstate import (DensityMatrix, bell_state, concurrence,
                             fidelity_with_pure, to_density)
from biphoton.optics import anisotropic_coupler, apply_channel

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
    "mean_pairs-too-large"]


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
               "1.0e+300", "-1.0e+300", "-1", "0", "'0.5'", "'abc'", '""')


def scenario_mutants(count: int, seed: int = 2014):
    """`count` texts of the built-in scenarios, each with one to three
    lines dropped, duplicated, edited, given a new value or broken by a tab,
    drawn from a fixed-seed generator."""
    rng = random.Random(seed)
    texts = [(resources.files("biphoton") / "scenarios" / f"{name}.yaml").read_text()
             for name in cli.BUILTIN_SCENARIOS]
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

    def test_total_is_order_invariant(self):
        a = efficiency_budget([0.3, 0.9, 0.5]).total
        b = efficiency_budget([0.9, 0.5, 0.3]).total
        assert a == pytest.approx(b, abs=1e-12)


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
        noisy = cli.optics.depolarize(rho, 0.5)
        with pytest.raises(ValueError, match="exceeds"):
            fit_noise(0.99, noisy)

    def test_target_zero(self):
        rho = to_density(bell_state("phi+"))
        p = fit_noise(0.0, rho)
        from biphoton.optics import depolarize
        assert concurrence(depolarize(rho, p)) == pytest.approx(0.0, abs=1e-6)


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


class TestResolveModel:
    def test_compensated_source_is_noiselessly_maximal(self, tmp_path):
        config = small_config(tmp_path, source="compensated", noise_p=0.0)
        model = resolve_model(config)
        assert fidelity_with_pure(model.state, bell_state("phi+")) >= 1 - 1e-10

    def test_compensated_needs_coupler(self, tmp_path):
        config = small_config(tmp_path, source="compensated", channel_chain=())
        with pytest.raises(ValueError, match="coupler"):
            resolve_model(config)

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
        config = small_config(tmp_path,
                              channel_chain=(ChannelSpec("mirror", {}, 1),))
        with pytest.raises(ValueError, match="channel kind"):
            resolve_model(config)

    def test_unexpected_channel_params(self, tmp_path):
        spec = ChannelSpec("coupler", {"eta_h": 0.4, "eta_v": 0.3, "tilt": 1}, 1)
        config = small_config(tmp_path, channel_chain=(spec,))
        with pytest.raises(ValueError, match="unexpected"):
            resolve_model(config)


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


class TestCommandLine:
    def test_budget_command(self, capsys):
        code = cli.main(["budget", "0.401", "0.705", "0.702",
                         "--solve-total", "0.075", "--quoted-unknown", "0.403"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["solved_unknown"]["recomputed"] == pytest.approx(0.378, abs=5e-4)
        assert payload["solved_unknown"]["quoted"] == 0.403

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
        scenario = {"name": "x", "source": "phi+", "mean_pairs": 500, "seed": 3,
                    "outputs": str(tmp_path / "out"), "bootstrap_replicas": 0}
        scenario[key] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(scenario))
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
        monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
        assert_every_command_rejects(tmp_path, capsys, dropped, text, named)

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
    """repr of the YAML `text` loaded with `loader`, None if it does not parse."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return None


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestYamlLoaders:
    """Scenarios are parsed with libyaml's CSafeLoader, which shares
    SafeLoader's constructor and resolver; SafeLoader is the fallback."""

    def test_cli_parses_with_libyaml(self):
        assert cli._YAML_LOADER is yaml.CSafeLoader

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
        monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
        with pytest.raises(ValueError, match="invalid YAML"):
            load_scenario(path)


class TestStartUp:
    """The fits load only scipy's compiled L-BFGS-B core, never the
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

    @pytest.mark.parametrize("first", ["biphoton.tomo", "scipy.optimize"])
    def test_fits_and_minimize_share_one_core(self, first):
        probe = (f"import {first}\n"
                 "import sys\n"
                 "import numpy as np\n"
                 "from scipy.optimize import minimize\n"
                 "from biphoton import tomo\n"
                 "fit = minimize(lambda x: ((x - 1.0) ** 2).sum(), np.zeros(3),\n"
                 "               jac=lambda x: 2.0 * (x - 1.0), method='L-BFGS-B')\n"
                 "assert fit.success and np.allclose(fit.x, 1.0), fit\n"
                 "core = sys.modules['scipy.optimize._lbfgsb']\n"
                 "assert core.setulb is tomo.setulb\n"
                 "assert core is tomo.setulb.__self__\n")
        run_python(probe)
