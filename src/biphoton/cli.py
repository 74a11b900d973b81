"""Scenario runner and reporting.

A scenario describes one experiment: a source state, an ordered chain of
polarization channels, a white-noise fraction (given directly or fitted to
a target concurrence), and a seeded measurement plan. Running it writes a
deterministic set of artifacts (density matrix JSON, count CSVs, fringe
CSVs, metrics summary and a manifest) suitable for plotting without
re-running.

Four named scenarios ship with the package as YAML files under
`biphoton/scenarios/`, modeling an entangled-photon source measured
directly, through a fiber taper, through a taper-nanowire junction with
anisotropic coupling, and through the same junction with the pump adjusted
to pre-compensate that anisotropy.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

# One BLAS thread unless the environment names a count: the fits multiply
# 4x4 matrices, and after the first L-BFGS-B call scipy's OpenBLAS keeps a
# worker thread spinning, which doubles CPU time and saves no wall time.
# OpenBLAS reads this when it loads, so it is set before numpy and scipy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from biphoton import bell, optics, sim, tomo  # noqa: E402
from biphoton.qstate import (DensityMatrix, PureState, bell_state, concurrence,  # noqa: E402
                             eigen_hermitian, schmidt_pure, to_density)

_FRINGE_GRID = np.deg2rad(np.arange(0.0, 180.0, 10.0))

#: Largest accepted mean_pairs; numpy's Poisson sampler refuses means above
#: about 9.2e18.
MAX_MEAN_PAIRS = 1e18

# libyaml's loader where PyYAML was built with it: the same safe constructor
# and resolver as yaml.SafeLoader, several times faster. Unlike the pure-Python
# scanner, libyaml also accepts tabs as separators ("seed:\t7").
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class ChannelSpec:
    """One channel-chain entry: kind, parameters and the arm it acts on."""

    kind: str
    params: dict = field(default_factory=dict)
    arm: int = 1


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    source: str | dict
    channel_chain: tuple = ()
    noise_p: float | None = None
    noise_fit_concurrence: float | None = None
    fidelity_target: str | dict = "phi+"
    singles_extinction: float | None = None
    tomography_plan: str = sim.PLAN_HVDR16
    mean_pairs: float = 10_000
    seed: int = 0
    outputs: str = "out"
    bootstrap_replicas: int = 200

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        for key in ("source", "fidelity_target"):
            if not isinstance(getattr(self, key), (str, dict)):
                raise ValueError(f"{key} must be a state name or a schmidt_theta "
                                 f"mapping, got {getattr(self, key)!r}")
        if not isinstance(self.outputs, (str, os.PathLike)):
            raise ValueError(f"outputs must be a directory path, got {self.outputs!r}")
        for key in ("mean_pairs", "noise_p", "noise_fit_concurrence",
                    "singles_extinction"):
            value = getattr(self, key)
            if (value is not None or key == "mean_pairs") and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or math.isnan(value)):
                raise ValueError(f"{key} must be a number, got {value!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"scenario needs a non-negative integer seed, "
                             f"got {self.seed!r}")
        replicas = self.bootstrap_replicas
        if type(replicas) is not int or replicas < 0 or replicas == 1:
            raise ValueError(f"bootstrap_replicas must be 0 or an integer of at "
                             f"least 2, got {replicas!r}")
        if self.noise_p is not None and not 0.0 <= self.noise_p <= 1.0:
            raise ValueError("noise_p must lie in [0, 1]")
        if self.noise_p is not None and self.noise_fit_concurrence is not None:
            raise ValueError("give noise_p or noise_fit_concurrence, not both")
        if not 0 < self.mean_pairs <= MAX_MEAN_PAIRS:
            raise ValueError(f"mean_pairs must be positive and at most "
                             f"{MAX_MEAN_PAIRS:g}, got {self.mean_pairs!r}")
        # An infinite extinction ratio is a polarizer that leaks nothing.
        if self.singles_extinction is not None and not self.singles_extinction > 1:
            raise ValueError(f"singles_extinction must exceed 1, "
                             f"got {self.singles_extinction!r}")
        if self.tomography_plan != sim.PLAN_HVDR16:
            raise ValueError(f"tomography_plan must be {sim.PLAN_HVDR16!r}, "
                             f"got {self.tomography_plan!r}")


@dataclass(frozen=True)
class EfficiencyBudget:
    """Product of per-stage efficiencies, with an optional solved unknown.

    When a quoted value for the unknown stage is supplied, the report keeps
    the recomputed and quoted numbers side by side instead of reconciling
    them.
    """

    stages: tuple
    total: float
    solved_unknown: float | None = None
    quoted_unknown: float | None = None

    @property
    def quoted_gap(self) -> float | None:
        if self.solved_unknown is None or self.quoted_unknown is None:
            return None
        return self.solved_unknown - self.quoted_unknown

    def to_json_dict(self) -> dict:
        payload = {
            "stages": [{"name": name, "efficiency": eff} for name, eff in self.stages],
            "total": self.total,
        }
        if self.solved_unknown is not None:
            payload["solved_unknown"] = {"recomputed": self.solved_unknown}
            if self.quoted_unknown is not None:
                payload["solved_unknown"]["quoted"] = self.quoted_unknown
                payload["solved_unknown"]["recomputed_minus_quoted"] = self.quoted_gap
        return payload


def efficiency_budget(stages, solve_total: float | None = None,
                      quoted_unknown: float | None = None) -> EfficiencyBudget:
    """Multiply stage efficiencies; optionally solve for one missing stage.

    `stages` holds (name, efficiency) pairs or bare efficiencies, each in
    (0, 1]. With `solve_total`, the unknown stage is target / product and
    is reported next to `quoted_unknown` when one is given.
    """
    named = []
    for i, entry in enumerate(stages):
        if isinstance(entry, (tuple, list)):
            name, eff = entry
        else:
            name, eff = f"stage{i + 1}", entry
        eff = float(eff)
        if not 0.0 < eff <= 1.0:
            raise ValueError(f"stage efficiency must lie in (0, 1], got {eff!r}")
        named.append((str(name), eff))
    if not named:
        raise ValueError("budget needs at least one stage")
    total = float(np.prod([eff for _, eff in named]))
    solved = None if solve_total is None else float(solve_total) / total
    return EfficiencyBudget(tuple(named), total, solved, quoted_unknown)


def fit_noise(target_concurrence: float, base_state: DensityMatrix) -> float:
    """White-noise fraction p with concurrence(depolarize(base, p)) = target.

    Bisection against the concurrence of the noisy state, to 1e-6 in
    concurrence. The target must not exceed the base state's concurrence.
    """
    if target_concurrence < 0.0:
        raise ValueError("target concurrence must be non-negative")
    base_c = concurrence(base_state)
    if target_concurrence > base_c + 1e-12:
        raise ValueError(f"target concurrence {target_concurrence} exceeds the "
                         f"base state's {base_c:.6f}")

    def miss(p: float) -> float:
        return concurrence(optics.depolarize(base_state, p)) - target_concurrence

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


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------

def _as_float(value, what: str) -> float:
    """`value` as a float (numeric strings included), or a ValueError
    naming `what`."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _pop_param(params: dict, kind: str, key: str,
               default: float | None = None) -> float:
    """Remove the numeric parameter `key` of a `kind` channel from `params`;
    without a `default` it is required."""
    if key not in params and default is None:
        raise ValueError(f"{kind} needs {key}")
    return _as_float(params.pop(key, default), f"{kind} {key}")


def _pop_coupler_etas(params: dict) -> tuple[float, float]:
    """Remove a coupler's eta_h and its ratio or eta_v from `params`;
    return (eta_h, eta_v)."""
    eta_h = _pop_param(params, "coupler", "eta_h")
    if "ratio" in params:
        ratio = _pop_param(params, "coupler", "ratio")
        if not ratio > 0.0:
            raise ValueError(f"coupler ratio must be positive, got {ratio!r}")
        return eta_h, eta_h / ratio
    if "eta_v" not in params:
        raise ValueError("coupler needs ratio or eta_v")
    return eta_h, _pop_param(params, "coupler", "eta_v")


def build_channel(spec: ChannelSpec) -> optics.KrausChannel:
    params = dict(spec.params)
    if spec.kind == "coupler":
        eta_h, eta_v = _pop_coupler_etas(params)
    elif spec.kind == "polarizer":
        angle = _pop_param(params, "polarizer", "angle")
    elif spec.kind == "waveplate":
        retardance = _pop_param(params, "waveplate", "retardance")
        angle = _pop_param(params, "waveplate", "angle", 0.0)
    elif spec.kind == "identity":
        pass
    else:
        raise ValueError(f"unknown channel kind {spec.kind!r}")
    if params:
        raise ValueError(f"unexpected {spec.kind} parameters: {sorted(params)}")
    if spec.kind == "coupler":
        return optics.anisotropic_coupler(eta_h, eta_v, spec.arm)
    if spec.kind == "polarizer":
        return optics.polarizer(angle, spec.arm)
    if spec.kind == "waveplate":
        return optics.KrausChannel.from_jones(optics.waveplate(retardance, angle), spec.arm)
    return optics.KrausChannel.identity(spec.arm)


def _coupler_etas(config: ScenarioConfig) -> tuple[float, float]:
    """(eta_h, eta_v) of the first coupler in the chain; (1, 1) without one."""
    for spec in config.channel_chain:
        if spec.kind == "coupler":
            return _pop_coupler_etas(dict(spec.params))
    return 1.0, 1.0


def _pure_state(spec, key: str) -> PureState:
    """The Bell state named by `spec`, or the Schmidt state of a
    {schmidt_theta: angle} mapping; `key` names the config entry."""
    if isinstance(spec, dict):
        if "schmidt_theta" not in spec:
            raise ValueError(f"{key} mapping needs schmidt_theta")
        return schmidt_pure(_as_float(spec["schmidt_theta"], f"{key} schmidt_theta"))
    return bell_state(spec)


def source_state(config: ScenarioConfig) -> PureState:
    if config.source == "compensated":
        eta_h, eta_v = _coupler_etas(config)
        if eta_h == eta_v == 1.0:
            raise ValueError("'compensated' source needs a coupler in the chain")
        return optics.compensated_source(eta_h, eta_v)
    return _pure_state(config.source, "source")


def target_state(config: ScenarioConfig) -> PureState:
    return _pure_state(config.fidelity_target, "fidelity_target")


@dataclass(frozen=True)
class ScenarioModel:
    """Resolved physical model of a scenario before any sampling."""

    state: DensityMatrix
    success_probability: float
    noise_p: float
    effective_pairs: float
    eta_h: float
    eta_v: float
    target: PureState


def resolve_model(config: ScenarioConfig) -> ScenarioModel:
    """Source through channels and noise; no randomness involved.

    The state is the post-selected (renormalized) channel output with the
    white-noise admixture applied; `effective_pairs` scales the configured
    pair rate by the channel survival probability, which is what the
    analyzers actually receive.
    """
    channels = [build_channel(spec) for spec in config.channel_chain]
    outcome = optics.apply_chain(to_density(source_state(config)), channels)
    if config.noise_fit_concurrence is not None:
        noise_p = fit_noise(config.noise_fit_concurrence, outcome.state)
    else:
        noise_p = config.noise_p or 0.0
    state = optics.depolarize(outcome.state, noise_p)
    eta_h, eta_v = _coupler_etas(config)
    return ScenarioModel(
        state=state,
        success_probability=outcome.success_probability,
        noise_p=noise_p,
        effective_pairs=config.mean_pairs * outcome.success_probability,
        eta_h=eta_h,
        eta_v=eta_v,
        target=target_state(config),
    )


def _singles_input(config: ScenarioConfig, model: ScenarioModel):
    if config.singles_extinction is None:
        return np.array([1.0, 0.0], dtype=complex)
    leak = sim.leak_fraction_for_extinction(config.singles_extinction,
                                            model.eta_h, model.eta_v)
    return sim.h_state_with_leak(leak)


def scenario_fringes(config: ScenarioConfig, model: ScenarioModel) -> dict:
    """The fringe set of one scenario: singles, transmission, two biphoton."""
    singles = sim.single_photon_fringe(_singles_input(config, model),
                                       model.eta_h, model.eta_v, _FRINGE_GRID)
    transmission = optics.transmission_fringe(model.eta_h, model.eta_v, _FRINGE_GRID)
    bi_h = sim.biphoton_fringe(model.state, "H", _FRINGE_GRID,
                               mean_pairs=model.effective_pairs,
                               seed=config.seed)
    bi_d = sim.biphoton_fringe(model.state, "D", _FRINGE_GRID,
                               mean_pairs=model.effective_pairs,
                               seed=config.seed + 1)
    return {"single_photon": singles, "transmission": transmission,
            "biphoton_h": bi_h, "biphoton_d": bi_d}


@dataclass(frozen=True)
class ScenarioReport:
    config: ScenarioConfig
    model: ScenarioModel
    tomography: tomo.TomographyResult
    chsh: bell.ChshResult
    chsh_model: bell.ChshResult
    fringes: dict
    artifacts: tuple


def _output_dir(config: ScenarioConfig) -> Path:
    outdir = Path(config.outputs)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {outdir}: {exc}") from exc
    return outdir


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path.name


def _write_fringes(outdir: Path, fringes: dict) -> tuple:
    """The four fringe CSVs, one `angle_rad,value` row per grid angle."""
    curves = {"fringe_single.csv": fringes["single_photon"].values,
              "fringe_transmission.csv": fringes["transmission"],
              "fringe_biphoton_h.csv": fringes["biphoton_h"].values,
              "fringe_biphoton_d.csv": fringes["biphoton_d"].values}
    for name, values in curves.items():
        rows = [f"{float(a)!r},{float(v)!r}" for a, v in zip(_FRINGE_GRID, values)]
        (outdir / name).write_text("\n".join(["angle_rad,value", *rows]) + "\n")
    return tuple(curves)


def _chsh(config: ScenarioConfig, model: ScenarioModel):
    """CHSH from sampled counts and from the model state."""
    records = bell.simulate_chsh_counts(model.state, bell.OPTIMAL_PLAN,
                                        model.effective_pairs, config.seed)
    return bell.chsh_from_counts(records), bell.chsh_S(model.state)


def _write_chsh(outdir: Path, result: bell.ChshResult, exact: bell.ChshResult) -> str:
    return _write_json(outdir / "chsh.json", {**result.to_json_dict(), "S_model": exact.S})


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Execute a scenario end to end and write its artifact files.

    Tomography counts, the CHSH counts and the fringe samples all derive
    from the scenario seed, so reruns are byte-identical.
    """
    model = resolve_model(config)
    plan = sim.tomography_plan(config.tomography_plan)
    records = sim.acquire_tomography(model.state, plan,
                                     model.effective_pairs, config.seed)
    result = tomo.mle_reconstruct(records, target=model.target,
                                  plan_id=config.tomography_plan)
    if config.bootstrap_replicas >= 2:
        errors = tomo.bootstrap_errors(records, config.bootstrap_replicas,
                                       config.seed, target=model.target)
        result = replace(result, uncertainties=errors)

    chsh_result, chsh_model = _chsh(config, model)
    fringes = scenario_fringes(config, model)
    outdir = _output_dir(config)

    _, evecs = eigen_hermitian(result.rho)
    top = evecs[0].amplitudes
    metrics_payload = {
        "scenario": config.name,
        "seed": config.seed,
        "noise_p": model.noise_p,
        "success_probability": model.success_probability,
        "effective_pairs": model.effective_pairs,
        "metrics": result.metrics.to_json_dict(),
        "uncertainties": result.uncertainties,
        "top_eigenvector": {"re": top.real.tolist(), "im": top.imag.tolist()},
        "chsh": {"S": chsh_result.S, "sigma_S": chsh_result.sigma_S,
                 "S_model": chsh_model.S},
        "fringe_visibilities": {
            "single_photon": fringes["single_photon"].visibility,
            "biphoton_h": fringes["biphoton_h"].visibility,
            "biphoton_d": fringes["biphoton_d"].visibility,
        },
        "likelihood": result.likelihood,
        "iterations": result.iterations,
        "converged": result.converged,
    }

    sim.records_to_csv(records, outdir / "counts.csv")
    written = ["counts.csv",
               _write_json(outdir / "density_matrix.json", result.rho.to_json_dict()),
               _write_json(outdir / "tomography.json", result.to_json_dict()),
               _write_json(outdir / "metrics.json", metrics_payload),
               _write_chsh(outdir, chsh_result, chsh_model),
               *_write_fringes(outdir, fringes)]
    manifest = {
        "scenario": config.name,
        "seed": config.seed,
        "noise_p": model.noise_p,
        "artifacts": sorted([*written, "manifest.json"]),
    }
    _write_json(outdir / "manifest.json", manifest)

    artifact_paths = tuple(sorted((outdir / name) for name in manifest["artifacts"]))

    metrics = result.metrics
    print(f"scenario {config.name} (seed {config.seed})")
    print(f"  noise_p              {model.noise_p:.6f}")
    print(f"  success probability  {model.success_probability:.6f}")
    print(f"  concurrence          {metrics.concurrence:.4f}")
    print(f"  fidelity (target)    {metrics.fidelity_target:.4f}")
    print(f"  purity               {metrics.purity:.4f}")
    print(f"  S (counts)           {chsh_result.S:.4f} +/- {chsh_result.sigma_S:.4f}")
    print(f"  S (model)            {chsh_model.S:.4f}")
    if not result.converged:
        print("  WARNING: reconstruction hit the iteration cap", file=sys.stderr)
    return ScenarioReport(config, model, result, chsh_result, chsh_model,
                          fringes, artifact_paths)


# ---------------------------------------------------------------------------
# Built-in scenarios and config files
# ---------------------------------------------------------------------------

BUILTIN_SCENARIOS = ("source", "taper", "nanowire", "nanowire-compensated")


def builtin_scenario(name: str) -> ScenarioConfig:
    """One of the four named experiments shipped with the package."""
    if name not in BUILTIN_SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"builtins: {sorted(BUILTIN_SCENARIOS)}")
    return load_scenario(resources.files("biphoton") / "scenarios" / f"{name}.yaml")


def load_scenario(path) -> ScenarioConfig:
    """Parse a YAML scenario file into a ScenarioConfig."""
    try:
        with open(path) as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: invalid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario file must hold a mapping")
    for key in ("name", "source", "seed"):
        if key not in raw:
            raise ValueError(f"{path}: scenario must specify a {key}")
    entries = raw.pop("channel_chain", None)
    if not isinstance(entries, (list, type(None))):
        raise ValueError(f"{path}: channel_chain must be a list of channels, "
                         f"got {entries!r}")
    chain = []
    for i, entry in enumerate(entries or []):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: channel_chain entry {i} must be a mapping")
        entry = dict(entry)
        if "kind" not in entry:
            raise ValueError(f"{path}: channel_chain entry {i} needs a kind")
        kind = entry.pop("kind")
        arm = entry.pop("arm", 1)
        if isinstance(arm, bool) or not isinstance(arm, numbers.Integral):
            raise ValueError(f"{path}: channel_chain entry {i} arm must be an "
                             f"integer, got {arm!r}")
        chain.append(ChannelSpec(kind, entry, arm))
    known = {f.name for f in ScenarioConfig.__dataclass_fields__.values()}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"{path}: unknown scenario keys {sorted(unknown)}")
    return ScenarioConfig(channel_chain=tuple(chain), **raw)


def _resolve_config(arg: str, seed: int | None, outputs: str | None) -> ScenarioConfig:
    config = builtin_scenario(arg) if arg in BUILTIN_SCENARIOS else load_scenario(arg)
    overrides = {"seed": seed, "outputs": outputs}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = _resolve_config(args.scenario, args.seed, args.outputs)
    run_scenario(config)
    print(f"  artifacts in         {config.outputs}")
    return 0


def _cmd_budget(args) -> int:
    stages = []
    for token in args.stages:
        if "=" in token:
            name, value = token.split("=", 1)
            stages.append((name, float(value)))
        else:
            stages.append(float(token))
    budget = efficiency_budget(stages, solve_total=args.solve_total,
                               quoted_unknown=args.quoted_unknown)
    print(json.dumps(budget.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_fringe(args) -> int:
    config = _resolve_config(args.scenario, args.seed, args.outputs)
    fringes = scenario_fringes(config, resolve_model(config))
    _write_fringes(_output_dir(config), fringes)
    print(f"single-photon visibility {fringes['single_photon'].visibility:.4f}")
    print(f"biphoton H visibility    {fringes['biphoton_h'].visibility:.4f}")
    print(f"biphoton D visibility    {fringes['biphoton_d'].visibility:.4f}")
    print(f"fringe CSVs in {config.outputs}")
    return 0


def _cmd_chsh(args) -> int:
    config = _resolve_config(args.scenario, args.seed, args.outputs)
    result, exact = _chsh(config, resolve_model(config))
    _write_chsh(_output_dir(config), result, exact)
    print(f"S = {result.S:.4f} +/- {result.sigma_S:.4f} (model {exact.S:.4f})")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so repeated `main` calls can share it."""
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Simulate entangled-photon transport through "
                    "polarization-anisotropic lossy channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario end to end")
    run_p.add_argument("scenario",
                       help="YAML config path or builtin name "
                            f"({', '.join(BUILTIN_SCENARIOS)})")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--outputs", default=None, help="override the output dir")
    run_p.set_defaults(func=_cmd_run)

    budget_p = sub.add_parser("budget", help="stage-efficiency budget")
    budget_p.add_argument("stages", nargs="+",
                          help="efficiencies, optionally name=value")
    budget_p.add_argument("--solve-total", type=float, default=None,
                          help="solve for one unknown stage given this total")
    budget_p.add_argument("--quoted-unknown", type=float, default=None,
                          help="externally quoted value of the unknown stage, "
                               "reported next to the recomputed one")
    budget_p.set_defaults(func=_cmd_budget)

    fringe_p = sub.add_parser("fringe", help="emit only the fringe CSVs")
    fringe_p.add_argument("scenario")
    fringe_p.add_argument("--seed", type=int, default=None)
    fringe_p.add_argument("--outputs", default=None)
    fringe_p.set_defaults(func=_cmd_fringe)

    chsh_p = sub.add_parser("chsh", help="emit only the CHSH result")
    chsh_p.add_argument("scenario")
    chsh_p.add_argument("--seed", type=int, default=None)
    chsh_p.add_argument("--outputs", default=None)
    chsh_p.set_defaults(func=_cmd_chsh)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
