"""The `biphoton` command line and the scenario runner.

A scenario describes one experiment: a source state, an ordered chain of
polarization channels, a white-noise fraction (given directly or fitted to
a target concurrence), and a seeded measurement plan; `biphoton.scenario`
says what each entry means. Running it writes a deterministic set of
artifacts (density matrix JSON, count CSVs, fringe CSVs, metrics summary
and a manifest) suitable for plotting without re-running.

Four named scenarios ship with the package as YAML files under
`biphoton/scenarios/`, modeling an entangled-photon source measured
directly, through a fiber taper, through a taper-nanowire junction with
anisotropic coupling, and through the same junction with the pump adjusted
to pre-compensate that anisotropy.

Importing this module and building the parser loads `argparse` and little
else. `json`, `dataclasses`, PyYAML, the scenario value types and the
budget arithmetic (`biphoton.scenario`), numpy and the physics modules
(`qstate`, `optics`, `sim`, `bell`, `tomo`) load inside the functions that
use them. So `--help` and argument errors load none of them, `budget`
loads no PyYAML or numpy, and `chsh` and `fringe` never load `tomo` or
scipy.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING

# One BLAS thread unless the environment names a count: the fits multiply
# 4x4 matrices, and after the first L-BFGS-B call scipy's OpenBLAS keeps a
# worker thread spinning, which doubles CPU time and saves no wall time.
# OpenBLAS reads this when it loads, so it is set before numpy and scipy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

if TYPE_CHECKING:
    from biphoton import bell
    from biphoton.qstate import DensityMatrix
    from biphoton.scenario import ScenarioConfig, ScenarioModel, ScenarioReport

#: `fit_noise` steps whose eigenbasis gap lies this close to the 1e-6 stop
#: are decided by the exact concurrence; the two gaps differ by about 1e-14
#: at most. The convexity bounds that decide steps without an evaluation
#: allow each value this much error and clear the stop by as much again.
_FIT_MARGIN = 1e-9


@functools.cache
def _fringe_grid():
    """The analyzer angles of every fringe, 0 to 170 degrees in steps of
    10, in radians; built once per process, read-only."""
    import numpy as np
    from biphoton.qstate import _freeze
    return _freeze(np.deg2rad(np.arange(0.0, 180.0, 10.0)))


def fit_noise(target_concurrence: float, base_state: DensityMatrix) -> float:
    """White-noise fraction p with concurrence(depolarize(base, p)) = target.

    Bisection against the concurrence of the noisy state, to 1e-6 in
    concurrence. The target must be a number from 0 to the base state's
    concurrence.

    White noise moves the state along a line, and concurrence is convex
    (Wootters 1998), so the gap is convex and non-increasing in p. The
    values known so far (the exact concurrence at p = 0, zero at p = 1 and
    each evaluated step) bound the gap at the next mid, and a step whose
    bounds put it more than `_FIT_MARGIN` clear of the 1e-6 stop takes its
    branch unevaluated: a typical fit evaluates about 2 of its 18 or so
    steps. Those use the base state's eigenbasis (one `eigh` per fit, then
    one 4x4 svd a step), and the exact concurrence of the depolarized state
    decides a step whose gap lies within the margin of the stop. The bounds
    allow every value the margin as error, so the result is bit-identical
    to a bisection on the exact concurrence.
    """
    from biphoton import optics, qstate, scenario
    target_concurrence = scenario._number(target_concurrence, "target concurrence")
    if target_concurrence < 0.0:
        raise ValueError("target concurrence must be non-negative")
    base_c = qstate.concurrence(base_state)
    if target_concurrence > base_c + 1e-12:
        raise ValueError(f"target concurrence {target_concurrence} exceeds the "
                         f"base state's {base_c:.6f}")

    def miss(p: float) -> float:
        return qstate.concurrence(optics.depolarize(base_state, p)) - target_concurrence

    # depolarize(base, 0.0) has the base state's concurrence, bit for bit.
    if base_c - target_concurrence <= 0.0:
        return 0.0
    cheap = qstate._depolarized_concurrence(base_state.matrix)
    # The (p, gap) points left and right of [lo, hi], innermost last.
    left, right = [(0.0, base_c - target_concurrence)], [(1.0, -target_concurrence)]
    lo_to, inside_from, inside_to, hi_from = _decided_spans(left, right)
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid < lo_to:
            lo = mid
            continue
        if mid > hi_from:
            hi = mid
            continue
        if inside_from < mid < inside_to:
            return mid
        gap = cheap(mid) - target_concurrence
        if abs(abs(gap) - 1e-6) <= _FIT_MARGIN:
            gap = miss(mid)
        if abs(gap) < 1e-6:
            return mid
        if gap > 0.0:
            lo = mid
            left.append((mid, gap))
        else:
            hi = mid
            right.append((mid, gap))
        lo_to, inside_from, inside_to, hi_from = _decided_spans(left, right)
    return 0.5 * (lo + hi)


def _decided_spans(left, right) -> tuple:
    """Where `fit_noise`'s bounds decide a step, from its (p, gap) points.

    Every later mid lies between the innermost points, left[-1] and
    right[-1]. There the gap lies below their chord, and above the nearest
    right gap and the secant lines of the next segments out, extended
    inwards; each bound allows every value `_FIT_MARGIN` of error. Returns
    (lo_to, inside_from, inside_to, hi_from): a mid below lo_to has a gap
    above 1e-6 + margin, one between inside_from and inside_to a gap within
    1e-6 - margin of 0, and one above hi_from a gap below -1e-6 - margin.
    """
    # A negative margin (every step left to the eigenbasis gap) allows none.
    margin = max(_FIT_MARGIN, 0.0)
    (x0, y0), (x1, y1) = left[-1], right[-1]
    # Left gaps are positive and right ones are not, so the chord falls.
    drop = (y0 - y1) / (x1 - x0)
    # Each secant line as its inner point and its fall per unit p, tilted
    # down inwards by 2 margin / spacing: the most that the margin on its
    # two values can tilt it.
    lines = []
    if len(left) > 1:
        xa, ya = left[-2]
        lines.append((x0, y0, (ya - y0 + 2.0 * margin) / (x0 - xa)))
    if len(right) > 1:
        xb, yb = right[-2]
        lines.append((x1, y1, (y1 - yb - 2.0 * margin) / (xb - x1)))

    def lower_above(level: float) -> float:
        # Left of this p a lower bound, lowered by the margin, lies above level.
        return max([x1 if y1 - margin > level else 0.0]
                   + [x + (y - margin - level) / fall for x, y, fall in lines if fall > 0.0])

    def chord_below(level: float) -> float:
        # Right of this p the chord, raised by the margin, lies below level.
        return x0 + (y0 + margin - level) / drop

    return (lower_above(1e-6 + margin), chord_below(1e-6 - margin),
            lower_above(-1e-6 + margin), chord_below(-1e-6 - margin))


# ---------------------------------------------------------------------------
# Scenario assembly
# ---------------------------------------------------------------------------

def resolve_model(config: ScenarioConfig) -> ScenarioModel:
    """Source through channels and noise; no randomness involved.

    The state is the post-selected (renormalized) channel output with the
    white-noise admixture applied; `effective_pairs` scales the configured
    pair rate by the channel survival probability, which is what the
    analyzers actually receive.
    """
    from biphoton import optics, qstate, scenario, sim
    channels = [spec.channel() for spec in config.channel_chain]
    outcome = optics.apply_chain(qstate.to_density(config.source_state()), channels)
    if config.noise_fit_concurrence is not None:
        noise_p = fit_noise(config.noise_fit_concurrence, outcome.state)
    else:
        noise_p = config.noise_p or 0.0
    state = optics.depolarize(outcome.state, noise_p)
    eta_h, eta_v = config.coupler_etas
    leak = None
    if config.singles_extinction is not None:
        leak = sim.leak_fraction_for_extinction(config.singles_extinction,
                                                eta_h, eta_v)
        if not leak < 1.0:
            raise ValueError(f"singles_extinction {config.singles_extinction!r} "
                             f"cannot be reached behind a coupler with "
                             f"eta_v {eta_v!r}")
    return scenario.ScenarioModel(
        state=state,
        success_probability=outcome.success_probability,
        noise_p=noise_p,
        effective_pairs=config.mean_pairs * outcome.success_probability,
        eta_h=eta_h,
        eta_v=eta_v,
        target=config.target_state(),
        singles_leak=leak,
    )


def scenario_fringes(config: ScenarioConfig, model: ScenarioModel) -> dict:
    """The fringe set of one scenario: singles, transmission, two biphoton."""
    from biphoton import optics, qstate, sim
    grid = _fringe_grid()
    probe = (qstate.ket("H") if model.singles_leak is None
             else sim.h_state_with_leak(model.singles_leak))
    singles = sim.single_photon_fringe(probe, model.eta_h, model.eta_v, grid)
    transmission = optics.transmission_fringe(model.eta_h, model.eta_v, grid)
    bi_h = sim.biphoton_fringe(model.state, "H", grid,
                               mean_pairs=model.effective_pairs,
                               seed=config.seed)
    bi_d = sim.biphoton_fringe(model.state, "D", grid,
                               mean_pairs=model.effective_pairs,
                               seed=config.seed + 1)
    return {"single_photon": singles, "transmission": transmission,
            "biphoton_h": bi_h, "biphoton_d": bi_d}


def _output_dir(config: ScenarioConfig) -> Path:
    outdir = Path(config.outputs)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {outdir}: {exc}") from exc
    return outdir


def _write_json(path: Path, payload: dict) -> str:
    import json
    from biphoton import sim
    sim.write_artifact(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path.name


def _write_fringes(outdir: Path, fringes: dict) -> tuple:
    """The four fringe CSVs, one `angle_rad,value` row per grid angle."""
    from biphoton import sim
    curves = {"fringe_single.csv": fringes["single_photon"].values,
              "fringe_transmission.csv": fringes["transmission"],
              "fringe_biphoton_h.csv": fringes["biphoton_h"].values,
              "fringe_biphoton_d.csv": fringes["biphoton_d"].values}
    for name, values in curves.items():
        rows = [f"{float(a)!r},{float(v)!r}" for a, v in zip(_fringe_grid(), values)]
        sim.write_artifact(outdir / name, "\n".join(["angle_rad,value", *rows]) + "\n")
    return tuple(curves)


def _chsh(config: ScenarioConfig, model: ScenarioModel):
    """CHSH from sampled counts and from the model state."""
    from biphoton import bell
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
    from biphoton import qstate, scenario, sim, tomo
    model = resolve_model(config)
    plan = sim.tomography_plan(config.tomography_plan)
    records = sim.acquire_tomography(model.state, plan,
                                     model.effective_pairs, config.seed)
    result = tomo.mle_reconstruct(records, target=model.target,
                                  plan_id=config.tomography_plan,
                                  replicas=config.bootstrap_replicas, seed=config.seed)

    chsh_result, chsh_model = _chsh(config, model)
    fringes = scenario_fringes(config, model)
    outdir = _output_dir(config)

    _, evecs = qstate.eigen_hermitian(result.rho)
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

    try:
        sim.records_to_csv(records, outdir / "counts.csv")
        written = ["counts.csv",
                   _write_json(outdir / "density_matrix.json",
                               result.rho.to_json_dict()),
                   _write_json(outdir / "tomography.json", result.to_json_dict()),
                   _write_json(outdir / "metrics.json", metrics_payload),
                   _write_chsh(outdir, chsh_result, chsh_model),
                   *_write_fringes(outdir, fringes)]
    except BaseException:
        # The files written so far belong to this run and the rest to an
        # earlier one: no manifest may name that mixed set.
        (outdir / "manifest.json").unlink(missing_ok=True)
        raise
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
    return scenario.ScenarioReport(config, model, result, chsh_result, chsh_model,
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
    import yaml
    from biphoton import scenario
    try:
        with open(path) as fh:
            text = fh.read()
        # Parsed from text, which PyYAML reads faster than a file handle.
        raw = yaml.load(text, Loader=scenario._strict_loader(scenario._YAML_LOADER))
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: undecodable bytes, or an int past Python's digit limit.
        # The prefix names the file; PyYAML's marks name the text, and the
        # pure-Python loader's (not libyaml's) quote its line, as they do not
        # for a file.
        for mark in (getattr(exc, "context_mark", None), getattr(exc, "problem_mark", None)):
            if isinstance(mark, yaml.error.Mark):
                mark.buffer = None
        message = " ".join(str(exc).split()).replace(' in "<unicode string>"', "")
        raise ValueError(f"{path}: invalid YAML: {message}") from None
    return scenario.ScenarioConfig.from_mapping(raw, path)


def _resolve_config(arg: str, seed: int | None, outputs: str | None) -> ScenarioConfig:
    config = builtin_scenario(arg) if arg in BUILTIN_SCENARIOS else load_scenario(arg)
    overrides = {k: v for k, v in (("seed", seed), ("outputs", outputs)) if v is not None}
    if not overrides:
        return config
    from dataclasses import replace
    return replace(config, **overrides)


# ---------------------------------------------------------------------------
# Command line interface
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = _resolve_config(args.scenario, args.seed, args.outputs)
    run_scenario(config)
    print(f"  artifacts in         {config.outputs}")
    return 0


def _cmd_budget(args) -> int:
    import json
    from biphoton import scenario
    stages = []
    for i, token in enumerate(args.stages, 1):
        name, named, text = token.partition("=")
        if not named:
            name, text = i, token
        try:
            value = float(text)
        except ValueError:
            value = text  # `_number` refuses it, naming the stage and the text
        value = scenario._number(value, f"stage {name}")
        stages.append((name, value) if named else value)
    budget = scenario.efficiency_budget(stages, solve_total=args.solve_total,
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
    # The arguments of every command that takes a scenario.
    scenario_p = argparse.ArgumentParser(add_help=False)
    scenario_p.add_argument("scenario",
                            help="YAML config path or builtin name "
                                 f"({', '.join(BUILTIN_SCENARIOS)})")
    scenario_p.add_argument("--seed", type=int, default=None, help="override the seed")
    scenario_p.add_argument("--outputs", default=None, help="override the output dir")

    sub.add_parser("run", parents=[scenario_p],
                   help="run a scenario end to end").set_defaults(func=_cmd_run)

    budget_p = sub.add_parser("budget", help="stage-efficiency budget")
    budget_p.add_argument("stages", nargs="+",
                          help="efficiencies, optionally name=value")
    budget_p.add_argument("--solve-total", type=float, default=None,
                          help="solve for one unknown stage given this total")
    budget_p.add_argument("--quoted-unknown", type=float, default=None,
                          help="externally quoted value of the unknown stage, "
                               "reported next to the recomputed one")
    budget_p.set_defaults(func=_cmd_budget)

    sub.add_parser("fringe", parents=[scenario_p],
                   help="emit only the fringe CSVs").set_defaults(func=_cmd_fringe)
    sub.add_parser("chsh", parents=[scenario_p],
                   help="emit only the CHSH result").set_defaults(func=_cmd_chsh)
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
