"""The three benchmark workloads: input generation, the timed operation and
the correctness check of each operation's output.

Input generation (`make_inputs`) runs in the orchestrating process and uses
only numpy and PyYAML, so the program under test sees nothing but the files
and op specs it writes. The workload classes run in the workload process,
where `biphoton` is imported.

Every op spec is a JSON-able dict; `run` returns whatever `check` needs, and
`check` returns a list of failure messages (empty when the output is right).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("scenario-run", "tomo-stream", "model-sweep")

#: Built-in scenarios in the fixed order of one scenario-run pass.
BUILTINS = ("source", "taper", "nanowire", "nanowire-compensated")

#: Seeds whose scenario-run outputs are pinned in reference.json. Seed 7 is
#: the default seed of every built-in.
REFERENCE_SEEDS = (7, 0, 1, 2, 3, 4, 5, 6)

#: Tolerances of the comparison with reference.json.
METRIC_TOL = 1e-6
SIGMA_TOL = 1e-4

TSIRELSON = 2.0 * math.sqrt(2.0)

#: Distinct timed inputs per run (64 passes over the built-ins for
#: scenario-run). A run that finishes all of them starts over from the first.
INPUTS = {"scenario-run": 256, "tomo-stream": 1024, "model-sweep": 512}
#: Untimed warm-up ops, drawn from inputs beyond the timed ones. model-sweep
#: warms up with a pass over its timed inputs instead (ModelSweep.warm_pass).
WARMUP_OPS = {"scenario-run": 0, "tomo-stream": 8, "model-sweep": 0}
#: Op count of a traced run; fixed so that every count repeats exactly.
TRACED_OPS = {"scenario-run": len(BUILTINS), "tomo-stream": 128, "model-sweep": 128}

# tomo-stream: mean pairs per setting, drawn log-uniform in this range.
PAIRS_RANGE = (5e2, 1e5)
# tomo-stream: trace distance to the generating state may not exceed
# DISTANCE_SCALE / sqrt(mean pairs per setting) (calibrated in README.md).
DISTANCE_SCALE = 12.0
# model-sweep: sampled S must lie within this many sigma_S of the model S.
CHSH_SIGMAS = 6.0

FRINGE_FILES = ("fringe_single.csv", "fringe_transmission.csv",
                "fringe_biphoton_h.csv", "fringe_biphoton_d.csv")
FRINGE_ROWS = 18

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Analyzer kets of the hvdr16 plan, with the package's label convention
# R = (H - iV)/sqrt(2).
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}
_PLAN = [(a, b) for a in "HVDR" for b in "HVDR"]


# ---------------------------------------------------------------------------
# Input generation (orchestrating process; no biphoton import)
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, inputs_dir: Path, outputs_dir: Path) -> list:
    """Op specs for `workload`, drawn from `seed`: timed ops, then warm-up ops."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    total = INPUTS[workload] + WARMUP_OPS[workload]
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload == "scenario-run":
        # The first pass is `biphoton run <builtin>` exactly as shipped
        # (default seed 7); later passes draw their seeds. Bootstrap work
        # differs by up to ~30% between seeds, so a fixed first pass keeps
        # a one-pass run's work the same for every benchmark seed.
        return [{"scenario": BUILTINS[i % len(BUILTINS)],
                 "seed": REFERENCE_SEEDS[0] if i < len(BUILTINS)
                 else int(rng.choice(REFERENCE_SEEDS))} for i in range(total)]
    if workload == "tomo-stream":
        return _tomo_inputs(rng, total, inputs_dir)
    return _sweep_inputs(rng, total, inputs_dir, outputs_dir)


def _random_state(rng, rank: int) -> np.ndarray:
    """Haar-random pure state (rank 1) or Ginibre mixed state of `rank`."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def _tomo_inputs(rng, total: int, inputs_dir: Path) -> list:
    # Mean pairs follow a randomly shifted golden-ratio sequence in log
    # space: evenly spread, so runs with different seeds fit the same mix of
    # count rates.
    shift = rng.random()
    lo, hi = map(math.log, PAIRS_RANGE)
    specs = []
    for i in range(total):
        rho = _random_state(rng, rank=1 + i % 4)
        pairs = math.exp(lo + (hi - lo) * ((shift + i * _GOLDEN) % 1.0))
        rows = []
        for a, b in _PLAN:
            pair = np.kron(_KETS[a], _KETS[b])
            p = min(max(float(np.real(pair.conj() @ rho @ pair)), 0.0), 1.0)
            rows.append([a, b, repr(float(rng.poisson(p * pairs))), repr(pairs)])
        path = inputs_dir / f"counts_{i:05d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["setting_1", "setting_2", "counts", "expected_pairs"])
            writer.writerows(rows)
        top = np.linalg.eigh(rho)[1][:, -1]
        top = top * np.exp(-1j * np.angle(top[np.argmax(np.abs(top))]))
        specs.append({"csv": str(path), "pairs": pairs, "rank": 1 + i % 4,
                      "rho": [rho.real.tolist(), rho.imag.tolist()],
                      "target": [top.real.tolist(), top.imag.tolist()]})
    return specs


def _schmidt_concurrence(theta: float, eta_h: float, eta_v: float) -> float:
    """Concurrence of cos|HH> + sin|VV> after the coupler, post-selected."""
    a = math.cos(theta) * math.sqrt(eta_h)
    d = math.sin(theta) * math.sqrt(eta_v)
    return 2.0 * abs(a * d) / (a * a + d * d)


def _sweep_inputs(rng, total: int, inputs_dir: Path, outputs_dir: Path) -> list:
    import yaml

    specs = []
    for i in range(total):
        ratio = float(rng.uniform(1.0, 3.0))
        eta_h = float(rng.uniform(0.2, 1.0))
        arm = int(rng.integers(1, 3))
        # Source, noise form and singles extinction cycle through all 12
        # combinations, so every stretch of inputs has the same mix.
        kind = ("phi+", "compensated", "schmidt")[i % 3]
        if kind == "phi+":
            source, theta = "phi+", math.pi / 4
        elif kind == "compensated":
            source, theta = "compensated", math.atan(math.sqrt(ratio))
        else:
            theta = float(rng.uniform(0.15, math.pi / 2 - 0.15))
            source = {"schmidt_theta": theta}
        scenario = {
            "name": f"sweep-{i}",
            "source": source,
            "channel_chain": [{"kind": "coupler", "eta_h": eta_h, "ratio": ratio, "arm": arm}],
        }
        if i // 3 % 2:
            scenario["noise_p"] = float(rng.uniform(0.0, 0.5))
        else:
            # Below the noiseless channel output's concurrence, so the fit
            # always has a solution.
            base = _schmidt_concurrence(theta, eta_h, eta_h / ratio)
            scenario["noise_fit_concurrence"] = base * float(rng.uniform(0.2, 0.98))
        if i // 6 % 2:
            scenario["singles_extinction"] = float(rng.uniform(5.0, 50.0))
        scenario["seed"] = int(rng.integers(0, 2**31 - 1))
        scenario["outputs"] = str(outputs_dir / f"sweep_{i:05d}")
        path = inputs_dir / f"scenario_{i:05d}.yaml"
        path.write_text(yaml.safe_dump(scenario, sort_keys=False))
        specs.append({"yaml": str(path), "outputs": scenario["outputs"]})
    return specs


# ---------------------------------------------------------------------------
# Operations and checks (workload process; imports biphoton)
# ---------------------------------------------------------------------------

def quiet_main(cli, argv) -> tuple[int, str]:
    """cli.main(argv) with its stdout captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _physical_problems(rho: np.ndarray) -> list:
    problems = []
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        problems.append("rho is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        problems.append(f"rho has trace {np.trace(rho)!r}")
    low = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if low < -1e-9:
        problems.append(f"rho has eigenvalue {low:.3g}")
    return problems


def _fringe_problems(outdir: Path) -> list:
    problems = []
    for name in FRINGE_FILES:
        path = outdir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["angle_rad", "value"]] or len(rows) - 1 != FRINGE_ROWS:
            problems.append(f"{name} has {len(rows) - 1} rows, want {FRINGE_ROWS}")
        elif not all(math.isfinite(float(v)) for _, v in rows[1:]):
            problems.append(f"{name} holds a non-finite value")
    return problems


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def scenario_summary(outdir: Path) -> dict:
    """The numbers of one `biphoton run` output that reference.json pins."""
    metrics = json.loads((outdir / "metrics.json").read_text())
    return {
        "counts_sha256": _sha256(outdir / "counts.csv"),
        "concurrence": metrics["metrics"]["concurrence"],
        "fidelity_target": metrics["metrics"]["fidelity_target"],
        "purity": metrics["metrics"]["purity"],
        "S": metrics["chsh"]["S"],
        "sigma_S": metrics["chsh"]["sigma_S"],
        "S_model": metrics["chsh"]["S_model"],
        "uncertainties": metrics["uncertainties"],
    }


def artifact_usage(outdir: Path) -> tuple[int, int]:
    """(bytes, files) under an op's output directory."""
    if not outdir.is_dir():
        return 0, 0
    sizes = [p.stat().st_size for p in outdir.rglob("*") if p.is_file()]
    return sum(sizes), len(sizes)


class ScenarioRun:
    """`biphoton run <builtin>`, checked against reference.json."""

    group = len(BUILTINS)
    warm_pass = False

    def __init__(self, reference: dict):
        from biphoton import cli
        self.cli, self.reference = cli, reference

    def prepare(self, spec: dict, outdir: Path) -> dict:
        return {"argv": ["run", spec["scenario"], "--seed", str(spec["seed"]),
                         "--outputs", str(outdir)], "outdir": outdir}

    def run(self, args: dict):
        return quiet_main(self.cli, args["argv"])

    def check(self, spec: dict, args: dict, output) -> list:
        code, _ = output
        if code != 0:
            return [f"exit code {code}"]
        outdir = args["outdir"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        problems = [f"{name} missing" for name in manifest["artifacts"]
                    if not (outdir / name).is_file()]
        if problems:
            return problems
        rho = json.loads((outdir / "density_matrix.json").read_text())
        problems += _physical_problems(np.array(rho["re"]) + 1j * np.array(rho["im"]))
        tomography = json.loads((outdir / "tomography.json").read_text())
        if not tomography["converged"]:
            problems.append("MLE did not converge")
        problems += _fringe_problems(outdir)
        got = scenario_summary(outdir)
        if not abs(got["S_model"]) <= TSIRELSON + 1e-9:
            problems.append(f"|S_model| = {abs(got['S_model'])} exceeds 2 sqrt 2")
        if not abs(got["S"]) <= TSIRELSON + CHSH_SIGMAS * got["sigma_S"]:
            problems.append(f"|S| = {abs(got['S'])} exceeds 2 sqrt 2 by more than "
                            f"{CHSH_SIGMAS} sigma")
        for key in ("concurrence", "fidelity_target", "purity"):
            if not 0.0 <= got[key] <= 1.0:
                problems.append(f"{key} = {got[key]} outside [0, 1]")
        sigmas = got["uncertainties"] or {}
        if sorted(sigmas) != ["S", "concurrence", "fidelity"] or not all(
                math.isfinite(v) and v > 0.0 for v in sigmas.values()):
            problems.append(f"bootstrap uncertainties {sigmas!r}")
        want = self.reference.get(spec["scenario"], {}).get(str(spec["seed"]))
        if want is None:
            return problems + [f"no reference for {spec['scenario']} seed {spec['seed']}"]
        if got["counts_sha256"] != want["counts_sha256"]:
            problems.append("counts.csv differs from the reference")
        for key in ("concurrence", "fidelity_target", "purity", "S", "sigma_S", "S_model"):
            if abs(got[key] - want[key]) > METRIC_TOL:
                problems.append(f"{key} {got[key]!r} != reference {want[key]!r}")
        for key, value in want["uncertainties"].items():
            if abs(sigmas.get(key, math.inf) - value) > SIGMA_TOL:
                problems.append(f"sigma {key} {sigmas.get(key)!r} != reference {value!r}")
        return problems


class TomoStream:
    """One MLE fit of a count CSV, checked against the generating state."""

    group = 1
    warm_pass = False

    def __init__(self, reference: dict):
        from biphoton import qstate, sim, tomo
        self.qstate, self.sim, self.tomo = qstate, sim, tomo

    def prepare(self, spec: dict, outdir: Path) -> dict:
        re, im = spec["target"]
        return {"csv": spec["csv"],
                "target": self.qstate.PureState(np.array(re) + 1j * np.array(im))}

    def run(self, args: dict):
        records = self.sim.records_from_csv(args["csv"])
        result = self.tomo.mle_reconstruct(records, target=args["target"])
        return result.rho.matrix, result.converged

    def check(self, spec: dict, args: dict, output) -> list:
        rho, converged = output
        problems = _physical_problems(rho)
        if not converged:
            problems.append("MLE did not converge")
        truth = np.array(spec["rho"][0]) + 1j * np.array(spec["rho"][1])
        distance = 0.5 * float(np.abs(np.linalg.eigvalsh(rho - truth)).sum())
        bound = DISTANCE_SCALE / math.sqrt(spec["pairs"])
        if distance > bound:
            problems.append(f"trace distance {distance:.4f} to the generating state "
                            f"exceeds {bound:.4f} at {spec['pairs']:.0f} pairs")
        return problems


class ModelSweep:
    """`biphoton fringe` and `biphoton chsh` on one generated scenario file."""

    group = 1
    #: Each input's op writes its own output directory. An untimed pass
    #: over the inputs creates them, so that timed ops overwrite their
    #: files: creating files after earlier runs deleted theirs took from
    #: 0.2 to 2.4 ms a directory, growing run by run, while overwriting
    #: took a steady 0.4 ms.
    warm_pass = True

    def __init__(self, reference: dict):
        from biphoton import cli
        self.cli = cli

    def prepare(self, spec: dict, outdir: Path) -> dict:
        return {"outdir": Path(spec["outputs"]), "yaml": spec["yaml"]}

    def run(self, args: dict):
        return (quiet_main(self.cli, ["fringe", args["yaml"]]),
                quiet_main(self.cli, ["chsh", args["yaml"]]))

    def check(self, spec: dict, args: dict, output) -> list:
        (fringe_code, fringe_out), (chsh_code, _) = output
        if fringe_code or chsh_code:
            return [f"exit codes fringe {fringe_code}, chsh {chsh_code}"]
        outdir = args["outdir"]
        problems = _fringe_problems(outdir)
        visibilities = [float(line.split()[-1]) for line in fringe_out.splitlines()
                        if "visibility" in line]
        if len(visibilities) != 3 or not all(0.0 <= v <= 1.0 for v in visibilities):
            problems.append(f"visibilities {visibilities}")
        chsh = json.loads((outdir / "chsh.json").read_text())
        s, sigma, model = chsh["S"], chsh["sigma_S"], chsh["S_model"]
        if not (math.isfinite(sigma) and sigma > 0.0):
            problems.append(f"sigma_S = {sigma}")
        elif abs(s - model) > CHSH_SIGMAS * sigma:
            problems.append(f"S {s:.4f} is {abs(s - model) / sigma:.1f} sigma from "
                            f"S_model {model:.4f}")
        if not abs(model) <= TSIRELSON + 1e-9:
            problems.append(f"|S_model| = {abs(model)} exceeds 2 sqrt 2")
        return problems


def workload(name: str, reference: dict):
    """The op of workload `name`: `prepare` each spec once, untimed; `run`
    it timed; `check` its output after the timed loop."""
    return {"scenario-run": ScenarioRun, "tomo-stream": TomoStream,
            "model-sweep": ModelSweep}[name](reference)
