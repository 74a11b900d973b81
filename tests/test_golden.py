"""Golden artifact contract: `run`, `fringe` and `chsh` write the same bytes.

`tests/golden/artifacts.json` holds the sha256 of every file these commands
write, and of their stdout, for the four built-in scenarios at seed 7 with
the shipped settings and at seed 0 with `SEED0_REPLICAS` bootstrap replicas.
`run` at the shipped settings must write the same bytes whether its
bootstrap replicas are fitted in one process or split over several.

The bytes that derive from the tomography fit depend on the exact
floating-point path of numpy and scipy (einsum order, LAPACK). On the
toolchain recorded in the golden file every hash must match. On any other
toolchain the files that do not derive from the fit must still match by
hash, and the fitted metrics and bootstrap sigmas must agree within the
benchmark's tolerances (1e-6 and 1e-4).

After a change that is meant to move the outputs, regenerate with
`python tests/golden/regenerate.py`, which prints every entry that changed.
"""

import contextlib
import hashlib
import io
import json
import os
from importlib import resources
from pathlib import Path

import numpy as np
import scipy
import yaml

from biphoton import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "artifacts.json"
SEED0_REPLICAS = 20
METRIC_TOL = 1e-6
SIGMA_TOL = 1e-4
# Written from the fitted state, so their bytes depend on the toolchain.
FIT_DERIVED = ("density_matrix.json", "tomography.json", "metrics.json")


def toolchain() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _invoke(argv: list, outdir: Path) -> dict:
    """The file hashes and stdout hash of one command that must exit 0 and,
    for `run`, its fitted metrics and bootstrap sigmas."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--outputs", str(outdir)])
    assert code == 0, f"{argv} exited {code}"
    entry = {"stdout": _sha256(out.getvalue().replace(str(outdir), "<outputs>").encode()),
             "files": {p.name: _sha256(p.read_bytes()) for p in sorted(outdir.iterdir())}}
    if argv[0] == "run":
        metrics = json.loads((outdir / "metrics.json").read_text())
        entry["numbers"] = {"metrics": metrics["metrics"],
                            "uncertainties": metrics["uncertainties"]}
    return entry


def produce(workdir: Path) -> dict:
    """Run every golden case under `workdir`; the entries keyed by case."""
    cases = {}
    for name in cli.BUILTIN_SCENARIOS:
        packaged = resources.files("biphoton") / "scenarios" / f"{name}.yaml"
        reduced = yaml.safe_load(packaged.read_text())
        reduced["bootstrap_replicas"] = SEED0_REPLICAS
        reduced_path = workdir / f"{name}-reduced.yaml"
        reduced_path.write_text(yaml.safe_dump(reduced))
        for command in ("run", "fringe", "chsh"):
            for seed in (7, 0):
                scenario = str(reduced_path) if seed == 0 else name
                case = f"{command} {name} seed {seed}"
                cases[case] = _invoke([command, scenario, "--seed", str(seed)],
                                      workdir / case.replace(" ", "-"))
    return cases


def differences(golden: dict, cases: dict, same_toolchain: bool) -> list:
    """What in `cases` breaks the contract of `golden`, one line each."""
    problems = []
    if set(cases) != set(golden["cases"]):
        problems.append(f"cases differ: {sorted(set(cases) ^ set(golden['cases']))}")
    for case in sorted(set(cases) & set(golden["cases"])):
        want, got = golden["cases"][case], cases[case]
        if set(got["files"]) != set(want["files"]):
            problems.append(f"{case}: files {sorted(got['files'])}, "
                            f"want {sorted(want['files'])}")
        for name in sorted(set(got["files"]) & set(want["files"])):
            if ((same_toolchain or name not in FIT_DERIVED)
                    and got["files"][name] != want["files"][name]):
                problems.append(f"{case}: {name} changed")
        if ((same_toolchain or not case.startswith("run "))
                and got["stdout"] != want["stdout"]):
            problems.append(f"{case}: stdout changed")
        for group, tol in (("metrics", METRIC_TOL), ("uncertainties", SIGMA_TOL)):
            expected = want.get("numbers", {}).get(group, {})
            actual = got.get("numbers", {}).get(group, {})
            for key in sorted(expected):
                if not np.allclose(actual.get(key, np.nan), expected[key],
                                   rtol=0.0, atol=tol):
                    problems.append(f"{case}: {group} {key} {actual.get(key)!r}, "
                                    f"want {expected[key]!r} within {tol}")
    return problems


def test_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    same = golden["toolchain"] == toolchain()
    assert differences(golden, produce(tmp_path), same) == []


def test_run_split_over_three_processes_matches_golden(tmp_path, monkeypatch):
    # The 200 bootstrap replicas of the shipped settings split over three
    # processes, whatever the CPUs of the machine the tests run on.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    golden = json.loads(GOLDEN.read_text())
    cases = {f"run {name} seed 7": _invoke(["run", name, "--seed", "7"], tmp_path / name)
             for name in cli.BUILTIN_SCENARIOS}
    want = {**golden, "cases": {case: golden["cases"][case] for case in cases}}
    assert differences(want, cases, golden["toolchain"] == toolchain()) == []


def test_golden_covers_every_command_and_builtin():
    golden = json.loads(GOLDEN.read_text())
    assert golden["seed0_replicas"] == SEED0_REPLICAS
    counts = {"run": 10, "fringe": 4, "chsh": 1}
    for case, entry in golden["cases"].items():
        assert len(entry["files"]) == counts[case.split()[0]], case
    assert len(golden["cases"]) == 3 * 2 * len(cli.BUILTIN_SCENARIOS)


def test_other_toolchains_compare_fit_derived_files_by_number():
    golden = json.loads(GOLDEN.read_text())
    cases = json.loads(json.dumps(golden["cases"]))
    run = cases["run nanowire seed 7"]
    run["files"]["metrics.json"] = run["stdout"] = "0" * 64
    run["numbers"]["metrics"]["concurrence"] += 0.5 * METRIC_TOL
    run["numbers"]["uncertainties"]["S"] -= 0.5 * SIGMA_TOL
    assert differences(golden, cases, same_toolchain=False) == []
    assert len(differences(golden, cases, same_toolchain=True)) == 2
    run["numbers"]["metrics"]["concurrence"] += METRIC_TOL
    cases["chsh source seed 0"]["files"]["chsh.json"] = "0" * 64
    assert len(differences(golden, cases, same_toolchain=False)) == 2
