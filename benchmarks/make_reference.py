"""Regenerate reference.json: the scenario-run outputs that every
scenario-run op is checked against.

For each built-in scenario and each seed in `workloads.REFERENCE_SEEDS` it
runs `biphoton run <scenario> --seed <seed>` at shipped settings and pins the
sha256 of counts.csv, the fitted metrics, S and the bootstrap sigmas. The
committed file was made at the commit that introduced the benchmark; rerun
this only when a change to the program is meant to move those numbers.

    python3 benchmarks/make_reference.py     # from the repository root
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from biphoton import cli  # noqa: E402


def main() -> int:
    scratch = ROOT / ".perfbench" / "reference"
    reference = {}
    for scenario in workloads.BUILTINS:
        reference[scenario] = {}
        for seed in workloads.REFERENCE_SEEDS:
            outdir = scratch / f"{scenario}-{seed}"
            code, _ = workloads.quiet_main(cli, ["run", scenario, "--seed", str(seed),
                                                 "--outputs", str(outdir)])
            if code != 0:
                print(f"error: {scenario} seed {seed} exited {code}", file=sys.stderr)
                return 1
            reference[scenario][str(seed)] = workloads.scenario_summary(outdir)
            print(f"{scenario} seed {seed}: done", flush=True)
    shutil.rmtree(scratch)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
