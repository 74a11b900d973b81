"""Benchmark of the biphoton package: one workload per invocation.

    python3 benchmarks/run.py --workload scenario-run --seed 1 --seconds 25 --trace 0

Run from the repository root (any checkout of it; no install needed). It
measures set-up time in fresh interpreters, generates the workload's inputs
from --seed, runs the workload process (worker.py) and prints a report.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The end-to-end timings are given in
reference seconds: scaled by a calibration timed next to them, so that the
shared machine's changes of speed cancel (speed.py).
README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

import speed  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s; the first is a discarded warm-up
#: that also leaves the bytecode cache in place.
SETUP_SAMPLES = 5
#: Each run ends within this many seconds, killing the workload process if
#: it must.
RUN_LIMIT_S = 170.0
#: Percentiles considered for the tail; the highest with >= 10 samples
#: beyond it is reported.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0)

#: Imports the package and builds its parser, reads the clock, then takes
#: speed samples in the same process.
_SETUP_PROBE = ("import sys, time, biphoton.cli as c; c.build_parser(); "
                "t = time.perf_counter(); sys.path.insert(0, {here!r}); import speed; "
                "print(repr(t), repr(speed.speed()))")

#: Thread settings of the workload process: one client, no BLAS threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def program_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict) -> list:
    """(wall, reference) seconds from spawning a fresh interpreter to
    biphoton.cli imported, one pair per sample."""
    samples = []
    probe = _SETUP_PROBE.format(here=str(HERE))
    for _ in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        ready, cal = map(float, done.stdout.split())
        samples.append((ready - t0, (ready - t0) * speed.CAL_REF_S / cal))
    return samples[1:]


def tail(durations: list) -> tuple | None:
    """(percentile, seconds) of the highest ladder percentile with >= 10
    samples beyond it, or None when the run is too short."""
    for q in TAIL_LADDER:
        value = float(np.percentile(durations, q))
        if sum(d > value for d in durations) >= 10:
            return q, value
    return None


def machine_record(load_start: tuple) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "biphoton").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "pyyaml": metadata.version("PyYAML"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREAD_ENV,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--ops", type=int, default=None,
                        help="cap on timed ops (smoke tests)")
    args = parser.parse_args(argv)
    if not (SRC / "biphoton" / "__init__.py").is_file():
        print(f"error: no biphoton package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    # A terminated run still stops its workload process and removes its
    # inputs: SystemExit unwinds through subprocess.run and the finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    started = time.perf_counter()
    load_start = os.getloadavg()
    env = program_env()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        try:
            setup = [] if args.trace else measure_setup(env)
        except subprocess.CalledProcessError as exc:
            print(f"error: set-up probe failed: {exc.stderr.strip()}", file=sys.stderr)
            return 1
        specs = workloads.make_inputs(args.workload, args.seed,
                                      workdir / "inputs", workdir / "outputs")
        traces = WORK / "traces"
        if args.trace:
            traces.mkdir(parents=True, exist_ok=True)
        plan = {
            "workload": args.workload, "src": str(SRC), "specs": specs,
            "seconds": args.seconds, "trace": bool(args.trace), "max_ops": args.ops,
            "outputs_dir": str(workdir / "outputs"),
            "reference": (json.loads((HERE / "reference.json").read_text())
                          if args.workload == "scenario-run" else {}),
            "trace_file": str(traces / f"{args.workload}-seed{args.seed}.csv.gz"),
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan))
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path),
                                   str(result_path)], env=env, cwd=ROOT, timeout=remaining)
        except subprocess.TimeoutExpired:
            print(f"error: workload process exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print(f"error: workload process exited {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    durations = result["reference"]
    if args.trace:
        values = result["layers"]
    else:
        values = {
            "setup_s": statistics.median(ref for _, ref in setup),
            "op_p50_s": statistics.median(durations),
            "ops_per_s": len(durations) / sum(durations),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared_metrics(bool(args.trace))}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed ops {len(durations)}  wall {result['wall']:.3f} s")
    print("machine " + json.dumps(machine_record(load_start), sort_keys=True))
    if args.trace:
        for name in sorted(values):
            print(f"  {name:58s} {values[name]:.6g}")
    else:
        for name, metric in metrics.items():
            print(f"  {name:12s} {metric['value']:.6g} {metric['unit']}")
        print("  setup samples (reference s) " + " ".join(f"{r:.4f}" for _, r in setup))
        print("  wall clock: setup_s {:.6g}  op_p50_s {:.6g}  ops_per_s {:.6g} "
              "(op wall times net of speed sampling; ops_per_s over the loop's "
              "wall time)".format(
                  statistics.median(w for w, _ in setup),
                  statistics.median(result["durations"]),
                  len(durations) / result["wall"]))
        op_tail = tail(durations)
        if op_tail is None:
            print(f"  op_tail_s    n/a ({len(durations)} ops: too few for a tail)")
        else:
            print(f"  op_tail_s    {op_tail[1]:.6g} s (p{op_tail[0]:g} of {len(durations)} ops)")
    print(f"  failed_frac  {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
