"""Workload process of the benchmark.

    python3 benchmarks/worker.py <plan.json> <result.json>

run.py writes the plan (workload, op specs, run length, trace flag) and
starts this script in a fresh interpreter with the package on PYTHONPATH.
One client runs the ops back to back in a closed loop: the next op starts
only when the last one has returned, and no threads are started.

Warm-up: untimed ops on inputs of their own, or for model-sweep an untimed
pass over the inputs the run will time (see ModelSweep.warm_pass).

Untraced (trace 0): timed ops cycling over the inputs until the run length
is used up; scenario-run only stops at the end of a pass over the four
built-ins, so every run times the same scenario mix. speed.Sampler takes
speed samples throughout the timed loop, and each op's CPU time is also
given in reference seconds (see speed.py).

Traced (trace 1): warm-up, then a fixed op list run once untraced and once
with every module traced, so that counts repeat exactly for a seed and the
two wall times give the tracing overhead.

Outputs are checked after each timed loop, outside the timing.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import speed
import workloads
from tracer import OP_SPAN, Tracer

MODULES = ("qstate", "optics", "sim", "tomo", "bell", "cli")


def run_loop(workload, prepared, count: int, seconds: float | None, op=None) -> tuple:
    """Run up to `count` ops, cycling over `prepared`.

    With `seconds`, the loop stops at the first group boundary (a pass over
    the built-ins for scenario-run, else one op) where one more group, timed
    like the last, would end past `seconds`; at least one group runs.
    Returns (op starts, op ends, op CPU times, outputs, loop wall time); an
    output is the op's return value or the exception it raised.
    """
    op = op or workload.run
    group = workload.group
    clock, cpu_clock = time.perf_counter, time.process_time
    starts, ends, cpu, outputs = [], [], [], []
    begin = group_start = clock()
    for k in range(count):
        if seconds is not None and k and k % group == 0:
            now = clock()
            if 2 * now - group_start - begin > seconds:
                break
            group_start = now
        args = prepared[k % len(prepared)]
        c0, t0 = cpu_clock(), clock()
        try:
            out = op(args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = exc
        ends.append(clock())
        cpu.append(cpu_clock() - c0)
        starts.append(t0)
        outputs.append(out)
    return starts, ends, cpu, outputs, clock() - begin


def check_all(workload, specs, prepared, outputs) -> list:
    """Failure messages, one per failed op."""
    failures = []
    for k, out in enumerate(outputs):
        spec, args = specs[k % len(specs)], prepared[k % len(prepared)]
        if isinstance(out, Exception):
            problems = ["raised " + "".join(traceback.format_exception_only(out)).strip()]
        else:
            problems = workload.check(spec, args, out)
        if problems:
            failures.append(f"op {k} {json.dumps(spec)[:160]}: {'; '.join(problems)}")
    return failures


def layer_metrics(tracer: Tracer, fits: list, artifacts: tuple, walls: tuple) -> dict:
    """Per-layer metrics of the traced phase, named <module>.<function>.<stat>."""
    spans = tracer.arrays()
    table = tracer.table(spans)
    metrics = {}
    for name, row in table.items():
        for stat, value in row.items():
            metrics[f"{name}.{stat}"] = value
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(row["self_s"] for name, row in table.items()
                                          if name.startswith(module + "."))

    iterations = np.array([it for it, _ in fits], dtype=float)
    metrics["tomo.mle_reconstruct.iterations_p50"] = (
        float(np.median(iterations)) if fits else 0.0)
    metrics["tomo.mle_reconstruct.iterations_max"] = (
        float(iterations.max()) if fits else 0.0)
    metrics["tomo.mle_reconstruct.converged_ratio"] = (
        sum(ok for _, ok in fits) / len(fits) if fits else 0.0)
    objective_calls = table["tomo.objective_and_gradient"]["calls"]
    metrics["tomo.objective_and_gradient.calls_per_iteration"] = (
        objective_calls / iterations.sum() if iterations.sum() else 0.0)

    # One replica runs from the start of its mle_reconstruct to the start of
    # the next (the last one to the end of bootstrap_errors), which covers
    # its resampling, fit and metrics.
    ids = {name: i for i, name in enumerate(tracer.names)}
    boots = np.flatnonzero(spans["name"] == ids["tomo.bootstrap_errors"])
    fit_spans = spans["name"] == ids["tomo.mle_reconstruct"]
    replicas = []
    for b in boots:
        starts = spans["start"][fit_spans & (spans["parent"] == b)]
        replicas.extend(np.diff(np.append(np.sort(starts), spans["end"][b])))
    metrics["tomo.bootstrap_errors.replica_s_p50"] = (
        float(np.median(replicas)) if replicas else 0.0)
    op_total = table[OP_SPAN]["total_s"]
    metrics["tomo.bootstrap_errors.op_share"] = (
        table["tomo.bootstrap_errors"]["total_s"] / op_total if op_total else 0.0)

    under_fit = np.isin(spans["parent"],
                        np.flatnonzero(spans["name"] == ids["cli.fit_noise"]))
    metrics["cli.fit_noise.steps"] = int(np.sum(
        under_fit & (spans["name"] == ids["optics.depolarize"])))
    metrics["cli.artifacts.bytes"], metrics["cli.artifacts.files"] = artifacts
    untraced, traced = walls
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics["trace.ops"] = table[OP_SPAN]["calls"]
    metrics["trace.spans"] = len(spans["start"])
    return metrics


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    sys.path.insert(0, plan["src"])
    specs = plan["specs"]
    name = plan["workload"]
    workload = workloads.workload(name, plan["reference"])
    outputs_dir = Path(plan["outputs_dir"])

    timed = specs[:workloads.INPUTS[name]]
    warm = specs[len(timed):]

    def prepare(batch, phase):
        return [workload.prepare(spec, outputs_dir / f"{phase}{k:05d}")
                for k, spec in enumerate(batch)]

    failures, attempted = [], 0
    warm_args = prepare(warm, "warm")
    *_, warm_out, _ = run_loop(workload, warm_args, len(warm), None)
    failures += check_all(workload, warm, warm_args, warm_out)
    attempted += len(warm_out)

    prepared = prepare(timed, "a")
    max_ops = plan["max_ops"]
    if plan["trace"]:
        count = max_ops or workloads.TRACED_OPS[name]
    else:
        count = max_ops or 10 ** 9
    if workload.warm_pass:
        first = prepared[:count]
        *_, warm_out, _ = run_loop(workload, first, len(first), None)
        failures += check_all(workload, timed, first, warm_out)
        attempted += len(warm_out)
    if plan["trace"]:
        starts, ends, _, outs, wall = run_loop(workload, prepared, count, None)
        durations = reference = [e - s for s, e in zip(starts, ends)]
    else:
        sampler = speed.Sampler()
        sampler.start()
        try:
            starts, ends, cpu, outs, wall = run_loop(workload, prepared, count,
                                                     plan["seconds"])
        finally:
            sampler.stop()
        durations, reference = sampler.reference_seconds(starts, ends, cpu)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failures += check_all(workload, timed, prepared, outs)
    attempted += len(outs)
    result = {"durations": durations, "reference": reference, "wall": wall,
              "peak_rss_kb": peak_rss_kb}

    if plan["trace"]:
        prepared_b = prepare(timed, "b")
        tracer = Tracer()
        fits = []
        tracer.install([importlib.import_module(f"biphoton.{m}") for m in MODULES], on_result={
            "tomo.mle_reconstruct": lambda r: fits.append((r.iterations, r.converged))})
        traced_op = tracer.wrap(OP_SPAN, workload.run)

        def op(args):
            tracer.current_op += 1
            return traced_op(args)

        traced_starts, traced_ends, _, traced_outs, _ = run_loop(
            workload, prepared_b, len(outs), None, op)
        traced_durations = [e - s for s, e in zip(traced_starts, traced_ends)]
        failures += check_all(workload, timed, prepared_b, traced_outs)
        attempted += len(traced_outs)
        usage = [workloads.artifact_usage(args["outdir"])
                 for args in prepared_b[:len(traced_outs)] if "outdir" in args]
        artifacts = (sum(b for b, _ in usage), sum(f for _, f in usage))
        tracer.write(plan["trace_file"])
        result["layers"] = layer_metrics(
            tracer, fits, artifacts, (sum(durations), sum(traced_durations)))

    result.update(attempted=attempted, failed=len(failures), failures=failures)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
