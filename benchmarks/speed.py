"""Machine-speed calibration of the benchmark's timings.

The shared machine the benchmark runs on changes speed by up to ~1.8x, in
phases that last from a second to minutes (README.md, "Noise and bounds").
`calibration` is a fixed piece of work of the kinds the package's ops are
made of, pure-Python parsing (PyYAML) and small-matrix numpy linear algebra,
that does not touch the package. `speed_sample` times it warm, as the
fastest of a few back-to-back repeats, so that what the package left in the
caches does not change it: only the machine's speed at that moment does. A
timing × `CAL_REF_S` / the speed sample taken next to it reads as seconds
on the reference machine in its fast phase ("reference seconds").

`Sampler` takes a speed sample from a SIGALRM handler every `PERIOD_S`
seconds while the workload process runs its ops, without a thread: the
handler runs in the main thread between two bytecodes of whatever op is
running. `reference_seconds` then takes each op's process CPU time, less
the sampling inside it, and scales it by the speed samples around it. CPU
time rather than wall time, because the process also stalls off the CPU
for tens of ms at a time on this machine, which no speed sample can see.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import yaml

#: `speed_sample()` on the reference machine (2-core Intel Xeon, Python
#: 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31 on one thread) in its fast
#: phase.
CAL_REF_S = 4.5e-4
#: Back-to-back calibrations per speed sample; the fastest counts.
REPEATS = 3
#: Seconds between two speed samples in the workload process.
PERIOD_S = 0.04
#: An op is scaled by the mean of the speed samples taken from this many
#: seconds before its start to this many after its end.
WINDOW_S = 0.12

_RNG = np.random.default_rng(0)
#: Hermitian matrices of the sizes the package's linear algebra works on.
_MATRICES = [(lambda g: g @ g.T)(_RNG.standard_normal((n, n))) for n in (4, 6, 8, 12, 16)]
_VECTOR = _RNG.standard_normal(16) + 1j * _RNG.standard_normal(16)
#: A scenario-like document for the pure-Python YAML parser.
_DOC = yaml.safe_dump({"name": "calibration", "source": {"schmidt_theta": 0.3},
                       "noise_p": 0.1, "seed": 3})


def calibration() -> float:
    """Run the fixed calibration work once; return its wall seconds."""
    t0 = time.perf_counter()
    total = len(yaml.safe_load(_DOC))
    for m in _MATRICES:
        w, v = np.linalg.eigh(m)
        total += float(np.real(v[:, -1] @ m @ v[:, 0])) + float(np.abs(w).sum())
    outer = np.outer(_VECTOR, _VECTOR.conj())
    total += float(np.real(np.trace(outer @ outer))) + float(np.linalg.norm(_VECTOR))
    return time.perf_counter() - t0


def speed_sample() -> float:
    """Warm calibration time: the fastest of REPEATS back-to-back runs."""
    return min(calibration() for _ in range(REPEATS))


def speed(n: int = 15) -> float:
    """Median of `n` speed samples, for timings made outside a Sampler."""
    return statistics.median(speed_sample() for _ in range(n))


class Sampler:
    """Speed samples taken every PERIOD_S seconds between start() and
    stop(): when each began and ended on the perf_counter clock, and its
    value."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpu: list[float] = []
        self.values: list[float] = []

    def _sample(self) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.values.append(speed_sample())
        self.cpu.append(time.process_time() - c0)
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def _fire(self, *_) -> None:
        self._sample()
        # One-shot timer, re-armed after the sample: a sample never
        # interrupts another.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        for _ in range(20):  # load the calibration's code and data
            calibration()
        self._sample()
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        """Stop sampling, with a last sample, so that even the first and
        last op of a short loop have a sample within WINDOW_S."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference_seconds(self, starts: list, ends: list, cpu: list) -> tuple[list, list]:
        """(wall seconds, reference seconds) of each op, both net of
        sampling; op i ran from starts[i] to ends[i] and used cpu[i]
        seconds of process CPU time."""
        s = np.asarray(self.starts)
        wall = np.concatenate([[0.0], np.cumsum(np.asarray(self.ends) - s)])
        used = np.concatenate([[0.0], np.cumsum(self.cpu)])
        value = np.concatenate([[0.0], np.cumsum(self.values)])
        op_s, op_e = np.asarray(starts), np.asarray(ends)
        first, last = np.searchsorted(s, op_s), np.searchsorted(s, op_e)
        net_wall = (op_e - op_s) - (wall[last] - wall[first])
        net_cpu = np.asarray(cpu) - (used[last] - used[first])
        lo = np.searchsorted(s, op_s - WINDOW_S)
        hi = np.searchsorted(s, op_e + WINDOW_S)
        if np.any(hi <= lo):
            raise RuntimeError("an op has no speed sample near it")
        mean_value = (value[hi] - value[lo]) / (hi - lo)
        return net_wall.tolist(), (net_cpu * CAL_REF_S / mean_value).tolist()
