"""Monte-Carlo coincidence experiments: projective settings, Poissonian
counting, polarization fringes and tomography data acquisition.

Every sampled number is a deterministic function of an integer master seed:
independent streams are derived from (seed, purpose tag, item index), so
settings can be evaluated in any order (or in parallel) without changing
the outcome.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from biphoton.optics import anisotropic_coupler
from biphoton.qstate import (DensityMatrix, _checked_density, _clip_unit, _freeze,
                             _frozen, _unit_ket, ket, linear_ket)
from biphoton.scenario import _NATURAL, _UNIT, PLAN_HVDR16, _integer, _number

# Purpose tags for derived RNG streams; disjoint so that reusing one master
# seed across activities never aliases streams.
_TOMO_STREAM = 1
_FRINGE_STREAM = 2
_CHSH_STREAM = 3
_BOOTSTRAP_STREAM = 4

#: Entropy words below this fit one uint32 each.
_WORD_LIMIT = 1 << 32

#: The header row of a count-record CSV.
_CSV_HEADER = ["setting_1", "setting_2", "counts", "expected_pairs"]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), whose output
# numpy's stream-compatibility policy (NEP 19) keeps fixed. Each hash step
# xors a running constant into a word and multiplies it by the constant's
# next value: 4 + 12 steps of _STEPS_A fill and mix a pool of 4 words, the
# 8 of _STEPS_B give the 4 uint64 words.
_STEPS_A, _STEPS_B = (
    _freeze(np.array([init * pow(mult, k, _WORD_LIMIT) % _WORD_LIMIT
                      for k in range(steps + 1)], dtype=np.uint32)[:, None])
    for init, mult, steps in ((0x43B0D7E5, 0x931E8875, 16), (0x8B51F9DD, 0x58F38DED, 8)))
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
#: The pool words each pool word is mixed into, in turn.
_OTHERS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def stream(seed: int, *key: int, count: int | None = None):
    """Deterministic child generator for (seed, *key); with `count`, an
    iterator over the generators of (seed, *key, i) for i in range(count).

    The entropy words [seed, *key] seed a `SeedSequence`, which seeds a
    PCG64 generator, as `default_rng` would. Where up to 4 words below
    2**32, the index included, seed `count` streams, `_hashed_seeds` hashes
    them all at once, giving the same states at a fraction of the cost.
    Each word and `count` must be a non-negative integer by
    `scenario._integer`: a bool or a float is refused, not truncated.
    """
    words = [_integer(word, "seed", *_NATURAL) for word in (seed, *key)]
    if count is not None:
        count = _integer(count, "count", *_NATURAL)
        if len(words) < 4 and count <= _WORD_LIMIT and max(words) < _WORD_LIMIT:
            return (np.random.Generator(np.random.PCG64(_HashedSeed(row)))
                    for row in _hashed_seeds(words, count))
        return (stream(*words, i) for i in range(count))
    return np.random.default_rng(words)


class _HashedSeed(np.random.bit_generator.ISeedSequence):
    """A seed sequence that holds the 4 uint64 words PCG64 asks of it."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a hashed seed holds only generate_state(4, np.uint64)")
        return self.words


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hash step of `values` per step of the running constants `consts`."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _hashed_seeds(words: list, count: int) -> np.ndarray:
    """Row i holds `SeedSequence([*words, i]).generate_state(4, np.uint64)`
    for i in range(count), given at most 3 words below 2**32: each step of
    the hash runs once on a uint32 lane per stream, wrapping as its C
    arithmetic does. Read-only, shape (count, 4)."""
    entropy = np.zeros((4, count), dtype=np.uint32)
    entropy[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = np.arange(count, dtype=np.uint32)
    pool = _hashmix(entropy, _STEPS_A[:5])
    for src, others in enumerate(_OTHERS):
        hashed = _hashmix(pool[src], _STEPS_A[4 + 3 * src:8 + 3 * src])
        mixed = pool[others] * _MIX_L - hashed * _MIX_R
        pool[others] = mixed ^ (mixed >> _XSHIFT)
    # generate_state(4, np.uint64): 8 words cycling over the pool, read as
    # little-endian pairs.
    state = _hashmix(np.concatenate([pool, pool]), _STEPS_B)
    return _freeze(np.ascontiguousarray(state.T, dtype="<u4").view("<u8")
                   .astype(np.uint64))


def _format_label(which) -> str:
    if isinstance(which, str):
        return which
    return f"lin:{float(which):.12g}"


def parse_label(label: str) -> np.ndarray:
    """Inverse of the setting labels written to CSV."""
    if label.startswith("lin:"):
        return linear_ket(float(label[4:]))
    return ket(label)


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """Projective basis pair: one analyzer state per photon."""

    ket_1: np.ndarray
    ket_2: np.ndarray
    label_1: str
    label_2: str

    def __post_init__(self):
        for name in ("ket_1", "ket_2"):
            object.__setattr__(self, name, _unit_ket(getattr(self, name), 2, name))

    @classmethod
    def of(cls, which_1, which_2) -> "MeasurementSetting":
        """Build a setting from labels (H, V, D, A, R, L) or angles in radians."""
        return cls(ket(which_1), ket(which_2),
                   _format_label(which_1), _format_label(which_2))

    @functools.cached_property
    def pair(self) -> np.ndarray:
        """The read-only product ket ket_1 x ket_2, built on first use."""
        return _freeze(np.kron(self.ket_1, self.ket_2))

    def projector(self) -> np.ndarray:
        """Rank-1 coincidence projector P1 x P2 on the pair, read-only, built
        on each call: `tomo._plan_arrays` stacks a plan's once per process."""
        return _freeze(np.outer(self.pair, self.pair.conj()))


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one setting.

    `counts` is integer-valued for sampled data; a record of the infinite-count
    limit holds the expected count, `coincidence_probability(rho, s) * n`, which
    may be fractional. `expected_pairs` is the mean number of pairs delivered
    to the analyzers for this setting.
    """

    setting: MeasurementSetting
    counts: float
    expected_pairs: float

    def __post_init__(self):
        # Written so that NaN fails each comparison and is rejected too.
        if not 0 <= self.counts < np.inf:
            raise ValueError("counts must be finite and non-negative")
        if not 0 < self.expected_pairs < np.inf:
            raise ValueError("expected_pairs must be finite and positive")


#: The hvdr16 plan's settings, built once at import and held for the
#: process, so that no other label pair read can evict them.
_PLAN = tuple(MeasurementSetting.of(a, b) for a in "HVDR" for b in "HVDR")
_PLAN_BY_LABELS = {(setting.label_1, setting.label_2): setting for setting in _PLAN}


def tomography_plan(plan_id: str = PLAN_HVDR16) -> tuple:
    """The 16-setting plan {H,V,D,R} x {H,V,D,R}, row-major.

    The four analyzer states per photon span the single-qubit operator
    space, so the product projectors are informationally complete. Every
    call returns the same settings, which `records_from_csv` shares.
    """
    if plan_id != PLAN_HVDR16:
        raise ValueError(f"unknown tomography plan {plan_id!r}")
    return _PLAN


def coincidence_probability(rho: DensityMatrix, setting: MeasurementSetting) -> float:
    """Born-rule coincidence probability trace(rho (P1 x P2))."""
    return _probabilities(rho, setting.pair[None])[0]


def _expectations(mat: np.ndarray, kets: np.ndarray) -> np.ndarray:
    """real(<k| mat |k>) of each row k of `kets`. matmul loops over its
    stack one matrix at a time, so a row gets the bits of the row's own
    `k.conj() @ mat @ k`."""
    return ((kets.conj()[:, None, :] @ mat) @ kets[:, :, None])[:, 0, 0].real


def _probabilities(rho: DensityMatrix, pairs: np.ndarray) -> list:
    """<pair| rho |pair> of each row of `pairs`, clipped to [0, 1], as floats."""
    return _clip_unit(_expectations(rho.matrix, pairs)).tolist()


def sample_counts(p: float, mean_pairs: float, rng: np.random.Generator) -> int:
    """Poisson draw with mean p * mean_pairs from the generator `rng`; p
    lies in [0, 1] and mean_pairs is finite and non-negative."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if not 0.0 <= mean_pairs < math.inf:  # NaN fails too
        raise ValueError(f"mean_pairs must be a non-negative finite number, got {mean_pairs!r}")
    return int(rng.poisson(p * mean_pairs))


# ---------------------------------------------------------------------------
# Fringes
# ---------------------------------------------------------------------------

def polarization_angle(state: np.ndarray) -> float:
    """Orientation of the polarization ellipse major axis, in radians."""
    a, b = np.asarray(state, dtype=complex).reshape(2)
    return 0.5 * float(np.arctan2(2.0 * np.real(np.conj(a) * b),
                                  abs(a) ** 2 - abs(b) ** 2))


@dataclass(frozen=True, eq=False)
class FringeCurve:
    """Sampled or exact fringe with its fitted sinusoid.

    The fit model is c0 + c1 cos(2 theta) + c2 sin(2 theta). `visibility`
    is (max - min)/(max + min) of the sinusoid phase-locked to
    `phase_ref`, i.e. |c1 cos(2 ref) + c2 sin(2 ref)| / c0; with the
    reference at the analyzer orientation this reduces to the standard
    fringe contrast.
    """

    angles: np.ndarray
    values: np.ndarray
    offset: float
    amp_cos: float
    amp_sin: float
    phase_ref: float
    visibility: float

    def __post_init__(self):
        angles = _frozen(self.angles, float, (np.size(self.angles),), "angles")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "values", _frozen(self.values, float, angles.shape, "values"))

    @property
    def fitted_phase(self) -> float:
        """Angle at which the fitted sinusoid peaks."""
        return 0.5 * float(np.arctan2(self.amp_sin, self.amp_cos))

    @classmethod
    def fit(cls, angles, values, phase_ref: float = 0.0) -> "FringeCurve":
        """Least-squares sinusoid fit over the 2-theta harmonic."""
        theta = np.asarray(angles, dtype=float)
        vals = np.asarray(values, dtype=float)
        if theta.shape != vals.shape or theta.size < 3:
            raise ValueError("need matching angle/value arrays of length >= 3")
        design = np.column_stack(
            [np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta)])
        c0, c1, c2 = np.linalg.lstsq(design, vals, rcond=None)[0]
        locked = c1 * np.cos(2.0 * phase_ref) + c2 * np.sin(2.0 * phase_ref)
        vis = abs(locked) / c0 if c0 > 1e-15 else 0.0
        return cls(theta, vals, float(c0), float(c1), float(c2),
                   float(phase_ref), float(min(vis, 1.0)))


def leak_fraction_for_extinction(extinction: float,
                                 eta_h: float = 1.0,
                                 eta_v: float = 1.0) -> float:
    """V-leak fraction of a nominally H input giving the target extinction.

    The max/min ratio of the transmitted fringe after the coupler is
    eta_h (1 - eps) / (eta_v eps); solve for eps. The efficiencies lie in
    [0, 1], not both 0; at eta_v = 0 every extinction gives eps = 1.
    """
    extinction = _number(extinction, "extinction", lambda v: v > 1.0, "a number above 1")
    eta_h, eta_v = _number(eta_h, "eta_h", *_UNIT), _number(eta_v, "eta_v", *_UNIT)
    if eta_h == eta_v == 0.0:
        raise ValueError("eta_h and eta_v are both 0: no photon is transmitted")
    return 1.0 if eta_v == 0.0 else eta_h / (eta_h + extinction * eta_v)


def h_state_with_leak(leak: float) -> np.ndarray:
    """Single-photon mixed state diag(1 - leak, leak): H with a V admixture."""
    leak = _number(leak, "leak", lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")
    return np.diag([1.0 - leak, leak]).astype(complex)


def _qubit_density(state) -> np.ndarray:
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (2,):
        return np.outer(_unit_ket(arr, 2, "single-photon ket"), arr.conj())
    if arr.shape == (2, 2):
        # Written so that NaN fails the comparison and is rejected too.
        if not abs(np.trace(arr).real - 1.0) <= 1e-12:
            raise ValueError("single-photon density matrix must have trace 1")
        _checked_density(arr)  # DensityMatrix's checks; arr is used as given
        return arr
    raise ValueError("single-photon state must be a 2-ket or a 2x2 matrix")


def _scan_angles(angles) -> np.ndarray:
    theta = np.asarray(angles, dtype=float)
    if theta.ndim != 1:
        raise ValueError(f"analyzer angles must form a 1-D array, got shape {theta.shape}")
    return theta


def single_photon_fringe(input_state, eta_h: float, eta_v: float,
                         analyzer_angles) -> FringeCurve:
    """Transmitted probability vs analyzer angle, coupler then polarizer.

    `input_state` is a single-photon ket or 2x2 density matrix. The fringe
    phase reference is the H axis, matching a horizontally polarized probe.
    """
    rho = _qubit_density(input_state)
    coupling = anisotropic_coupler(eta_h, eta_v).operators[0]
    out = coupling @ rho @ coupling.conj().T
    theta = _scan_angles(analyzer_angles)
    return FringeCurve.fit(theta, _expectations(out, linear_ket(theta).T), phase_ref=0.0)


def biphoton_fringe(rho: DensityMatrix, fixed, scan_angles,
                    mean_pairs: float | None = None,
                    seed: int | None = None) -> FringeCurve:
    """Coincidence fringe: photon 1 projected onto `fixed`, photon 2 scanned.

    With `mean_pairs` (and a seed) the curve holds Poisson-sampled counts;
    otherwise it holds exact probabilities, the infinite-count limit. The
    fringe phase reference is the fixed analyzer's orientation.
    """
    fixed_ket = ket(fixed) if isinstance(fixed, str) else _unit_ket(fixed, 2, "fixed ket")
    theta = _scan_angles(scan_angles)
    # The pair kets np.kron(fixed_ket, linear_ket(angle)), one row per angle.
    pairs = (fixed_ket[:, None] * linear_ket(theta).T[:, None, :]).reshape(-1, 4)
    probs = _probabilities(rho, pairs)
    ref = polarization_angle(fixed_ket)
    if mean_pairs is None:
        return FringeCurve.fit(theta, probs, phase_ref=ref)
    if seed is None:
        raise ValueError("sampled fringes need a seed")
    return FringeCurve.fit(theta, _draws(probs, mean_pairs, seed, _FRINGE_STREAM),
                           phase_ref=ref)


# ---------------------------------------------------------------------------
# Tomography acquisition
# ---------------------------------------------------------------------------

def _draws(probs: list, mean_pairs: float, seed: int, tag: int) -> list:
    """Poisson counts, the i-th drawn from the stream (seed, tag, i)."""
    return [float(sample_counts(p, mean_pairs, rng))
            for p, rng in zip(probs, stream(seed, tag, count=len(probs)))]


def _records(rho: DensityMatrix, settings, mean_pairs: float, seed: int, tag: int) -> list:
    """One CountRecord per setting, its count a Poisson draw from the stream
    (seed, tag, setting index)."""
    probs = _probabilities(rho, np.array([setting.pair for setting in settings]))
    return [CountRecord(setting, c, float(mean_pairs))
            for setting, c in zip(settings, _draws(probs, mean_pairs, seed, tag))]


def acquire_tomography(rho: DensityMatrix, settings, mean_pairs: float,
                       seed: int) -> list:
    """Sample one CountRecord per setting.

    Each setting draws from its own stream (seed, tag, setting index), so
    records are reproducible and independent of evaluation order.
    """
    settings = tuple(settings)
    if len(settings) != 16:
        raise ValueError(f"tomography plan must have 16 settings, got {len(settings)}")
    return _records(rho, settings, mean_pairs, seed, _TOMO_STREAM)


def _open_in_place(path, flags: int) -> int:
    """`os.open` for `open`'s "w" mode without O_TRUNC: an existing file
    keeps its length until `write_artifact` cuts it."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def write_artifact(path, text: str, newline: str | None = None) -> None:
    """Write `text` to `path` through the text layer of `open(path, "w")`.

    A new file is created as `open` creates it. An existing one is
    overwritten in place and then cut to the new length, never truncated
    to zero first: on ext4 a truncate-and-rewrite costs several times the
    write. A crash mid-write can leave a partly rewritten file, which
    writing it again repairs. `newline` is `open`'s.
    """
    with open(path, "w", newline=newline, opener=_open_in_place) as fh:
        fh.write(text)
        fh.truncate()


def records_to_csv(records, path) -> None:
    """Write records as CSV columns setting_1, setting_2, counts, expected_pairs."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(_CSV_HEADER)
    for rec in records:
        writer.writerow([rec.setting.label_1, rec.setting.label_2,
                         repr(rec.counts), repr(rec.expected_pairs)])
    write_artifact(path, buffer.getvalue(), newline="")


@functools.lru_cache(maxsize=64)
def _labelled_setting(label_1: str, label_2: str) -> MeasurementSetting:
    """The setting of a label pair that `records_from_csv` shares: the
    plan's own for its 16 pairs, however many others were read; any other
    is built once and kept while among the 64 pairs last read. Frozen, its
    kets read-only. Labels are the key, so lin:0 and lin:-0 stay two
    settings; a label that fails to parse raises each time, as nothing is
    cached for it."""
    return _PLAN_BY_LABELS.get((label_1, label_2)) or MeasurementSetting(
        parse_label(label_1), parse_label(label_2), label_1, label_2)


def records_from_csv(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _CSV_HEADER:
        raise ValueError(f"{path} is not a count-record CSV")
    records = []
    for line, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            label_1, label_2, counts, pairs = row
            records.append(CountRecord(_labelled_setting(label_1, label_2),
                                       float(counts), float(pairs)))
        except ValueError as exc:
            raise ValueError(f"{path}, line {line}: {exc}") from None
    return records
