"""Monte-Carlo coincidence experiments: projective settings, Poissonian
counting, polarization fringes and tomography data acquisition.

Every sampled number is a deterministic function of an integer master seed:
independent streams are derived from (seed, purpose tag, item index), so
settings can be evaluated in any order (or in parallel) without changing
the outcome.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from biphoton.optics import anisotropic_coupler
from biphoton.qstate import DensityMatrix, ket, linear_ket

# Purpose tags for derived RNG streams; disjoint so that reusing one master
# seed across activities never aliases streams.
_TOMO_STREAM = 1
_FRINGE_STREAM = 2
_CHSH_STREAM = 3
_BOOTSTRAP_STREAM = 4

#: Identifier of the default 16-setting tomography plan.
PLAN_HVDR16 = "hvdr16"

_PLAN_LABELS = ("H", "V", "D", "R")


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child generator for (seed, *key)."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _format_label(which) -> str:
    if isinstance(which, str):
        return which
    return f"lin:{float(which):.12g}"


def parse_label(label: str) -> np.ndarray:
    """Inverse of the setting labels written to CSV."""
    if label.startswith("lin:"):
        return linear_ket(float(label[4:]))
    return ket(label)


def _pair_ket(ket_1: np.ndarray, ket_2: np.ndarray) -> np.ndarray:
    """The product ket ket_1 x ket_2: bit-equal to `np.kron` of two 2-kets,
    which multiplies the same pairs, at a tenth of its cost."""
    return (ket_1[:, None] * ket_2).reshape(4)


@dataclass(frozen=True, eq=False)
class MeasurementSetting:
    """Projective basis pair: one analyzer state per photon."""

    ket_1: np.ndarray
    ket_2: np.ndarray
    label_1: str
    label_2: str

    def __post_init__(self):
        for name in ("ket_1", "ket_2"):
            vec = np.asarray(getattr(self, name), dtype=complex).reshape(-1)
            if vec.shape != (2,):
                raise ValueError(f"{name} must be a single-photon ket")
            if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
                raise ValueError(f"{name} is not normalized")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)

    @classmethod
    def of(cls, which_1, which_2) -> "MeasurementSetting":
        """Build a setting from labels (H, V, D, A, R, L) or angles in radians."""
        return cls(ket(which_1), ket(which_2),
                   _format_label(which_1), _format_label(which_2))

    def projector(self) -> np.ndarray:
        """Rank-1 coincidence projector P1 x P2 on the pair."""
        pair = _pair_ket(self.ket_1, self.ket_2)
        return np.outer(pair, pair.conj())


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts for one setting.

    `counts` is integer-valued for sampled data; exact-probability records
    (the infinite-count limit) store the expected count, which may be
    fractional. `expected_pairs` is the mean number of pairs delivered to
    the analyzers for this setting.
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


def tomography_plan(plan_id: str = PLAN_HVDR16) -> tuple:
    """The 16-setting plan {H,V,D,R} x {H,V,D,R}, row-major.

    The four analyzer states per photon span the single-qubit operator
    space, so the product projectors are informationally complete.
    """
    if plan_id != PLAN_HVDR16:
        raise ValueError(f"unknown tomography plan {plan_id!r}")
    return tuple(MeasurementSetting.of(a, b)
                 for a in _PLAN_LABELS for b in _PLAN_LABELS)


def coincidence_probability(rho: DensityMatrix, setting: MeasurementSetting) -> float:
    """Born-rule coincidence probability trace(rho (P1 x P2))."""
    return _pair_probability(rho, _pair_ket(setting.ket_1, setting.ket_2))


def _pair_probability(rho: DensityMatrix, pair: np.ndarray) -> float:
    """<pair| rho |pair>, clipped to [0, 1]."""
    value = float(np.real(pair.conj() @ rho.matrix @ pair))
    return min(max(value, 0.0), 1.0)


def sample_counts(p: float, mean_pairs: float, seed) -> int:
    """Poisson draw with mean p * mean_pairs.

    `seed` is an integer or a numpy Generator; equal integer seeds replay
    identical counts.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    if mean_pairs < 0:
        raise ValueError("mean_pairs must be non-negative")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
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
        for name in ("angles", "values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
    eta_h (1 - eps) / (eta_v eps); solve for eps.
    """
    if extinction <= 1.0:
        raise ValueError("extinction ratio must exceed 1")
    return eta_h / (eta_h + extinction * eta_v)


def h_state_with_leak(leak: float) -> np.ndarray:
    """Single-photon mixed state diag(1 - leak, leak): H with a V admixture."""
    if not 0.0 <= leak < 1.0:
        raise ValueError("leak fraction must lie in [0, 1)")
    return np.diag([1.0 - leak, leak]).astype(complex)


def _qubit_ket(state) -> np.ndarray:
    vec = np.asarray(state, dtype=complex).reshape(-1)
    if vec.shape != (2,):
        raise ValueError("expected a single-photon ket")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-12:
        raise ValueError("single-photon ket is not normalized")
    return vec


def _qubit_density(state) -> np.ndarray:
    arr = np.asarray(state, dtype=complex)
    if arr.shape == (2,):
        return np.outer(_qubit_ket(arr), arr.conj())
    if arr.shape == (2, 2):
        if abs(np.trace(arr).real - 1.0) > 1e-12:
            raise ValueError("single-photon density matrix must have trace 1")
        return arr
    raise ValueError("single-photon state must be a 2-ket or a 2x2 matrix")


def single_photon_fringe(input_state, eta_h: float, eta_v: float,
                         analyzer_angles) -> FringeCurve:
    """Transmitted probability vs analyzer angle, coupler then polarizer.

    `input_state` is a single-photon ket or 2x2 density matrix. The fringe
    phase reference is the H axis, matching a horizontally polarized probe.
    """
    rho = _qubit_density(input_state)
    coupling = anisotropic_coupler(eta_h, eta_v).operators[0]
    out = coupling @ rho @ coupling.conj().T
    theta = np.asarray(analyzer_angles, dtype=float)
    values = np.empty_like(theta)
    for i, ang in enumerate(theta):
        analyzer = linear_ket(ang)
        values[i] = float(np.real(analyzer.conj() @ out @ analyzer))
    return FringeCurve.fit(theta, values, phase_ref=0.0)


def biphoton_fringe(rho: DensityMatrix, fixed, scan_angles,
                    mean_pairs: float | None = None,
                    seed: int | None = None) -> FringeCurve:
    """Coincidence fringe: photon 1 projected onto `fixed`, photon 2 scanned.

    With `mean_pairs` (and a seed) the curve holds Poisson-sampled counts;
    otherwise it holds exact probabilities, the infinite-count limit. The
    fringe phase reference is the fixed analyzer's orientation.
    """
    fixed_ket = ket(fixed) if isinstance(fixed, str) else _qubit_ket(fixed)
    theta = np.asarray(scan_angles, dtype=float)
    probs = np.array([_pair_probability(rho, _pair_ket(fixed_ket, linear_ket(ang)))
                      for ang in theta])
    ref = polarization_angle(fixed_ket)
    if mean_pairs is None:
        return FringeCurve.fit(theta, probs, phase_ref=ref)
    if seed is None:
        raise ValueError("sampled fringes need a seed")
    values = np.array([
        float(sample_counts(p, mean_pairs, stream(seed, _FRINGE_STREAM, i)))
        for i, p in enumerate(probs)])
    return FringeCurve.fit(theta, values, phase_ref=ref)


# ---------------------------------------------------------------------------
# Tomography acquisition
# ---------------------------------------------------------------------------

def _check_plan(settings) -> tuple:
    settings = tuple(settings)
    if len(settings) != 16:
        raise ValueError(f"tomography plan must have 16 settings, "
                         f"got {len(settings)}")
    return settings


def acquire_tomography(rho: DensityMatrix, settings, mean_pairs: float,
                       seed: int) -> list:
    """Sample one CountRecord per setting.

    Each setting draws from its own stream (seed, tag, setting index), so
    records are reproducible and independent of evaluation order.
    """
    settings = _check_plan(settings)
    records = []
    for i, setting in enumerate(settings):
        p = coincidence_probability(rho, setting)
        n = sample_counts(p, mean_pairs, stream(seed, _TOMO_STREAM, i))
        records.append(CountRecord(setting, float(n), float(mean_pairs)))
    return records


def exact_tomography(rho: DensityMatrix, settings, mean_pairs: float) -> list:
    """Infinite-count records: counts equal probability * mean_pairs."""
    settings = _check_plan(settings)
    return [CountRecord(s, coincidence_probability(rho, s) * mean_pairs,
                        float(mean_pairs))
            for s in settings]


def records_to_csv(records, path) -> None:
    """Write records as CSV columns setting_1, setting_2, counts, expected_pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["setting_1", "setting_2", "counts", "expected_pairs"])
        for rec in records:
            writer.writerow([rec.setting.label_1, rec.setting.label_2,
                             repr(rec.counts), repr(rec.expected_pairs)])


def records_from_csv(path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["setting_1", "setting_2", "counts", "expected_pairs"]:
        raise ValueError(f"{path} is not a count-record CSV")
    records = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            raise ValueError(f"{path}, line {line}: expected 4 fields, got {len(row)}")
        label_1, label_2, counts, pairs = row
        setting = MeasurementSetting(parse_label(label_1), parse_label(label_2),
                                     label_1, label_2)
        records.append(CountRecord(setting, float(counts), float(pairs)))
    return records
