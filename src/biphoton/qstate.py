"""Two-qubit polarization states and entanglement metrics.

States are expressed in the product basis (HH, HV, VH, VV), where H/V are
the horizontal/vertical single-photon kets. All functions are pure and
operate on immutable value objects, so they are safe to share across
threads. A value object checks its arrays when built and keeps read-only
copies of them (`_frozen`), so a later write to the caller's array leaves
it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from biphoton.scenario import _FINITE, _integer, _number

#: Two-qubit basis ordering used by every matrix and file in this package.
BASIS = ("HH", "HV", "VH", "VV")

_SQRT2 = np.sqrt(2.0)

#: Single-photon polarization kets in the (H, V) basis.
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([1.0, 1.0], dtype=complex) / _SQRT2
KET_A = np.array([1.0, -1.0], dtype=complex) / _SQRT2
KET_R = np.array([1.0, -1.0j], dtype=complex) / _SQRT2
KET_L = np.array([1.0, 1.0j], dtype=complex) / _SQRT2

SINGLE_KETS = {"H": KET_H, "V": KET_V, "D": KET_D, "A": KET_A, "R": KET_R, "L": KET_L}

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SYSY = np.kron(PAULI_Y, PAULI_Y)

_NORM_TOL = 1e-12
_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-9


def linear_ket(angle: float) -> np.ndarray:
    """Single-photon ket linearly polarized at `angle` radians from H."""
    return np.array([np.cos(angle), np.sin(angle)], dtype=complex)


def ket(which) -> np.ndarray:
    """Resolve a single-photon ket from a label (H, V, D, A, R, L) or an angle.

    A real-number argument is interpreted as a linear-polarization angle in
    radians and must be finite. Unknown labels are rejected.
    """
    if isinstance(which, str):
        try:
            return SINGLE_KETS[which].copy()
        except KeyError:
            raise ValueError(f"unknown polarization label {which!r}; "
                             f"expected one of {sorted(SINGLE_KETS)}") from None
    return linear_ket(_number(which, "angle", *_FINITE))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen(value, dtype, shape: tuple, what: str) -> np.ndarray:
    """A read-only copy of `value` as `dtype`, flattened when `shape` has
    one axis; a ValueError naming `what` when its shape is not `shape`."""
    arr = np.array(value, dtype=dtype)
    if len(shape) == 1:
        arr = arr.reshape(-1)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    return _freeze(arr)


def _unit_ket(value, size: int, what: str) -> np.ndarray:
    """`_frozen` ket of `size` complex amplitudes whose squared norm is 1
    within 1e-12; NaN fails the check."""
    vec = _frozen(value, complex, (size,), what)
    norm_sq = np.vdot(vec, vec).real
    if not abs(norm_sq - 1.0) <= _NORM_TOL:
        raise ValueError(f"{what} not normalized: |psi|^2 = {float(norm_sq)!r}")
    return vec


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized two-qubit pure state, amplitudes ordered as `BASIS`."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _unit_ket(self.amplitudes, 4, "amplitudes"))

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def _checked_density(mats: np.ndarray) -> np.ndarray:
    """The Hermitian part of each square matrix along the last two axes, once
    all of them pass the `DensityMatrix` checks; NaN fails them."""
    adjoint = mats.conj().swapaxes(-1, -2)
    if not (np.abs(mats - adjoint) <= _HERM_TOL).all():
        raise ValueError("density matrix is not Hermitian")
    traces = mats.trace(axis1=-2, axis2=-1)
    off = ~(abs(traces - 1.0) <= _TRACE_TOL)
    if off.any():
        tr = complex(np.ravel(traces)[np.argmax(off)])
        raise ValueError(f"density matrix trace {tr!r} != 1")
    mats = 0.5 * (mats + adjoint)
    if (np.linalg.eigvalsh(mats) < -_PSD_TOL).any():
        raise ValueError("density matrix has a negative eigenvalue "
                         "beyond tolerance")
    return mats


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive-semidefinite two-qubit state.

    Construction validates Hermiticity (entry-wise, 1e-10), unit trace
    (1e-10) and positivity (eigenvalues >= -1e-9, the numerical floor
    tolerated for linear-inversion outputs).
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen(self.matrix, complex, (4, 4), "density matrix")
        object.__setattr__(self, "matrix", _freeze(_checked_density(mat)))

    def to_json_dict(self) -> dict:
        """JSON form: real and imaginary parts as row-major 4x4 arrays."""
        return {
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
        return cls(re + 1j * im)


@dataclass(frozen=True)
class MetricReport:
    """Derived metrics of a state against a pure target."""

    concurrence: float
    fidelity_target: float
    purity: float
    eigen_spectrum: tuple[float, float, float, float]

    def to_json_dict(self) -> dict:
        return {
            "concurrence": self.concurrence,
            "fidelity_target": self.fidelity_target,
            "purity": self.purity,
            "eigen_spectrum": list(self.eigen_spectrum),
        }


_BELL_AMPLITUDES = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0]) / _SQRT2,
    "phi-": np.array([1.0, 0.0, 0.0, -1.0]) / _SQRT2,
    "psi+": np.array([0.0, 1.0, 1.0, 0.0]) / _SQRT2,
    "psi-": np.array([0.0, 1.0, -1.0, 0.0]) / _SQRT2,
}

# Accept the unicode spellings alongside the ASCII ones.
_BELL_ALIASES = {
    "Φ⁺": "phi+", "Φ+": "phi+",
    "Φ⁻": "phi-", "Φ-": "phi-",
    "Ψ⁺": "psi+", "Ψ+": "psi+",
    "Ψ⁻": "psi-", "Ψ-": "psi-",
}


def bell_state(kind: str) -> PureState:
    """One of the four maximally entangled Bell states.

    `kind` is "phi+", "phi-", "psi+" or "psi-" (unicode spellings are
    accepted); phi+ has amplitudes (1, 0, 0, 1)/sqrt(2).
    """
    label = _BELL_ALIASES.get(kind.strip(), kind.strip().lower())
    if label not in _BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell state label {kind!r}")
    return PureState(_BELL_AMPLITUDES[label])


def schmidt_pure(theta: float) -> PureState:
    """Schmidt-form state cos(theta)|HH> + sin(theta)|VV>, theta in [0, pi/2]."""
    theta = _number(theta, "theta", lambda v: 0.0 <= v <= np.pi / 2, "a number in [0, pi/2]")
    return PureState(np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)], dtype=complex))


def to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 density matrix |psi><psi|."""
    amps = psi.amplitudes
    return DensityMatrix(np.outer(amps, amps.conj()))


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        return rho.matrix
    # Validate raw arrays through the DensityMatrix invariants.
    return DensityMatrix(rho).matrix


def concurrence(rho) -> float:
    """Entanglement monotone C(rho) in [0, 1].

    C = max(0, l1 - l2 - l3 - l4) where l_i are the decreasingly sorted
    square roots of the eigenvalues of rho (sy x sy) conj(rho) (sy x sy).
    They are computed as the singular values of X^T (sy x sy) X with
    rho = X X^H, which avoids the precision loss of a non-Hermitian
    eigenvalue problem.
    """
    return float(_concurrence(_as_matrix(rho)))


def _concurrence(mats: np.ndarray) -> np.ndarray:
    """`concurrence` of each density matrix along the last two axes."""
    evals, evecs = np.linalg.eigh(mats)
    factor = evecs * np.sqrt(evals.clip(0.0))[..., None, :]
    lams = np.linalg.svd(factor.swapaxes(-1, -2) @ _SYSY @ factor, compute_uv=False)
    l0, l1, l2, l3 = lams.T
    # max(0.0, gap): adding 0.0 turns a -0.0 into 0.0, as max does.
    return np.maximum(l0 - l1 - l2 - l3, 0.0) + 0.0


def _depolarized_concurrence(mat: np.ndarray):
    """p -> the concurrence of (1-p) mat + p I/4, from one `eigh` of `mat`.

    White noise keeps the eigenvectors V of `mat` and maps each eigenvalue
    l to (1-p) l + p/4, so the factor of `_concurrence` becomes V D with
    D = diag(sqrt((1-p) l + p/4)) and the gap is that of the singular
    values of D (V^T (sy x sy) V) D. It agrees with `_concurrence` of the
    depolarized state to rounding (about 1e-14 at most), not bit for bit.
    """
    evals, evecs = np.linalg.eigh(mat)
    twisted = evecs.T @ _SYSY @ evecs

    def at(p: float) -> float:
        roots = np.sqrt(np.maximum((1.0 - p) * evals + 0.25 * p, 0.0))
        l0, l1, l2, l3 = np.linalg.svd(roots[:, None] * twisted * roots,
                                       compute_uv=False).tolist()
        return max(l0 - l1 - l2 - l3, 0.0)

    return at


def fidelity_with_pure(rho, psi: PureState) -> float:
    """Overlap <psi|rho|psi> of a (mixed) state with a pure target."""
    return float(_fidelity_with_pure(_as_matrix(rho), psi.amplitudes))


def _fidelity_with_pure(mats: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """`fidelity_with_pure` of each density matrix along the last two axes.
    A (1, 4) @ (4, 1) matmul gives one state and each row of a stack the
    same bits; a stacked vector product does not."""
    row = amps.conj() @ mats
    return _clip_unit(np.matmul(row[..., None, :], amps[:, None])[..., 0, 0].real)


def _clip_unit(value: np.ndarray) -> np.ndarray:
    """Each value clipped to [0, 1] as min(max(value, 0.0), 1.0) clips it,
    keeping a -0.0 and a NaN (np.minimum and np.maximum leave the sign of
    a zero unspecified)."""
    return np.where(1.0 < value, 1.0, np.where(0.0 > value, 0.0, value))


def purity(rho) -> float:
    """trace(rho^2), between 0.25 (maximally mixed) and 1 (pure)."""
    mat = _as_matrix(rho)
    return float(np.real(np.trace(mat @ mat)))


def eigen_hermitian(rho) -> tuple[np.ndarray, tuple[PureState, ...]]:
    """Spectral decomposition, eigenvalues sorted descending.

    Eigenvector phases are fixed by making the largest-magnitude component
    real and positive, so decompositions are directly comparable.
    """
    mat = _as_matrix(rho)
    evals, evecs = np.linalg.eigh(mat)
    order = np.argsort(evals)[::-1]
    evals = evals[order].real
    states = []
    for idx in order:
        vec = evecs[:, idx].copy()
        pivot = int(np.argmax(np.abs(vec)))
        phase = vec[pivot] / abs(vec[pivot])
        vec = vec / phase
        vec = vec / np.linalg.norm(vec)
        states.append(PureState(vec))
    return evals, tuple(states)


def metric_report(rho, target: PureState) -> MetricReport:
    """Bundle concurrence, target fidelity, purity and descending spectrum
    of `rho`."""
    evals = np.sort(np.linalg.eigh(_as_matrix(rho))[0])[::-1]
    return MetricReport(
        concurrence=concurrence(rho),
        fidelity_target=fidelity_with_pure(rho, target),
        purity=purity(rho),
        eigen_spectrum=tuple(float(v) for v in evals),
    )


def random_density(rng: np.random.Generator, rank: int = 4) -> DensityMatrix:
    """Random mixed state from a Ginibre factor of the given rank."""
    rank = _integer(rank, "rank", lambda v: 1 <= v <= 4, "an integer from 1 to 4")
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat))
