"""Polarization optics: waveplates, polarizers and lossy anisotropic couplers.

Single-photon elements are 2x2 operators in the (H, V) basis. Lossy
elements are Kraus channels that may be trace-decreasing; applying one to
a two-photon state yields the renormalized (post-selected) state together
with the success probability, mirroring coincidence detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from biphoton.qstate import DensityMatrix, PureState, _frozen, linear_ket, schmidt_pure
from biphoton.scenario import _ARM, _FINITE, _FINITE_POSITIVE, _UNIT, _integer, _number

_UNITARY_TOL = 1e-12
_CP_TOL = 1e-10
_ANNIHILATION_TOL = 1e-12


class AnnihilatedStateError(ValueError):
    """The channel output has (numerically) zero trace: nothing survives."""


def rotation(angle: float) -> np.ndarray:
    """2x2 rotation of the polarization plane by `angle` radians, a finite number."""
    angle = _number(angle, "angle", *_FINITE)
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


@dataclass(frozen=True, eq=False)
class JonesOperator:
    """2x2 polarization transform in the (H, V) basis."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           _frozen(self.matrix, complex, (2, 2), "Jones operator"))

    def is_unitary(self, tol: float = _UNITARY_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(2))) <= tol)


def waveplate(retardance: float, angle: float) -> JonesOperator:
    """Rotated retarder with the fast axis at `angle` radians from H.

    retardance pi is a half-wave plate, pi/2 a quarter-wave plate.
    """
    half = _number(retardance, "retardance", *_FINITE) / 2.0
    core = np.diag([np.exp(-1j * half), np.exp(1j * half)])
    rot = rotation(angle)
    return JonesOperator(rot @ core @ rot.conj().T)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive, trace non-increasing map on one photon.

    `arm` selects which photon of the pair the channel acts on (1 or 2,
    kept as a Python int). The operators satisfy sum(K^H K) <= I within 1e-10.
    """

    operators: tuple
    arm: int = 1

    def __post_init__(self):
        ops = tuple(_frozen(op, complex, (2, 2), "Kraus operator") for op in self.operators)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        object.__setattr__(self, "arm", _integer(self.arm, "arm", *_ARM))
        total = sum(op.conj().T @ op for op in ops)
        slack = np.linalg.eigvalsh(np.eye(2) - total)
        # Written so that NaN fails the comparison and is rejected too.
        if not float(slack.min()) >= -_CP_TOL:
            raise ValueError("Kraus operators exceed trace preservation "
                             "(sum K^H K > I)")
        object.__setattr__(self, "operators", ops)

    @classmethod
    def from_jones(cls, op: JonesOperator, arm: int = 1) -> "KrausChannel":
        return cls((op.matrix,), arm)

    @classmethod
    def identity(cls, arm: int = 1) -> "KrausChannel":
        return cls((np.eye(2, dtype=complex),), arm)


@dataclass(frozen=True)
class ChannelOutcome:
    """Renormalized channel output and the probability of surviving it."""

    state: DensityMatrix
    success_probability: float


def polarizer(angle: float, arm: int = 1) -> KrausChannel:
    """Ideal linear polarizer: projector onto the ket at a finite `angle` from H."""
    vec = linear_ket(_number(angle, "angle", *_FINITE))
    return KrausChannel((np.outer(vec, vec.conj()),), arm)


def anisotropic_coupler(eta_h: float, eta_v: float, arm: int = 1) -> KrausChannel:
    """Polarization-dependent lossy coupler diag(sqrt(eta_h), sqrt(eta_v)).

    Models a junction whose transmission differs for H and V photons,
    e.g. an asymmetric contact between a fiber taper and a nanowire.
    """
    eta_h, eta_v = _number(eta_h, "eta_h", *_UNIT), _number(eta_v, "eta_v", *_UNIT)
    op = np.diag([np.sqrt(eta_h), np.sqrt(eta_v)]).astype(complex)
    return KrausChannel((op,), arm)


def _lift(op: np.ndarray, arm: int) -> np.ndarray:
    """`op` on one arm of the pair, the identity on the other: bit-equal to
    `np.kron(op, eye)` (arm 1) or `np.kron(eye, op)` (arm 2), which multiply
    the same pairs, at a fifth of its cost."""
    eye = np.eye(2, dtype=complex)
    if arm == 1:
        return (op[:, None, :, None] * eye[None, :, None, :]).reshape(4, 4)
    return (eye[:, None, :, None] * op[None, :, None, :]).reshape(4, 4)


def apply_channel(rho: DensityMatrix, ch: KrausChannel) -> ChannelOutcome:
    """Apply a single-photon channel to one arm of a two-photon state.

    Returns the renormalized output and the success probability (trace of
    the unnormalized output). Raises AnnihilatedStateError when the trace
    underflows, e.g. a polarizer fully crossed with the input.
    """
    out = np.zeros((4, 4), dtype=complex)
    for op in ch.operators:
        big = _lift(op, ch.arm)
        out += big @ rho.matrix @ big.conj().T
    weight = float(np.real(np.trace(out)))
    if weight < _ANNIHILATION_TOL:
        raise AnnihilatedStateError(
            f"channel annihilated the state (trace {weight!r})")
    return ChannelOutcome(DensityMatrix(out / weight), weight)


def apply_chain(rho: DensityMatrix, channels) -> ChannelOutcome:
    """Apply channels in order; success probabilities multiply."""
    state = rho
    success = 1.0
    for ch in channels:
        outcome = apply_channel(state, ch)
        state = outcome.state
        success *= outcome.success_probability
    return ChannelOutcome(state, success)


def depolarize(rho: DensityMatrix, p: float) -> DensityMatrix:
    """Isotropic white-noise admixture (1-p) rho + p I/4."""
    p = _number(p, "p", *_UNIT)
    return DensityMatrix((1.0 - p) * rho.matrix + p * np.eye(4) / 4.0)


def pump_compensation(eta_h: float, eta_v: float) -> float:
    """Pump angle theta with tan(theta) = sqrt(eta_h / eta_v).

    Feeding cos(theta)|HH> + sin(theta)|VV> into the coupler and
    post-selecting on coincidences restores the balanced Bell state: the
    arm with the weaker transmission gets the larger input amplitude.
    """
    eta_h = _number(eta_h, "eta_h", *_FINITE_POSITIVE)
    eta_v = _number(eta_v, "eta_v", *_FINITE_POSITIVE)
    return float(np.arctan(np.sqrt(eta_h / eta_v)))


def compensated_source(eta_h: float, eta_v: float) -> PureState:
    """Schmidt input state that the coupler maps back onto phi+."""
    return schmidt_pure(pump_compensation(eta_h, eta_v))


def transmission_fringe(eta_h: float, eta_v: float, angles) -> np.ndarray:
    """Transmitted power for linear input polarization at each angle.

    T(theta) = eta_h cos^2(theta) + eta_v sin^2(theta); the curve is flat
    exactly when the two efficiencies coincide; each lies in [0, 1].
    """
    eta_h, eta_v = _number(eta_h, "eta_h", *_UNIT), _number(eta_v, "eta_v", *_UNIT)
    theta = np.asarray(angles, dtype=float)
    return eta_h * np.cos(theta) ** 2 + eta_v * np.sin(theta) ** 2
