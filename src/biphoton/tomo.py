"""Density-matrix reconstruction from coincidence counts.

A linear (Gram-inverse) estimate seeds a maximum-likelihood refinement
over a Cholesky parameterization, which keeps the iterate physical by
construction. The likelihood is the Gaussian approximation of Poissonian
counting statistics; its gradient is analytic. Bootstrap resampling of the
counts attaches standard deviations to every derived metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from biphoton import bell
from biphoton.qstate import (PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix,
                             MetricReport, PureState, bell_state, concurrence,
                             fidelity_with_pure, metric_report)
from biphoton.sim import _BOOTSTRAP_STREAM, stream

_PROB_FLOOR = 1e-12
# L-BFGS-B stops when the objective improves by less than this per iteration.
_FTOL = 1e-9
_GRAM_COND_LIMIT = 1e6
_INIT_EIGEN_FLOOR = 1e-6

# Orthonormal Hermitian basis: Pauli products / 2, so tr(G_k G_l) = delta_kl.
_HERM_BASIS = np.stack([
    np.kron(a, b) / 2.0
    for a in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)
    for b in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)])

_EYE4 = np.eye(4)

# Parameter order: the real diagonal t[0:4], then (re, im) pairs of the
# lower-triangular entries (1,0), (2,0), (2,1), (3,0), (3,1), (3,2).
_DIAG = np.arange(4)
_LOWER_ROWS, _LOWER_COLS = np.tril_indices(4, -1)


@dataclass(frozen=True, eq=False)
class CholeskyParams:
    """16 real parameters of a lower-triangular T with rho = T T^H / tr."""

    t: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float).reshape(-1)
        if t.shape != (16,):
            raise ValueError("Cholesky parameterization needs 16 reals")
        t.setflags(write=False)
        object.__setattr__(self, "t", t)

    def density(self) -> DensityMatrix:
        return DensityMatrix(_density_from_params(self.t))


def _lower_from_params(t: np.ndarray) -> np.ndarray:
    tri = np.zeros((4, 4), dtype=complex)
    tri[_DIAG, _DIAG] = t[0:4]
    tri[_LOWER_ROWS, _LOWER_COLS] = t[4::2] + 1j * t[5::2]
    return tri


def _params_from_lower(tri: np.ndarray) -> np.ndarray:
    """The 16 reals of the diagonal and lower triangle, in parameter order."""
    t = np.empty(16)
    t[0:4] = tri[_DIAG, _DIAG].real
    lower = tri[_LOWER_ROWS, _LOWER_COLS]
    t[4::2] = lower.real
    t[5::2] = lower.imag
    return t


def _density_from_params(t: np.ndarray) -> np.ndarray:
    tri = _lower_from_params(t)
    gram = tri @ tri.conj().T
    return gram / np.real(np.trace(gram))


def params_from_density(rho, floor: float = _INIT_EIGEN_FLOOR) -> CholeskyParams:
    """Parameters whose induced state matches `rho` after flooring eigenvalues.

    Eigenvalues below `floor` are raised to it (and the state renormalized)
    so the Cholesky factor exists even for rank-deficient inputs.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, floor, None)
    mat = (evecs * evals) @ evecs.conj().T
    mat /= np.real(np.trace(mat))
    return CholeskyParams(_params_from_lower(np.linalg.cholesky(mat)))


def record_arrays(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    projectors = np.stack([rec.setting.projector() for rec in records])
    counts = np.array([rec.counts for rec in records], dtype=float)
    pairs = np.array([rec.expected_pairs for rec in records], dtype=float)
    return projectors, counts, pairs


def _design_matrix(projectors: np.ndarray) -> np.ndarray | None:
    """Real design matrix tr(P_n G_k), or None when the projectors do not
    span the operator space (condition number above 1e6)."""
    design = np.real(np.einsum("nij,kji->nk", projectors, _HERM_BASIS))
    singulars = np.linalg.svd(design, compute_uv=False)
    if singulars[-1] <= 0 or singulars[0] / singulars[-1] > _GRAM_COND_LIMIT:
        return None
    return design


def _linear_start(design: np.ndarray | None, counts: np.ndarray,
                  pairs: np.ndarray) -> np.ndarray:
    """Linear-inversion estimate, or the maximally mixed state when `design`
    is None or the estimate's trace (the summed H/V-basis frequencies) does
    not exceed the probability floor."""
    if design is not None:
        freqs = counts / pairs
        coeffs = np.linalg.lstsq(design, freqs, rcond=None)[0]
        mat = np.einsum("k,kij->ij", coeffs, _HERM_BASIS)
        mat = 0.5 * (mat + mat.conj().T)
        trace = np.real(np.trace(mat))
        if trace > _PROB_FLOOR:
            return mat / trace
    return np.eye(4, dtype=complex) / 4.0


def linear_inversion(records) -> np.ndarray:
    """Gram-inverse estimate from count frequencies.

    Returns a Hermitian, unit-trace 4x4 matrix that may carry small
    negative eigenvalues, or the maximally mixed state when the H/V-basis
    counts are all zero. Rejects plans whose projectors do not span the
    operator space (condition number above 1e6).
    """
    projectors, counts, pairs = record_arrays(records)
    design = _design_matrix(projectors)
    if design is None:
        raise ValueError("measurement plan is rank deficient: projectors do "
                         "not span the two-qubit operator space")
    return _linear_start(design, counts, pairs)


def objective_and_gradient(t: np.ndarray, counts: np.ndarray,
                           pairs: np.ndarray,
                           projectors: np.ndarray) -> tuple[float, np.ndarray]:
    """Gaussian-approximation Poisson objective and its analytic gradient.

    objective = sum_v (n_v - N_v p_v)^2 / (2 N_v max(p_v, floor)) over the
    records; the gradient is with respect to the 16 Cholesky parameters.
    """
    tri = _lower_from_params(np.asarray(t, dtype=float))
    gram = tri @ tri.conj().T
    trace = float(gram.trace().real)
    rho = gram / trace
    probs = np.einsum("nij,ji->n", projectors, rho).real
    floored = np.maximum(probs, _PROB_FLOOR)
    residuals = counts - pairs * probs
    value = float((residuals ** 2 / (2.0 * pairs * floored)).sum())

    # d(objective)/d(p_v); the floor freezes the denominator when active.
    dldp = -residuals / floored
    dldp = np.where(probs > _PROB_FLOOR,
                    dldp - residuals ** 2 / (2.0 * pairs * floored ** 2), dldp)

    weight = np.einsum("n,nij->ij", dldp, projectors)
    weight = (weight - (dldp * probs).sum() * _EYE4) / trace
    gmat = 2.0 * weight @ tri
    return value, _params_from_lower(gmat)


@dataclass(frozen=True)
class TomographyResult:
    """Reconstructed state with metrics, diagnostics and (optional) errors."""

    rho: DensityMatrix
    metrics: MetricReport
    uncertainties: dict | None
    likelihood: float
    iterations: int
    converged: bool
    plan_id: str | None
    objective_trace: tuple

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho.to_json_dict(),
            "metrics": self.metrics.to_json_dict(),
            "uncertainties": self.uncertainties,
            "likelihood": self.likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "plan": self.plan_id,
        }


def _fit(projectors: np.ndarray, counts: np.ndarray, pairs: np.ndarray,
         init_mat: np.ndarray, max_iterations: int = 10_000):
    """L-BFGS-B minimization of the objective from `init_mat`.

    Returns the scipy result, the reconstructed state and the objective at
    the start and after every iteration.
    """
    t0 = params_from_density(init_mat).t

    def fun(t):
        return objective_and_gradient(t, counts, pairs, projectors)

    trace_values = [fun(t0)[0]]

    def record_iterate(intermediate_result):
        trace_values.append(intermediate_result.fun)

    res = minimize(fun, t0, jac=True, method="L-BFGS-B",
                   callback=record_iterate,
                   options={"maxiter": max_iterations, "ftol": _FTOL,
                            "gtol": 1e-10, "maxfun": 10 * max_iterations})
    return res, CholeskyParams(res.x).density(), trace_values


def mle_reconstruct(records, init=None, *, target: PureState | None = None,
                    plan_id: str | None = None,
                    max_iterations: int = 10_000) -> TomographyResult:
    """Maximum-likelihood reconstruction over the Cholesky parameterization.

    `init` seeds the optimizer (matrix or DensityMatrix); by default the
    linear-inversion estimate is used, falling back to the maximally mixed
    state when the plan is ill-conditioned for inversion. The optimizer is
    L-BFGS-B with the analytic gradient; it stops when the objective
    improvement per iteration falls below 1e-9 or at `max_iterations`
    (in which case the result is flagged via `converged=False`).

    `target` selects the pure state the fidelity metric is reported
    against (default: phi+).
    """
    records = list(records)
    if not records:
        raise ValueError("no records to reconstruct from")
    projectors, counts, pairs = record_arrays(records)
    if target is None:
        target = bell_state("phi+")

    if init is None:
        init_mat = _linear_start(_design_matrix(projectors), counts, pairs)
    else:
        init_mat = init.matrix if isinstance(init, DensityMatrix) else np.asarray(init, dtype=complex)
    res, rho, trace_values = _fit(projectors, counts, pairs, init_mat,
                                  max_iterations)
    converged = bool(res.success) and res.nit < max_iterations
    return TomographyResult(
        rho=rho,
        metrics=metric_report(rho, target),
        uncertainties=None,
        likelihood=float(res.fun),
        iterations=int(res.nit),
        converged=converged,
        plan_id=plan_id,
        objective_trace=tuple(trace_values),
    )


def bootstrap_errors(records, replicas: int = 200, seed: int = 0, *,
                     resample: bool = True, target: PureState | None = None,
                     plan: "bell.ChshPlan | None" = None) -> dict:
    """Standard deviations of concurrence, fidelity and S over resampled data.

    Each replica redraws every count as Poisson(n_v) (stream derived from
    (seed, replica index)), re-runs the reconstruction from its own
    linear-inversion start and recomputes the metrics; `resample=False`
    replays the original counts, which must give identically zero spread.
    The CHSH statistic is evaluated on each replica's state at `plan`
    (default: the optimal analyzer set).
    """
    if replicas < 2:
        raise ValueError("bootstrap needs at least 2 replicas")
    projectors, counts, pairs = record_arrays(list(records))
    design = _design_matrix(projectors)
    if target is None:
        target = bell_state("phi+")
    if plan is None:
        plan = bell.OPTIMAL_PLAN
    conc = np.empty(replicas)
    fid = np.empty(replicas)
    s_val = np.empty(replicas)
    for r in range(replicas):
        if resample:
            replica = stream(seed, _BOOTSTRAP_STREAM, r).poisson(counts).astype(float)
        else:
            replica = counts
        _, rho, _ = _fit(projectors, replica, pairs,
                         _linear_start(design, replica, pairs))
        conc[r] = concurrence(rho)
        fid[r] = fidelity_with_pure(rho, target)
        s_val[r] = bell.chsh_S(rho, plan).S
    return {
        "concurrence": float(np.std(conc, ddof=1)),
        "fidelity": float(np.std(fid, ddof=1)),
        "S": float(np.std(s_val, ddof=1)),
    }
