"""Density-matrix reconstruction from coincidence counts.

A linear (Gram-inverse) estimate seeds a maximum-likelihood refinement
over a Cholesky parameterization, which keeps the iterate physical by
construction. The likelihood is the Gaussian approximation of Poissonian
counting statistics; its gradient is analytic. Bootstrap resampling of the
counts attaches standard deviations to every derived metric.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from biphoton import bell
from biphoton.qstate import (PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix,
                             MetricReport, PureState, bell_state, concurrence,
                             fidelity_with_pure, metric_report)
from biphoton.sim import _BOOTSTRAP_STREAM, stream

_PROB_FLOOR = 1e-12
# L-BFGS-B stops when the objective improves by less than this per iteration
# or when no gradient component exceeds _GTOL; it keeps _LBFGSB_MEMORY
# correction pairs and tries at most _LBFGSB_MAXLS steps per line search.
_FTOL = 1e-9
_GTOL = 1e-10
_LBFGSB_MEMORY = 10
_LBFGSB_MAXLS = 20
# setulb's task codes: evaluate f and g at x, new iterate, converged, stopped.
_TASK_FG, _TASK_NEW_X, _TASK_CONVERGED, _TASK_STOP = 3, 1, 4, 5
_STOP_MAXITER, _STOP_MAXFUN = 504, 502
# Solver states in flight at a time: a fit that ends frees its slot for the
# next waiting bootstrap replica. Each slot holds about 16 kB of solver state,
# so the slot count bounds peak memory.
_FIT_SLOTS = 64
_GRAM_COND_LIMIT = 1e6
_INIT_EIGEN_FLOOR = 1e-6


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B core, without importing `scipy.optimize`.

    That package takes most of a command's start-up time and memory, and
    the fits need only the extension module. It is registered under its
    own name, so a later `import scipy.optimize` reuses it.
    """
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")
    roots = scipy_spec.submodule_search_locations if scipy_spec else []
    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(root, "optimize") for root in roots])
    if spec is None:
        raise ImportError(f"no module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


setulb = _load_lbfgsb().setulb

# Orthonormal Hermitian basis: Pauli products / 2, so tr(G_k G_l) = delta_kl.
_HERM_BASIS = np.stack([
    np.kron(a, b) / 2.0
    for a in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)
    for b in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)])

_EYE4 = np.eye(4)

# Parameter order: the real diagonal t[0:4], then (re, im) pairs of the
# lower-triangular entries (1,0), (2,0), (2,1), (3,0), (3,1), (3,2), here as
# indices into the row-major flattened 4x4 matrix and, in _PARAM_FLOATS, into
# the float64 view of that matrix.
_DIAG_FLAT = np.arange(4) * 5
_LOWER_FLAT = np.flatnonzero(np.tri(4, k=-1))
_PARAM_FLOATS = np.r_[2 * _DIAG_FLAT, (2 * _LOWER_FLAT[:, None] + [0, 1]).ravel()]


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
    """Lower-triangular T of each parameter vector along the last axis."""
    flat = np.zeros(t.shape[:-1] + (16,), dtype=complex)
    flat[..., _DIAG_FLAT] = t[..., 0:4]
    flat[..., _LOWER_FLAT] = t[..., 4::2] + 1j * t[..., 5::2]
    return flat.reshape(t.shape[:-1] + (4, 4))


def _params_from_lower(tri: np.ndarray) -> np.ndarray:
    """The 16 reals of the diagonal and lower triangle, in parameter order,
    of each complex matrix along the last two axes, read as one gather from
    the float64 view of a C-ordered `tri`."""
    flat = tri.reshape(tri.shape[:-2] + (16,)).view(np.float64)
    return flat.take(_PARAM_FLOATS, axis=-1)


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
    return CholeskyParams(_params_from_densities(mat[None], floor)[0])


def _params_from_densities(mats: np.ndarray,
                           floor: float = _INIT_EIGEN_FLOOR) -> np.ndarray:
    """`params_from_density` of each matrix of an (R, 4, 4) stack, as an
    (R, 16) array. The stacked eigh, matmul, trace and cholesky give each
    row the bits they give that matrix alone."""
    evals, evecs = np.linalg.eigh(mats)
    evals = np.clip(evals, floor, None)
    mats = (evecs * evals[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    mats /= mats.trace(axis1=1, axis2=2).real.reshape(-1, 1, 1)
    return _params_from_lower(np.linalg.cholesky(mats))


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
                           pairs: np.ndarray, projectors: np.ndarray):
    """Gaussian-approximation Poisson objective and its analytic gradient.

    objective = sum_v (n_v - N_v p_v)^2 / (2 N_v max(p_v, floor)) over the
    records; the gradient is with respect to the 16 Cholesky parameters.
    One parameter vector `t` gives a float and a (16,) gradient. A stack
    `t` of shape (R, 16), with `counts` of shape (R, N) or (N,), gives R
    values and an (R, 16) gradient, row r equal to the call on row r alone.
    """
    t = np.asarray(t, dtype=float)
    projectors = np.asarray(projectors, dtype=complex)
    tri = _lower_from_params(t.reshape(-1, 16))
    gram = tri @ tri.conj().transpose(0, 2, 1)
    trace = gram.trace(axis1=1, axis2=2).real.reshape(-1, 1, 1)
    rhos = gram / trace
    # Summed over j by the einsum, then over i in the order 0, 1, 2, 3, as the
    # one-row einsum "nij,ji->n" sums, so each row is bit-equal to a call on
    # it alone. `.sum(axis=2)` adds in that order too, but right after the
    # complex matmul above that strided reduce runs about 10x slower (OpenBLAS
    # on AVX-512); it also turns four -0.0 terms into +0.0, which no result sees.
    terms = np.einsum("nij,rji->rni", projectors, rhos).real
    probs = terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]
    floored = np.maximum(probs, _PROB_FLOOR)
    residuals = counts - pairs * probs
    squares = residuals ** 2
    two_pairs = 2.0 * pairs
    values = (squares / (two_pairs * floored)).sum(axis=1)

    # d(objective)/d(p_v); the floor freezes the denominator when active.
    dldp = -residuals / floored
    above = probs > _PROB_FLOOR
    unfrozen = dldp - squares / (two_pairs * floored ** 2)
    dldp = unfrozen if above.all() else np.where(above, unfrozen, dldp)

    # sum_v dldp_v P_v as a real einsum over the (re, im) floats of each
    # projector: bit-equal to the complex einsum "rn,nij->rij", and faster.
    flat = projectors.reshape(len(projectors), 16).view(np.float64)
    weight = np.einsum("rn,nk->rk", dldp, flat).view(np.complex128).reshape(-1, 4, 4)
    weight = (weight - (dldp * probs).sum(axis=1).reshape(-1, 1, 1) * _EYE4) / trace
    grads = _params_from_lower(2.0 * weight @ tri)
    if t.ndim == 1:
        return float(values[0]), grads[0]
    return values, grads


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


def _lbfgsb(fun, x0: np.ndarray, max_iterations: int):
    """L-BFGS-B from every row of `x0`, at most `_FIT_SLOTS` rows at a time.

    Each row drives its own state of scipy's reverse-communication core
    with what `scipy.optimize.minimize(method="L-BFGS-B")` passes it (no
    bounds, `maxiter=max_iterations`, `maxfun=10 * max_iterations`), so it
    follows the path that call would, whatever slot and round it runs in.
    Each round, the rows in flight that ask for the objective are evaluated
    in one `fun(x_rows, rows)` call returning their values and gradients. As
    in `minimize`, a row is evaluated at its start first, a request at the
    point last evaluated reuses it, and that first evaluation counts towards
    `maxfun`. When a row converges or stops, its slot is cleared and the
    next waiting row starts in it at once.

    Returns the final parameters, final objective values, iteration counts,
    convergence flags and, per row, the objective at the start and after
    every iteration.
    """
    rows, n = x0.shape
    slots = min(_FIT_SLOTS, rows)
    m = _LBFGSB_MEMORY
    factr = _FTOL / np.finfo(float).eps
    maxfun = 10 * max_iterations
    unbounded = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    x = np.array(x0[:slots], dtype=float)
    g = np.zeros((slots, n))
    wa = np.zeros((slots, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((slots, 3 * n), np.int32)
    task = np.zeros((slots, 2), np.int32)
    lsave = np.zeros((slots, 4), np.int32)
    isave = np.zeros((slots, 44), np.int32)
    dsave = np.zeros((slots, 29))
    ln_task = np.zeros((slots, 2), np.int32)
    solver = (g, wa, iwa, task, lsave, isave, dsave, ln_task)
    states = list(zip(x, *solver))
    # The point, value and gradient each slot last evaluated; NaN marks a
    # slot whose row has not been evaluated yet.
    last_x = np.full((slots, n), np.nan)
    last_g = np.zeros((slots, n))
    f = [0.0] * slots
    evaluations = [0] * slots

    row_of = list(range(slots))
    waiting = iter(range(slots, rows))
    x_out = np.empty((rows, n))
    f_out = [0.0] * rows
    converged = [False] * rows
    traces = [[] for _ in range(rows)]
    live = range(slots)
    while live:
        asks = []
        for s in live:
            x_s, g_s, wa_s, iwa_s, task_s, lsave_s, isave_s, dsave_s, ln_s = states[s]
            while True:
                setulb(m, x_s, unbounded, unbounded, nbd, f[s], g_s, factr,
                       _GTOL, wa_s, iwa_s, task_s, lsave_s, isave_s, dsave_s,
                       _LBFGSB_MAXLS, ln_s)
                code = task_s.item(0)
                if code == _TASK_FG:
                    asks.append(s)
                    break
                r = row_of[s]
                if code == _TASK_NEW_X:
                    traces[r].append(f[s])  # the start plus one value per iteration
                    if len(traces[r]) > max_iterations:
                        task_s[:] = _TASK_STOP, _STOP_MAXITER
                    elif evaluations[s] > maxfun:
                        task_s[:] = _TASK_STOP, _STOP_MAXFUN
                    continue
                x_out[r] = x_s
                f_out[r] = f[s]
                converged[r] = (code == _TASK_CONVERGED
                                and len(traces[r]) <= max_iterations)
                r = next(waiting, None)
                if r is None:
                    break
                row_of[s] = r
                x_s[:] = x0[r]
                for array in solver:
                    array[s] = 0
                last_x[s] = np.nan
                f[s] = 0.0
                evaluations[s] = 0
        changed = (x != last_x).any(axis=1).tolist()
        moved = [s for s in asks if changed[s]]
        if moved:
            if len(moved) == slots:
                # Every slot asks at a new point: whole arrays, no index copies.
                last_x[:] = x
                values, last_g[:] = fun(x, row_of)
            else:
                last_x[moved] = x[moved]
                values, last_g[moved] = fun(x[moved], [row_of[s] for s in moved])
            for s, value in zip(moved, values.tolist()):
                f[s] = value
                evaluations[s] += 1
                if evaluations[s] == 1:
                    traces[row_of[s]].append(f[s])
        g[:] = last_g
        live = asks
    iterations = [len(trace) - 1 for trace in traces]
    return x_out, f_out, iterations, converged, traces


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
    x, likelihood, iterations, converged, traces = _lbfgsb(
        lambda t, rows: objective_and_gradient(t, counts, pairs, projectors),
        params_from_density(init_mat).t[None], max_iterations)
    rho = CholeskyParams(x[0]).density()
    return TomographyResult(
        rho=rho,
        metrics=metric_report(rho, target),
        uncertainties=None,
        likelihood=likelihood[0],
        iterations=int(iterations[0]),
        converged=bool(converged[0]),
        plan_id=plan_id,
        objective_trace=tuple(traces[0]),
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
    (default: the optimal analyzer set). All replicas go to one
    `_lbfgsb` call, `_FIT_SLOTS` in flight at a time; each fit equals the
    replica's own `mle_reconstruct` fit.
    """
    if replicas < 2:
        raise ValueError("bootstrap needs at least 2 replicas")
    projectors, counts, pairs = record_arrays(list(records))
    design = _design_matrix(projectors)
    if target is None:
        target = bell_state("phi+")
    if plan is None:
        plan = bell.OPTIMAL_PLAN
    draws = np.array([stream(seed, _BOOTSTRAP_STREAM, r).poisson(counts)
                      if resample else counts for r in range(replicas)], dtype=float)
    # One lstsq per start: a multi-RHS lstsq is not bit-equal to it.
    starts = _params_from_densities(np.stack([_linear_start(design, row, pairs)
                                              for row in draws]))
    fits = _lbfgsb(lambda t, rows: objective_and_gradient(
        t, draws[rows], pairs, projectors), starts, 10_000)[0]
    metrics = np.empty((3, replicas))
    for r, params in enumerate(fits):
        rho = CholeskyParams(params).density()
        metrics[:, r] = (concurrence(rho), fidelity_with_pure(rho, target),
                         bell.chsh_S(rho, plan).S)
    return {name: float(np.std(values, ddof=1))
            for name, values in zip(("concurrence", "fidelity", "S"), metrics)}
