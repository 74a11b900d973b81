"""Density-matrix reconstruction from coincidence counts.

A linear (Gram-inverse) estimate seeds a maximum-likelihood refinement
over a Cholesky parameterization, which keeps the iterate physical by
construction. The likelihood is the Gaussian approximation of Poissonian
counting statistics; its gradient is analytic. Bootstrap resampling of the
counts attaches standard deviations to every derived metric.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import signal
import sys
from dataclasses import dataclass

import numpy as np

from biphoton import bell
from biphoton.qstate import (PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix,
                             MetricReport, PureState, _checked_density,
                             _concurrence, _fidelity_with_pure, _freeze,
                             bell_state, metric_report)
from biphoton.scenario import _NATURAL, _integer
from biphoton.sim import _BOOTSTRAP_STREAM, CountRecord, stream

_PROB_FLOOR = 1e-12
_OVERFLOW_TRACE = 2.0 ** -1024  # 1 / tr is finite above this, inf at or below
# L-BFGS-B stops when the objective improves by less than this per iteration,
# when no gradient component exceeds _GTOL or after _MAX_ITERATIONS, the cap
# of every fit, bootstrap replicas included; it keeps _LBFGSB_MEMORY correction
# pairs and tries at most _LBFGSB_MAXLS steps per line search.
_FTOL = 1e-9
_GTOL = 1e-10
_MAX_ITERATIONS = 10_000
_LBFGSB_MEMORY = 10
_LBFGSB_MAXLS = 20
# setulb's task codes: evaluate f and g at x, new iterate, converged, stopped.
_TASK_FG, _TASK_NEW_X, _TASK_CONVERGED, _TASK_STOP = 3, 1, 4, 5
_STOP_MAXITER, _STOP_MAXFUN = 504, 502
_F = 5  # the objective value's place in setulb's arguments
# Rows of one `_lbfgsb` pass in `mle_reconstruct`: the main fit's row and
# the bootstrap replicas' alike. Each row holds about 18 kB of solver state
# and `_Work` buffers, so this bounds peak memory.
_FIT_ROWS = 256
# `_blocks` gives no process fewer rows than this: smaller blocks cost more
# CPU time per row.
_JOB_REPLICAS = 64
_GRAM_COND_LIMIT = 1e6
_INIT_EIGEN_FLOOR = 1e-6


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B core, without importing `scipy.optimize`.

    That package takes most of a command's start-up time and memory, and
    the fits need only the extension module. It leaves `sys.modules`, where
    CPython enters a single-phase extension, so that a later `import
    scipy.optimize` loads it again, same `setulb`, as the package's `_lbfgsb`.
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
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


setulb = _load_lbfgsb().setulb

# What np.einsum calls with optimize=False, without its Python wrapper.
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum as _einsum

# Orthonormal Hermitian basis: Pauli products / 2, so tr(G_k G_l) = delta_kl.
_HERM_BASIS = np.stack([
    np.kron(a, b) / 2.0
    for a in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)
    for b in (np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z)])

_MIXED = np.eye(4, dtype=complex) / 4.0

# Read-only 0-d float64 operands: a ufunc takes them with less argument
# conversion than a Python float, and computes the same bytes.
_ONE, _MINUS_TWO = (_freeze(np.array(value)) for value in (1.0, -2.0))

# Parameter order: the real diagonal t[0:4], then (re, im) pairs of the
# lower-triangular entries (1,0), (2,0), (2,1), (3,0), (3,1), (3,2), as
# indices into the float64 view of the row-major 4x4 complex matrix.
_PARAM_FLOATS = np.r_[np.arange(4) * 10,
                      (2 * np.flatnonzero(np.tri(4, k=-1))[:, None] + [0, 1]).ravel()]


def _params_from_lower(tri: np.ndarray) -> np.ndarray:
    """The 16 reals of the diagonal and lower triangle, in parameter order,
    of each complex matrix along the last two axes, read as one gather from
    the float64 view of a C-ordered `tri`."""
    flat = tri.reshape(tri.shape[:-2] + (16,)).view(np.float64)
    return flat.take(_PARAM_FLOATS, axis=-1)


def _trace_shifts(t: np.ndarray, trace: np.ndarray) -> np.ndarray | None:
    """Per row of `t`, (R, 16), the exponent of two that scales a non-zero
    row whose 1 / tr overflows exactly to a largest |t| in [0.5, 1), else 0,
    as (R, 1); None if no row needs one. T T^H / tr does not depend on it."""
    # min() is NaN only when the first trace is; every row is checked then.
    if min(trace.ravel().tolist()) > _OVERFLOW_TRACE:
        return None
    largest = np.abs(t).max(axis=1)
    tiny = (trace[:, 0] <= _OVERFLOW_TRACE) & (largest > 0.0)
    return np.where(tiny, -np.frexp(largest)[1], 0)[:, None] if tiny.any() else None


class _Work:
    """Buffers for every intermediate of `objective_and_gradient` at one
    (rows, settings) shape, each view built once, and the fit's constants:
    N_v and 2 N_v repeated on every row (an operand of the probabilities'
    shape takes numpy's fast elementwise loop, where a broadcast one does
    not) and the projectors' (re, im) floats. `bind` replaces them all for
    another row count, from the pairs and projectors it is given, so a fit
    that keeps one `_Work` holds one set at a time and its constants stay
    those of the fit's records.

    T's floats are zeroed once: only the `_PARAM_FLOATS` places are ever
    written, so the upper triangle and the diagonal's imaginary parts stay
    +0.0, and `_params_from_lower` reads the rows back.
    """

    shape = None

    def bind(self, rows: int, pairs: np.ndarray, projectors: np.ndarray) -> None:
        settings = len(projectors)
        self.shape = rows, settings
        self.pairs = np.broadcast_to(pairs, (rows, settings)).copy()
        self.pairs2 = np.multiply(2.0, self.pairs)
        self.projector_floats = projectors.reshape(settings, 16).view(np.float64)
        self.floats = np.zeros((rows, 32))
        self.tri = self.floats.view(np.complex128).reshape(rows, 4, 4)
        # T^H as the transposed view of a conjugate, the layout `tri.conj()
        # .transpose(0, 2, 1)` hands to matmul.
        self.conj = np.empty((rows, 4, 4), complex)
        self.tri_h = self.conj.transpose(0, 2, 1)
        self.gram = np.empty((rows, 4, 4), complex)
        self.gram_floats = self.gram.reshape(rows, 16).view(np.float64)
        self.gram_diagonal = self.gram.reshape(rows, 16)[:, ::5]
        self.diagonal_sum = np.empty(rows, complex)
        self.trace = self.diagonal_sum.real[:, None]
        self.inv = np.empty((rows, 1))
        self.terms = np.empty((rows, settings, 4), complex)
        self.term_columns = [self.terms.real[..., i] for i in range(4)]
        self.probs, self.floored, self.residuals, self.squares, self.scratch, self.dldp = (
            np.empty((6, rows, settings)))
        self.above = np.empty((rows, settings), bool)
        self.values = np.empty(rows)
        self.identity_term = np.empty((rows, 1))
        self.weight = np.empty((rows, 32))
        self.weight_diagonal = self.weight[:, ::10]
        self.weight_matrix = self.weight.view(np.complex128).reshape(rows, 4, 4)
        self.product = np.empty((rows, 4, 4), complex)
        self.product_floats = self.product.reshape(rows, 16).view(np.float64)


def _unit_gram(rows: np.ndarray, work: _Work) -> np.ndarray | None:
    """Writes T, T T^H / tr and 1 / tr of the rows of `rows`, (R, 16), into
    `work` (bound to R rows) and returns their `_trace_shifts`; where 1 / tr
    overflows, everything is that of the shifted row. numpy divides complex
    by real as a multiply by the reciprocal, so the Gram matrix's floats times
    1 / tr give the bytes of `gram / trace` wherever no float is -0.0, which
    sums that start at +0.0 never give. The trace is the complex reduce that
    `ndarray.trace` runs over the diagonal: a reduce of the diagonal's real
    floats alone adds them in another order."""
    work.floats[:, _PARAM_FLOATS] = rows
    np.conjugate(work.tri, work.conj)
    np.matmul(work.tri, work.tri_h, work.gram)
    np.add.reduce(work.gram_diagonal, 1, None, work.diagonal_sum)
    shifts = _trace_shifts(rows, work.trace)
    if shifts is not None:
        _unit_gram(np.ldexp(rows, shifts), work)
        return shifts
    np.divide(_ONE, work.trace, work.inv)
    np.multiply(work.gram_floats, work.inv, work.gram_floats)
    return None


def _density_from_params(t: np.ndarray, work: _Work | None = None) -> np.ndarray:
    """T T^H / tr(T T^H) of each parameter vector along the last axis, in
    the buffers of `work` (bound to as many rows) or else in fresh ones."""
    rows = t.reshape(-1, 16)
    if work is None:
        work = _Work()
        work.bind(len(rows), np.empty(0), np.empty((0, 4, 4), complex))
    _unit_gram(rows, work)
    return work.gram.reshape(t.shape[:-1] + (4, 4))


def params_from_density(rho) -> np.ndarray:
    """The 16 real parameters, read-only, of a lower-triangular T whose
    T T^H / tr(T T^H) is `rho` after flooring its eigenvalues.

    Eigenvalues below 1e-6 are raised to it (and the state renormalized)
    so the Cholesky factor exists even for rank-deficient inputs.
    """
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return _freeze(_params_from_densities(mat[None])[0])


def _params_from_densities(mats: np.ndarray) -> np.ndarray:
    """`params_from_density` of each matrix of an (R, 4, 4) stack, as an
    (R, 16) array. The stacked eigh, matmul, trace and cholesky give each
    row the bits they give that matrix alone."""
    evals, evecs = np.linalg.eigh(mats)
    evals = np.clip(evals, _INIT_EIGEN_FLOOR, None)
    mats = (evecs * evals[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    mats /= mats.trace(axis1=1, axis2=2).real.reshape(-1, 1, 1)
    return _params_from_lower(np.linalg.cholesky(mats))


def record_arrays(records) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked projectors (read-only, shared per plan), counts and
    expected pairs of `records`, any non-empty iterable of CountRecords (a
    list is read as given, anything else listed first)."""
    return _record_plan(records)[:3]


def _record_plan(records) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """`record_arrays` of `records` and their `_design_matrix`, from one
    list of the records and one lookup of their plan's arrays."""
    if not isinstance(records, list):
        records = list(records)
    if not records:
        raise ValueError("no records to reconstruct from")
    for rec in records:
        if not isinstance(rec, CountRecord):
            raise ValueError(f"records must be CountRecords, got {rec!r}")
    projectors, design = _plan_arrays(tuple([rec.setting for rec in records]))
    counts = np.array([rec.counts for rec in records], dtype=float)
    pairs = np.array([rec.expected_pairs for rec in records], dtype=float)
    return projectors, counts, pairs, design


@functools.lru_cache(maxsize=4)  # by identity: one entry per plan, runs and files alike
def _plan_arrays(settings: tuple) -> tuple[np.ndarray, np.ndarray | None]:
    projectors = np.stack([setting.projector() for setting in settings])
    design = _design_matrix(projectors)
    for array in (projectors, design):
        if array is not None:
            array.flags.writeable = False
    return projectors, design


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
    """Linear-inversion estimate of each row of `counts`, (N,) or (R, N),
    or the maximally mixed state when `design` is None or the estimate's
    trace (the summed H/V-basis frequencies) does not exceed the
    probability floor."""
    starts = np.empty(counts.shape[:-1] + (4, 4), dtype=complex)
    starts[...] = _MIXED
    if design is not None:
        freqs = counts / pairs
        # One lstsq per row: a multi-RHS lstsq is not bit-equal to it.
        coeffs = np.array([np.linalg.lstsq(design, row, rcond=None)[0]
                           for row in freqs.reshape(-1, len(pairs))])
        mat = np.einsum("...k,kij->...ij", coeffs.reshape(counts.shape[:-1] + (16,)),
                        _HERM_BASIS)
        mat = 0.5 * (mat + mat.conj().swapaxes(-1, -2))
        trace = mat.trace(axis1=-2, axis2=-1).real[..., None, None]
        np.divide(mat, trace, out=starts, where=trace > _PROB_FLOOR)
    return starts


def linear_inversion(records) -> np.ndarray:
    """Gram-inverse estimate from count frequencies.

    Returns a Hermitian, unit-trace 4x4 matrix that may carry small
    negative eigenvalues, or the maximally mixed state when the H/V-basis
    counts are all zero. Rejects plans whose projectors do not span the
    operator space (condition number above 1e6).
    """
    _, counts, pairs, design = _record_plan(records)
    if design is None:
        raise ValueError("measurement plan is rank deficient: projectors do "
                         "not span the two-qubit operator space")
    return _linear_start(design, counts, pairs)


def objective_and_gradient(t: np.ndarray, counts: np.ndarray,
                           pairs: np.ndarray, projectors: np.ndarray, *,
                           work: _Work | None = None):
    """Gaussian-approximation Poisson objective and its analytic gradient.

    objective = sum_v (n_v - N_v p_v)^2 / (2 N_v max(p_v, floor)) over the
    records; the gradient is with respect to the 16 Cholesky parameters.
    One parameter vector `t` gives a float and a (16,) gradient. A stack
    `t` of shape (R, 16), with `counts` of shape (R, N) or (N,), gives R
    values and an (R, 16) gradient, row r equal to the call on row r alone.

    `work`, a `_Work`, holds the intermediates: a fit passes the same one
    to every call, which rebinds it to this call's pairs and projectors
    whenever the row count changes, so one `_Work` serves the records of
    one fit; None uses fresh buffers. Either way the values and gradient
    returned are fresh arrays with the same bytes.

    The bytes are those of the textbook form: rho = T T^H / tr, dldp =
    -r / f - r^2 / (2 N f^2) (r the residual, f the floored probability),
    the weight (sum_v dldp_v P_v - sum_v dldp_v p_v I) / tr and the gradient
    2.0 * weight @ T. rho and the weight are their floats times 1 / tr
    (`_unit_gram`), and the identity term is subtracted from the real
    diagonal floats only: the other subtractions of zeros change no float,
    as none is -0.0. The factor 2 is taken into dldp, as -2 r / f and
    r^2 / (N f^2): scaling by a power of two is exact in IEEE arithmetic
    short of overflow and underflow. T's float store keeps the signs of
    zeros that `t_re + 1j * t_im` would turn into +0.0; no output byte
    depends on them, as T reaches them only through matmul sums, which
    start from +0.0. A row whose 1 / tr overflows is evaluated at t scaled
    by a power of two (`_unit_gram`), and its gradient scaled back once at
    the end. When every probability is above the floor (the smallest is,
    and none is NaN), f is p itself, the bytes of max(p, floor) there, and
    no mask is built. Each step writes into `work` with the kernel and
    operand order of its allocating form, which gives the same bytes; the
    output goes by position, and constants are read-only 0-d float64
    arrays, both cheaper to dispatch than `out=` and Python floats
    (np.maximum keeps `out=`, as numpy deprecates a third positional
    argument there).
    """
    t = np.asarray(t, dtype=float)
    projectors = np.asarray(projectors, dtype=complex)
    rows = t.reshape(-1, 16)
    if work is None:
        work = _Work()
    if work.shape != (len(rows), len(projectors)):
        work.bind(len(rows), pairs, projectors)
    shifts = _unit_gram(rows, work)
    # Summed over j by the einsum, then over i in the order 0, 1, 2, 3, as the
    # one-row einsum "nij,ji->n" sums, so each row is bit-equal to a call on
    # it alone. `np.add.reduce(terms, axis=2)` adds in that order too, but on
    # an AVX-512 Xeon that strided reduce runs 10x slower (210 against 21 us
    # at 64 rows) once an OpenBLAS matmul has run, until an op such as
    # np.where runs; the three adds take about 5 us.
    _einsum("nij,rji->rni", projectors, work.gram, out=work.terms)
    probs, residuals, squares, scratch, dldp2 = (
        work.probs, work.residuals, work.squares, work.scratch, work.dldp)
    term_0, term_1, term_2, term_3 = work.term_columns
    np.add(term_0, term_1, probs)
    np.add(probs, term_2, probs)
    np.add(probs, term_3, probs)
    # False when a probability is NaN, as NaN propagates through the reduce.
    floor_free = np.minimum.reduce(probs, axis=None) > _PROB_FLOOR
    floored = probs if floor_free else np.maximum(probs, _PROB_FLOOR, out=work.floored)
    np.multiply(work.pairs, probs, residuals)
    np.subtract(counts, residuals, residuals)
    np.square(residuals, squares)
    np.multiply(work.pairs2, floored, scratch)
    np.divide(squares, scratch, scratch)
    values = np.add.reduce(scratch, 1, None, work.values)

    # Twice d(objective)/d(p_v); the floor freezes the denominator when active.
    np.multiply(_MINUS_TWO, residuals, dldp2)
    np.divide(dldp2, floored, dldp2)
    unfrozen = np.square(floored, scratch)
    np.multiply(work.pairs, unfrozen, unfrozen)
    np.divide(squares, unfrozen, unfrozen)
    np.subtract(dldp2, unfrozen, unfrozen)
    if floor_free:
        dldp2 = unfrozen
    else:
        np.copyto(dldp2, unfrozen, where=np.greater(probs, _PROB_FLOOR, work.above))

    # sum_v dldp2_v P_v as a real einsum over the (re, im) floats of each
    # projector: bit-equal to the complex einsum "rn,nij->rij", and faster.
    weight = _einsum("rn,nk->rk", dldp2, work.projector_floats, out=work.weight)
    identity_term = np.multiply(dldp2, probs, residuals)
    np.add.reduce(identity_term, 1, None, work.identity_term, True)
    np.subtract(work.weight_diagonal, work.identity_term, work.weight_diagonal)
    np.multiply(weight, work.inv, weight)
    np.matmul(work.weight_matrix, work.tri, work.product)
    grads = work.product_floats.take(_PARAM_FLOATS, axis=1)
    if shifts is not None:
        grads = np.ldexp(grads, shifts)
    return (float(values[0]), grads[0]) if t.ndim == 1 else (values.copy(), grads)


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


def _lbfgsb(fun, x0: np.ndarray, max_iterations: int, traced=()):
    """L-BFGS-B from every row of `x0`, all rows at once.

    Each row drives its own state of scipy's reverse-communication core
    with what `scipy.optimize.minimize(method="L-BFGS-B")` passes it (no
    bounds, `maxiter=max_iterations`, `maxfun=10 * max_iterations`), so it
    follows the path that call would, whatever rows it is fitted with.
    Each round, the rows that ask for the objective are evaluated in one
    `fun(x_rows, rows)` call returning their values and gradients; the
    rows asking never grow, as a row that converges or stops asks no more.
    A row that asks at the point it last evaluated is evaluated again,
    which gives the same bytes, as each row of a stacked call equals its
    one-row call; as with `minimize`'s cache, only evaluations at a new
    point, the start included, count towards `maxfun`.

    Returns the final parameters, final objective values, iteration counts
    and convergence flags per row, and for each row in `traced` the
    objective at the start and after every iteration, keyed by row.
    """
    rows, n = x0.shape
    m = _LBFGSB_MEMORY
    factr = _FTOL / np.finfo(float).eps
    maxfun = 10 * max_iterations
    unbounded = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    x = np.array(x0, dtype=float)
    g = np.zeros((rows, n))
    wa = np.zeros((rows, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((rows, 3 * n), np.int32)
    task = np.zeros((rows, 2), np.int32)
    lsave = np.zeros((rows, 4), np.int32)
    isave = np.zeros((rows, 44), np.int32)
    dsave = np.zeros((rows, 29))
    ln_task = np.zeros((rows, 2), np.int32)
    # setulb's arguments per row; a new objective value is stored at _F.
    calls = [[m, x_r, unbounded, unbounded, nbd, 0.0, g_r, factr, _GTOL, wa_r, iwa_r,
              task_r, lsave_r, isave_r, dsave_r, _LBFGSB_MAXLS, ln_r]
             for x_r, g_r, wa_r, iwa_r, task_r, lsave_r, isave_r, dsave_r, ln_r
             in zip(x, g, wa, iwa, task, lsave, isave, dsave, ln_task)]
    # The point each row last evaluated; NaN marks a row not evaluated yet.
    last_x = np.full((rows, n), np.nan)
    evaluations = [0] * rows
    iterations = [0] * rows
    converged = [False] * rows
    traces = {r: [] for r in traced}
    tasks = list(task)
    asks = range(rows)
    while True:
        live, asks = asks, []
        for r in live:
            call, task_r = calls[r], tasks[r]
            while True:
                setulb(*call)
                code = task_r.item(0)
                if code == _TASK_FG:
                    asks.append(r)
                    break
                if code != _TASK_NEW_X:
                    converged[r] = code == _TASK_CONVERGED
                    break
                iterations[r] += 1
                if r in traces:
                    traces[r].append(call[_F])
                if iterations[r] >= max_iterations:
                    task_r[:] = _TASK_STOP, _STOP_MAXITER
                elif evaluations[r] > maxfun:
                    task_r[:] = _TASK_STOP, _STOP_MAXFUN
        if not asks:
            break
        moved = np.logical_or.reduce(x != last_x, axis=1).tolist()
        if len(asks) == rows:
            # Every row asks: whole arrays, no index copies.
            last_x[:] = x
            values, g[:] = fun(x, asks)
        else:
            last_x[asks] = x[asks]
            values, g[asks] = fun(x[asks], asks)
        for r, value in zip(asks, values.tolist()):
            calls[r][_F] = value
            if moved[r]:
                evaluations[r] += 1
                if evaluations[r] == 1 and r in traces:
                    traces[r].append(value)  # the start
    return x, [call[_F] for call in calls], iterations, converged, traces


def mle_reconstruct(records, *, target: PureState | None = None,
                    plan_id: str | None = None, replicas: int = 0,
                    seed: int = 0) -> TomographyResult:
    """Maximum-likelihood reconstruction over the Cholesky parameterization,
    and with `replicas` of 2 or more the bootstrap standard deviations of
    concurrence, fidelity and S in `uncertainties` (None with 0; any other
    value is refused) and `seed` a non-negative integer, both checked by
    `scenario._integer` before anything is drawn.

    The fit starts from the linear-inversion estimate, or from the maximally
    mixed state when the plan is ill-conditioned for inversion, and runs
    L-BFGS-B with the analytic gradient until the objective improves by less
    than 1e-9 per iteration or for `_MAX_ITERATIONS` (then `converged` is
    False). Fidelity is reported against `target`, a PureState (default
    phi+). Each replica redraws every count as Poisson(n_v) (stream derived
    from (seed, replica index)) and is fitted from its own linear-inversion
    start; its S is taken at `bell.OPTIMAL_PLAN`.

    The records' counts are row 0 of one stack with the redraws, split into
    contiguous blocks, one per usable CPU in a single-threaded process
    (`_blocks`), all but the first, which holds row 0, fitted in forked
    processes (`_fit_blocks`). Each block is fitted in passes of at most
    `_FIT_ROWS` rows that all start together. A row's fit does not depend on
    the rows fitted with it, so every split gives the same bytes, and row 0
    those of the records fitted alone.
    """
    replicas = _integer(replicas, "replicas", lambda v: v == 0 or v >= 2,
                        "0 or an int of at least 2")
    seed = _integer(seed, "seed", *_NATURAL)
    if target is None:
        target = bell_state("phi+")
    elif not isinstance(target, PureState):
        raise ValueError(f"target must be a PureState, got {type(target).__name__}")
    projectors, counts, pairs, design = _record_plan(records)
    rngs = stream(seed, _BOOTSTRAP_STREAM, count=replicas) if replicas else ()
    draws = np.array([counts, *(rng.poisson(counts) for rng in rngs)], dtype=float)
    starts = _params_from_densities(_linear_start(design, draws, pairs))
    work, main = _Work(), {}

    def fit(lo, hi):
        fits = []
        for first in range(lo, hi, _FIT_ROWS):
            span = slice(first, min(first + _FIT_ROWS, hi))
            # A round that every row asks in takes the counts without a copy.
            span_counts = draws[span]
            x, values, iterations, converged, traces = _lbfgsb(
                lambda t, rows: objective_and_gradient(
                    t, span_counts if len(rows) == len(span_counts) else span_counts[rows],
                    pairs, projectors, work=work),
                starts[span], _MAX_ITERATIONS, traced=(0,) if first == 0 else ())
            if first == 0:
                main.update(likelihood=values[0], iterations=iterations[0],
                            converged=converged[0], objective_trace=tuple(traces[0]))
            fits.append(x)
        return np.concatenate(fits)

    fits = _fit_blocks(fit, _blocks(len(draws)))
    # A one-row fit's `_Work` is bound to its row: its buffers serve.
    raw = _density_from_params(fits, work if len(fits) == 1 else None)
    rho = DensityMatrix(raw[0])
    uncertainties = None
    if replicas:
        mats = _checked_density(raw[1:])
        metrics = (_concurrence(mats), _fidelity_with_pure(mats, target.amplitudes),
                   bell._chsh_S(mats, bell.OPTIMAL_PLAN)[1])
        uncertainties = {name: float(np.std(values, ddof=1))
                         for name, values in zip(("concurrence", "fidelity", "S"), metrics)}
    return TomographyResult(rho=rho, metrics=metric_report(rho, target),
                            uncertainties=uncertainties, plan_id=plan_id, **main)


def _blocks(rows: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) blocks of `range(rows)`, sizes within one: one per
    usable CPU (`taskset -c 0` gives one) with at least `_JOB_REPLICAS` rows
    each, as smaller blocks cost more CPU time per row. A fork copies only
    the calling thread, so there is one block unless `/proc/self/task` shows
    a single thread and `os.sched_getaffinity` names the usable CPUs; fewer
    than 2 * `_JOB_REPLICAS` rows make one block without reading either."""
    jobs = 1
    if (rows >= 2 * _JOB_REPLICAS and hasattr(os, "sched_getaffinity")
            and os.path.isdir("/proc/self/task") and len(os.listdir("/proc/self/task")) == 1):
        jobs = min(len(os.sched_getaffinity(0)), rows // _JOB_REPLICAS)
    edges = [rows * k // jobs for k in range(jobs + 1)]
    return list(zip(edges, edges[1:]))


def _fit_blocks(fit, blocks) -> np.ndarray:
    """`fit(lo, hi)` of every block, in block order: the first fitted here,
    each other in a forked child that sends back its array's bytes, or its
    exception's repr with exit status 1, through a pipe. A fork copies only
    the calling thread, so `blocks` holds more than one block only in a
    single-threaded process (`_blocks` checks that). A child that fails or
    dies raises RuntimeError. Signals wait while a child is forked and
    recorded, so an error or interrupt here kills every child; each child
    is reaped and each pipe closed."""
    pids, readers = [], []
    try:
        for lo, hi in blocks[1:]:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                read_fd, write_fd = os.pipe()
                readers.append(open(read_fd, "rb"))
                with open(write_fd, "wb") as writer:
                    pid = os.fork()
                    if pid == 0:  # the child: never returns into the caller's code
                        code = 1
                        try:
                            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                            writer.write(fit(lo, hi).tobytes())
                            writer.flush()
                            code = 0
                        except Exception as exc:
                            writer.write(repr(exc).encode())
                            writer.flush()
                        finally:
                            os._exit(code)
                    pids.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        parts = [fit(*blocks[0])]
        sent = [reader.read() for reader in readers]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for reader in readers:
            reader.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for (lo, hi), data, code in zip(blocks[1:], sent, codes):
        if code:
            why = (f"killed by signal {-code}" if code < 0
                   else data.decode(errors="replace") or f"exit status {code}")
            raise RuntimeError(f"bootstrap worker for rows {lo}-{hi - 1} failed: {why}")
        parts.append(np.frombuffer(data).reshape(hi - lo, -1))
    return np.concatenate(parts)


def bootstrap_errors(records, replicas: int = 200, seed: int = 0, *,
                     target: PureState | None = None) -> dict:
    """Standard deviations of concurrence, fidelity and S over `replicas`
    resampled data sets: the `uncertainties` of `mle_reconstruct` with
    these arguments, whose fit of the records themselves is dropped.
    `replicas` must be an int of at least 2.
    """
    _integer(replicas, "replicas", lambda v: v >= 2, "an int of at least 2")
    return mle_reconstruct(records, target=target, replicas=replicas, seed=seed).uncertainties
