"""Tests for linear inversion, MLE reconstruction and bootstrap errors."""

import dataclasses
import os
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from biphoton import bell, qstate, tomo
from biphoton.cli import BUILTIN_SCENARIOS, builtin_scenario, resolve_model
from biphoton.optics import depolarize
from biphoton.qstate import (PAULI_Y, DensityMatrix, PureState, bell_state,
                             concurrence, fidelity_with_pure, maximally_mixed,
                             random_density, random_pure, to_density)
from biphoton.sim import (_BOOTSTRAP_STREAM, CountRecord, MeasurementSetting,
                          acquire_tomography, exact_tomography, stream,
                          tomography_plan)
from biphoton.tomo import (CholeskyParams, bootstrap_errors, linear_inversion,
                           mle_reconstruct, objective_and_gradient,
                           params_from_density, record_arrays)

PLAN = tomography_plan()


def sampled_records(rho, mean_pairs, seed):
    return acquire_tomography(rho, PLAN, mean_pairs, seed)


def reference_fit(records, init=None, max_iterations=10_000):
    """The maximum-likelihood fit through scipy.optimize.minimize: L-BFGS-B
    with the options the fit has always used, one state per objective
    call, and the objective at the start plus after every iteration."""
    projectors, counts, pairs = record_arrays(records)
    if init is None:
        init = reference_linear_start(tomo._design_matrix(projectors), counts, pairs)
    t0 = reference_params(getattr(init, "matrix", init))

    def fun(t):
        return objective_and_gradient(t, counts, pairs, projectors)

    trace = [fun(t0)[0]]
    res = minimize(fun, t0, jac=True, method="L-BFGS-B",
                   callback=lambda intermediate_result: trace.append(
                       intermediate_result.fun),
                   options={"maxiter": max_iterations, "ftol": 1e-9,
                            "gtol": 1e-10, "maxfun": 10 * max_iterations})
    return res, reference_checks(reference_density(res.x)), tuple(trace)


# The diagonal and the lower triangle (1,0), (2,0), (2,1), (3,0), (3,1),
# (3,2) as indices into the row-major flattened 4x4 matrix: the parameter
# order, written out here so that the oracles share no code with tomo.
DIAG_FLAT = np.array([0, 5, 10, 15])
LOWER_FLAT = np.array([4, 8, 9, 12, 13, 14])


def reference_lower(t):
    """Field-by-field assembly of the lower-triangular T of each parameter
    vector along the last axis: the diagonal as real entries, the lower
    triangle as t_re + 1j * t_im."""
    flat = np.zeros(t.shape[:-1] + (16,), dtype=complex)
    flat[..., DIAG_FLAT] = t[..., 0:4]
    flat[..., LOWER_FLAT] = t[..., 4::2] + 1j * t[..., 5::2]
    return flat.reshape(t.shape[:-1] + (4, 4))


def reference_pack(tri):
    """Field-by-field copy of the diagonal and lower triangle of each 4x4
    matrix into the 16 Cholesky parameters, in parameter order."""
    flat = tri.reshape(tri.shape[:-2] + (16,))
    t = np.empty(flat.shape)
    t[..., 0:4] = flat[..., DIAG_FLAT].real
    lower = flat[..., LOWER_FLAT]
    t[..., 4::2] = lower.real
    t[..., 5::2] = lower.imag
    return t


def oracle_objective(t, counts, pairs, projectors):
    """The stacked objective with its per-row forms: one einsum per row for
    the probabilities and a complex einsum for the gradient weight."""
    tri = reference_lower(np.asarray(t, dtype=float).reshape(-1, 16))
    gram = tri @ tri.conj().transpose(0, 2, 1)
    trace = gram.trace(axis1=1, axis2=2).real.reshape(-1, 1, 1)
    probs = np.array([np.einsum("nij,ji->n", projectors, rho).real
                      for rho in gram / trace])
    floored = np.maximum(probs, tomo._PROB_FLOOR)
    residuals = counts - pairs * probs
    values = (residuals ** 2 / (2.0 * pairs * floored)).sum(axis=1)
    dldp = -residuals / floored
    dldp = np.where(probs > tomo._PROB_FLOOR,
                    dldp - residuals ** 2 / (2.0 * pairs * floored ** 2), dldp)
    weight = np.einsum("rn,nij->rij", dldp, projectors)
    weight = (weight - (dldp * probs).sum(axis=1).reshape(-1, 1, 1) * np.eye(4)) / trace
    return values, reference_pack(2.0 * weight @ tri), probs


def reference_params(mat):
    """The one-matrix body of params_from_density: floor the eigenvalues,
    renormalize and take the Cholesky factor."""
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, tomo._INIT_EIGEN_FLOOR, None)
    mat = (evecs * evals) @ evecs.conj().T
    mat /= np.real(np.trace(mat))
    return reference_pack(np.linalg.cholesky(mat))


def reference_linear_start(design, counts, pairs):
    """The one-row body of the linear-inversion start."""
    if design is not None:
        freqs = counts / pairs
        coeffs = np.linalg.lstsq(design, freqs, rcond=None)[0]
        mat = np.einsum("k,kij->ij", coeffs, tomo._HERM_BASIS)
        mat = 0.5 * (mat + mat.conj().T)
        trace = np.real(np.trace(mat))
        if trace > tomo._PROB_FLOOR:
            return mat / trace
    return np.eye(4, dtype=complex) / 4.0


def reference_density(t):
    """The one-vector body of T T^H / tr(T T^H)."""
    tri = reference_lower(t)
    gram = tri @ tri.conj().T
    return gram / np.real(np.trace(gram))


def reference_checks(mat):
    """The one-matrix body of the DensityMatrix checks: Hermitian, unit
    trace, no eigenvalue below -1e-9; returns the Hermitian part."""
    if np.max(np.abs(mat - mat.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {tr!r} != 1")
    mat = 0.5 * (mat + mat.conj().T)
    if float(np.linalg.eigvalsh(mat).min()) < -1e-9:
        raise ValueError("density matrix has a negative eigenvalue "
                         "beyond tolerance")
    return mat


def reference_concurrence(mat):
    """The one-matrix body of concurrence."""
    evals, evecs = np.linalg.eigh(mat)
    factor = evecs * np.sqrt(np.clip(evals, 0.0, None))
    lams = np.linalg.svd(factor.T @ np.kron(PAULI_Y, PAULI_Y) @ factor,
                         compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def reference_fidelity(mat, amps):
    """The one-matrix body of fidelity_with_pure."""
    value = float(np.real(amps.conj() @ mat @ amps))
    return min(max(value, 0.0), 1.0)


def reference_chsh_S(mat, plan):
    """The one-matrix bodies of correlation and chsh_S: E and S."""
    e = np.array([[float(np.real(np.trace(mat @ bell._joint_observable(a, b))))
                   for b in plan.bob] for a in plan.alice])
    return e, float(np.sum(bell.SIGNS * e))


def central_differences(t, counts, pairs, projectors, step):
    numeric = np.empty(16)
    for k in range(16):
        plus, minus = t.copy(), t.copy()
        plus[k] += step
        minus[k] -= step
        numeric[k] = (objective_and_gradient(plus, counts, pairs, projectors)[0]
                      - objective_and_gradient(minus, counts, pairs, projectors)[0]) / (2 * step)
    return numeric


class TestCholeskyParams:
    def test_any_parameters_give_physical_state(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = CholeskyParams(rng.standard_normal(16) * 3)
            rho = params.density()
            assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-12

    def test_round_trip_through_density(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(rng)
            rebuilt = params_from_density(rho).density()
            assert np.linalg.norm(rebuilt.matrix - rho.matrix) <= 1e-5

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            CholeskyParams(np.zeros(15))

    @pytest.mark.parametrize("rows", [1, 64])
    def test_packing_gather_equals_field_copies(self, rows):
        # Signed zeros, infinities, NaNs with either sign and a payload, and
        # subnormals; the first row holds each of them among its 16 packed
        # floats.
        pool = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
                         -2.5e-310, 1.0, -0.75]).view(np.uint64)
        pool = np.append(pool, np.uint64(0x7FF8_0000_0000_0123)).view(np.float64)
        rng = np.random.default_rng(109)
        floats = rng.choice(pool, (rows, 32))
        floats[0, tomo._PARAM_FLOATS] = rng.permutation(np.resize(pool, 16))
        tri = floats.view(complex).reshape(rows, 4, 4)
        packed = tomo._params_from_lower(tri)
        assert packed.flags.c_contiguous
        assert packed.tobytes() == reference_pack(tri).tobytes()
        assert tomo._params_from_lower(tri[0]).tobytes() == reference_pack(tri[0]).tobytes()


class TestLinearInversion:
    def test_exact_phi_plus(self):
        rho = to_density(bell_state("phi+"))
        estimate = linear_inversion(exact_tomography(rho, PLAN, 10000))
        assert np.max(np.abs(estimate - rho.matrix)) <= 1e-10

    def test_exact_maximally_mixed(self):
        rho = maximally_mixed()
        estimate = linear_inversion(exact_tomography(rho, PLAN, 10000))
        assert np.max(np.abs(estimate - rho.matrix)) <= 1e-10

    def test_finite_count_error_scale(self):
        # Monte-Carlo oracle: at N = 1e4/setting the 95th-percentile
        # Frobenius error measures ~0.059 over 100 seeds.
        rho = to_density(bell_state("phi+"))
        errors = []
        for seed in range(100):
            estimate = linear_inversion(sampled_records(rho, 10000, seed))
            errors.append(np.linalg.norm(estimate - rho.matrix))
        assert np.percentile(errors, 95) <= 0.065
        assert np.median(errors) <= 0.045

    def test_rank_deficient_plan_rejected(self):
        rho = to_density(bell_state("phi+"))
        setting = MeasurementSetting.of("H", "H")
        records = [CountRecord(setting, 100.0, 1000.0)] * 16
        with pytest.raises(ValueError, match="rank deficient"):
            linear_inversion(records)

    @staticmethod
    def tilted_plan_records(tilt):
        """Exact records of the plan with its (H, R) analyzer replaced by D
        turned `tilt` radians towards R: at tilt 0 it repeats (H, D), and
        the design matrix's condition number is about 6.4944 / tilt."""
        settings = list(PLAN)
        ket_2 = np.array([1.0, np.exp(1j * tilt)]) / np.sqrt(2.0)
        settings[3] = MeasurementSetting(settings[3].ket_1, ket_2, "H", "tilted")
        return exact_tomography(to_density(bell_state("phi+")), settings, 10000)

    @staticmethod
    def design_condition(records):
        projectors, _, _ = record_arrays(records)
        design = np.real(np.einsum("nij,kji->nk", projectors, tomo._HERM_BASIS))
        singulars = np.linalg.svd(design, compute_uv=False)
        return singulars[0] / singulars[-1]

    def test_zero_singular_value_rejected_before_the_condition_number(self):
        # Sixteen HH settings leave a smallest singular value of exactly 0.0,
        # which must be rejected without dividing by it.
        setting = MeasurementSetting.of("H", "H")
        projectors, _, _ = record_arrays([CountRecord(setting, 100.0, 1000.0)] * 16)
        design = np.real(np.einsum("nij,kji->nk", projectors, tomo._HERM_BASIS))
        assert np.linalg.svd(design, compute_uv=False)[-1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tomo._design_matrix(projectors) is None

    def test_plan_just_below_the_condition_limit_accepted(self):
        records = self.tilted_plan_records(6.6e-6)
        assert 0.98e6 < self.design_condition(records) < 1e6
        # Exact counts still invert to the state, to about cond * eps.
        estimate = linear_inversion(records)
        rho = to_density(bell_state("phi+")).matrix
        assert np.max(np.abs(estimate - rho)) <= 1e-8

    def test_plan_just_above_the_condition_limit_rejected(self):
        records = self.tilted_plan_records(6.4e-6)
        assert 1e6 < self.design_condition(records) < 1.02e6
        with pytest.raises(ValueError, match="rank deficient"):
            linear_inversion(records)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng)
        projectors, counts, pairs = record_arrays(sampled_records(rho, 5000, 1))
        for _ in range(20):
            t = rng.standard_normal(16)
            _, grad = objective_and_gradient(t, counts, pairs, projectors)
            numeric = central_differences(t, counts, pairs, projectors, 1e-6)
            rel = np.linalg.norm(grad - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-5

    def test_matches_central_differences_below_probability_floor(self):
        # Near |HH>: T[1,1] = 9e-7 puts p(HV) at 8.1e-13, under the floor,
        # and one HV count keeps that setting's residual non-zero.
        t = np.zeros(16)
        t[0], t[1] = 1.0, 9e-7
        projectors = record_arrays([CountRecord(s, 0.0, 1.0) for s in PLAN])[0]
        probs = np.einsum("nij,ji->n", projectors, tomo._density_from_params(t)).real
        counts = np.where(probs > tomo._PROB_FLOOR, 1000.0 * probs, 0.0)
        counts[1] = 1.0
        pairs = np.full(16, 1000.0)
        assert PLAN[1].label_1 + PLAN[1].label_2 == "HV"
        assert 0.0 < probs[1] < tomo._PROB_FLOOR
        _, grad = objective_and_gradient(t, counts, pairs, projectors)
        # A step of 1e-8 keeps p(HV) under the floor at every evaluation.
        numeric = central_differences(t, counts, pairs, projectors, 1e-8)
        rel = np.linalg.norm(grad - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5


class TestObjectiveStack:
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 3.0])
    def test_rows_equal_single_calls(self, scale):
        rng = np.random.default_rng(59)
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(rng), 5000, 2))
        t = rng.standard_normal((7, 16)) * scale
        stacked_counts = counts + rng.integers(0, 5, (7, 16))
        for row_counts in (stacked_counts, counts):
            values, grads = objective_and_gradient(t, row_counts, pairs, projectors)
            assert values.shape == (7,) and grads.shape == (7, 16)
            for r in range(7):
                value, grad = objective_and_gradient(
                    t[r], np.broadcast_to(row_counts, (7, 16))[r], pairs, projectors)
                assert value == values[r]
                assert np.array_equal(grad, grads[r])


    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 3.0])
    def test_equals_per_row_forms(self, rows, scale):
        rng = np.random.default_rng(89)
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(rng), 5000, 3))
        t = rng.standard_normal((rows, 16)) * scale
        stacked_counts = counts + rng.integers(0, 5, (rows, 16))
        for row_counts in (stacked_counts, counts):
            values, grads = objective_and_gradient(t, row_counts, pairs, projectors)
            expected, expected_grads, probs = oracle_objective(t, row_counts, pairs,
                                                               projectors)
            assert (probs > tomo._PROB_FLOOR).all()
            assert values.tobytes() == expected.tobytes()
            assert grads.tobytes() == expected_grads.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_equals_per_row_forms_below_probability_floor(self, rows):
        # Near |HH>, as in TestGradient: p(HV), p(VH) and p(VV) fall under
        # the floor, and every count is non-zero. Then the same with the
        # later half of the rows random states with no probability there.
        rng = np.random.default_rng(97)
        t = rng.standard_normal((rows, 16)) * 3e-7
        t[:, 0] = 1.0
        projectors = record_arrays([CountRecord(s, 0.0, 1.0) for s in PLAN])[0]
        counts = rng.integers(1, 50, (rows, 16)).astype(float)
        pairs = np.full(16, 1000.0)
        for floored_rows in sorted({rows, (rows + 1) // 2}, reverse=True):
            t[floored_rows:] = rng.standard_normal((rows - floored_rows, 16))
            values, grads = objective_and_gradient(t, counts, pairs, projectors)
            expected, expected_grads, probs = oracle_objective(t, counts, pairs,
                                                               projectors)
            at_floor = (probs < tomo._PROB_FLOOR).sum(axis=1)
            assert at_floor[:floored_rows].min() >= 3
            assert not at_floor[floored_rows:].any()
            assert values.tobytes() == expected.tobytes()
            assert grads.tobytes() == expected_grads.tobytes()


class TestStackedStarts:
    """The stacked start parameters against a loop of one-matrix calls,
    compared by their bytes so that the signs of zeros count too."""

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_bootstrap_starts_of_builtins(self, name):
        config = builtin_scenario(name)
        model = resolve_model(config)
        records = acquire_tomography(model.state, tomography_plan(config.tomography_plan),
                                     model.effective_pairs, config.seed)
        projectors, counts, pairs = record_arrays(records)
        design = tomo._design_matrix(projectors)
        mats = np.stack([
            tomo._linear_start(design, stream(config.seed, _BOOTSTRAP_STREAM, r)
                               .poisson(counts).astype(float), pairs)
            for r in range(config.bootstrap_replicas)])
        expected = np.stack([reference_params(mat) for mat in mats])
        assert len(mats) == 200
        assert tomo._params_from_densities(mats).tobytes() == expected.tobytes()
        for mat, row in zip(mats[:5], expected):
            assert params_from_density(mat).t.tobytes() == row.tobytes()

    def test_rank_deficient_starts_hit_the_floor(self):
        mats = np.stack([to_density(bell_state("phi+")).matrix,
                         np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex),
                         maximally_mixed().matrix,
                         random_density(np.random.default_rng(7)).matrix])
        assert (np.linalg.eigvalsh(mats[:2]) < tomo._INIT_EIGEN_FLOOR).sum() == 6
        expected = np.stack([reference_params(mat) for mat in mats])
        assert tomo._params_from_densities(mats).tobytes() == expected.tobytes()
        for mat, row in zip(mats, expected):
            assert params_from_density(mat).t.tobytes() == row.tobytes()


def ginibre_states(rng, rows, rank):
    """`rows` unit-trace states G G^H / tr of the given rank, Hermitian only
    to rounding, as the fits leave them."""
    g = rng.standard_normal((rows, 4, rank)) + 1j * rng.standard_normal((rows, 4, rank))
    gram = g @ g.conj().transpose(0, 2, 1)
    return gram / gram.trace(axis1=1, axis2=2).real.reshape(-1, 1, 1)


def assert_tail_matches(raw, target, plan):
    """The stacked checks and metrics of `raw`, (4, 4) or (R, 4, 4), against
    the one-state reference bodies of each row, compared by their bytes.
    Up to 7 rows also go through the public one-state functions."""
    rows = raw.reshape(-1, 4, 4)
    checked = np.stack([reference_checks(mat) for mat in rows])
    chsh = [reference_chsh_S(mat, plan) for mat in checked]
    expected = {
        "concurrence": np.array([reference_concurrence(mat) for mat in checked]),
        "fidelity": np.array([reference_fidelity(mat, target.amplitudes)
                              for mat in checked]),
        "E": np.stack([e for e, _ in chsh]),
        "S": np.array([s_val for _, s_val in chsh]),
    }
    mats = qstate._checked_density(raw)
    e, s_val = bell._chsh_S(mats, plan)
    got = {
        "concurrence": qstate._concurrence(mats),
        "fidelity": qstate._fidelity_with_pure(mats, target.amplitudes),
        "E": e,
        "S": s_val,
    }
    assert mats.shape == raw.shape and mats.tobytes() == checked.tobytes()
    for name, values in got.items():
        assert values.shape == raw.shape[:-2] + expected[name].shape[1:], name
        assert values.tobytes() == expected[name].tobytes(), name
    for r, mat in enumerate(rows[:7]):
        rho = DensityMatrix(mat)
        result = bell.chsh_S(rho, plan)
        floats = {
            "concurrence": concurrence(rho),
            "fidelity": fidelity_with_pure(rho, target),
            "S": result.S,
        }
        assert rho.matrix.tobytes() == checked[r].tobytes()
        assert result.E.tobytes() == expected["E"][r].tobytes()
        for name, value in floats.items():
            assert type(value) is float, name
            assert np.float64(value).tobytes() == expected[name][r].tobytes(), name
        corr = bell.correlation(rho, plan.alice[1], plan.bob[0])
        assert np.float64(corr).tobytes() == expected["E"][r][1, 0].tobytes()
    return checked


class TestStackedTail:
    """The density, checks and metrics of a stack against the one-state
    reference bodies, compared by their bytes so that the signs of zeros
    count too."""

    @pytest.mark.parametrize("rank", [1, 2, 4])
    @pytest.mark.parametrize("rows", [None, 1, 7, 200])
    def test_random_states(self, rows, rank):
        rng = np.random.default_rng(1000 * rank + (rows or 0))
        raw = ginibre_states(rng, rows or 1, rank)
        plan = bell.ChshPlan(rng.uniform(0, np.pi, 2), rng.uniform(0, np.pi, 2))
        for target in (bell_state("phi+"), random_pure(rng)):
            checked = assert_tail_matches(raw[0] if rows is None else raw,
                                          target, plan)
        if rank == 1 and rows == 200:
            # The clip in concurrence is active: rank-deficient states keep
            # rounding-sized negative eigenvalues.
            assert (np.linalg.eigvalsh(checked) < 0.0).sum() > 100

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_fitted_replicas_of_builtins(self, name):
        config = builtin_scenario(name)
        model = resolve_model(config)
        records = acquire_tomography(model.state, tomography_plan(config.tomography_plan),
                                     model.effective_pairs, config.seed)
        projectors, counts, pairs = record_arrays(records)
        design = tomo._design_matrix(projectors)
        draws = np.array([stream(config.seed, _BOOTSTRAP_STREAM, r).poisson(counts)
                          for r in range(config.bootstrap_replicas)], dtype=float)
        starts = tomo._linear_start(design, draws, pairs)
        expected = np.stack([reference_linear_start(design, row, pairs) for row in draws])
        assert len(draws) == 200 and starts.tobytes() == expected.tobytes()
        fits = tomo._lbfgsb(lambda t, rows: objective_and_gradient(
            t, draws[rows], pairs, projectors), tomo._params_from_densities(starts),
            10_000)[0]
        raw = tomo._density_from_params(fits)
        assert raw.tobytes() == np.stack([reference_density(t) for t in fits]).tobytes()
        assert tomo._density_from_params(fits[0]).tobytes() == raw[0].tobytes()
        assert_tail_matches(raw, model.target, bell.OPTIMAL_PLAN)

    def test_linear_start_stack_with_rows_under_the_floor(self):
        records = sampled_records(random_density(np.random.default_rng(11)), 1e3, 11)
        projectors, counts, pairs = record_arrays(records)
        design = tomo._design_matrix(projectors)
        hv = np.array([set(rec.setting.label_1 + rec.setting.label_2) <= set("HV")
                       for rec in records])
        draws = np.stack([counts, np.where(hv, 0.0, counts), np.zeros_like(counts),
                          counts[::-1]])
        assert hv.sum() == 4
        mixed = np.eye(4, dtype=complex) / 4.0
        # Rows 1 and 2 count nothing in the H/V basis: their traces are under
        # the floor and they fall back to the maximally mixed state, as every
        # row does without a design matrix.
        for plan_design, fallbacks in ((design, [False, True, True, False]),
                                       (None, [True] * 4)):
            expected = np.stack([reference_linear_start(plan_design, row, pairs)
                                 for row in draws])
            assert [np.array_equal(start, mixed) for start in expected] == fallbacks
            starts = tomo._linear_start(plan_design, draws, pairs)
            assert starts.tobytes() == expected.tobytes()
            for row, start in zip(draws, expected):
                assert tomo._linear_start(plan_design, row, pairs).tobytes() == start.tobytes()

    @pytest.mark.parametrize("fault, message", [
        ("non-Hermitian", "density matrix is not Hermitian"),
        ("trace-2", "density matrix trace ("),
        ("negative-eigenvalue", "density matrix has a negative eigenvalue"),
    ])
    def test_one_bad_row_raises_its_message(self, fault, message):
        mats = ginibre_states(np.random.default_rng(17), 7, 4)
        bad = {
            "non-Hermitian": mats[3] + np.triu(np.full((4, 4), 1e-6), 1),
            "trace-2": 2.0 * mats[3],
            "negative-eigenvalue": np.diag([0.5, 0.5, 0.25, -0.25]).astype(complex),
        }[fault]
        with pytest.raises(ValueError) as reference:
            reference_checks(bad)
        mats[3] = bad
        for given in (mats, bad):
            with pytest.raises(ValueError) as info:
                qstate._checked_density(given)
            assert str(info.value) == str(reference.value)
        with pytest.raises(ValueError) as info:
            DensityMatrix(bad)
        assert str(info.value) == str(reference.value)
        assert str(info.value).startswith(message)


def assert_matches_reference(records, **kwargs):
    result = mle_reconstruct(records, **kwargs)
    res, mat, trace = reference_fit(records, **kwargs)
    max_iterations = kwargs.get("max_iterations", 10_000)
    assert np.array_equal(result.rho.matrix, mat)
    assert result.likelihood == res.fun
    assert result.iterations == res.nit
    assert result.converged == (res.success and res.nit < max_iterations)
    assert result.objective_trace == trace


class TestMatchesMinimize:
    @pytest.mark.parametrize("mean_pairs", [5e1, 5e2, 1e4, 1e6])
    def test_random_states(self, mean_pairs):
        rng = np.random.default_rng(61)
        for seed in range(8):
            assert_matches_reference(
                sampled_records(random_density(rng), mean_pairs, seed))

    @pytest.mark.parametrize("mean_pairs", [1e2, 1e4, 1e9])
    def test_exact_counts(self, mean_pairs):
        rng = np.random.default_rng(83)
        for _ in range(8):
            assert_matches_reference(
                exact_tomography(random_density(rng), PLAN, mean_pairs))

    def test_adversarial_counts(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            counts = rng.choice([0.0, 1.0, 50.0, 1e5], size=16)
            assert_matches_reference([CountRecord(s, float(c), 1000.0)
                                      for s, c in zip(PLAN, counts)])

    @pytest.mark.parametrize("max_iterations", [1, 2, 5])
    def test_iteration_caps(self, max_iterations):
        rng = np.random.default_rng(67)
        for seed in range(4):
            records = sampled_records(random_density(rng), 3000, seed)
            assert_matches_reference(records, max_iterations=max_iterations)

    def test_given_start(self):
        rng = np.random.default_rng(71)
        records = sampled_records(random_density(rng), 3000, 5)
        assert_matches_reference(records, init=random_density(rng))

    @staticmethod
    def kinked(x):
        """sum sqrt(|x|) and its gradient: the kinks sit at the minimum, so
        the line searches take many evaluations."""
        return (np.sqrt(np.abs(x) + 1e-12).sum(),
                np.sign(x) / (2.0 * np.sqrt(np.abs(x) + 1e-12)))

    def kinked_fit(self, max_iterations):
        """`minimize` and `_lbfgsb` on `kinked` from the default_rng(7) start."""
        def stacked(xs, rows):
            values, grads = zip(*map(self.kinked, xs))
            return np.array(values), np.array(grads)

        x0 = np.random.default_rng(7).standard_normal(16)
        res = minimize(self.kinked, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": max_iterations, "maxfun": 10 * max_iterations,
                                "ftol": 1e-9, "gtol": 1e-10})
        return res, tomo._lbfgsb(stacked, x0[None, :], max_iterations)

    def test_evaluation_limit_stops_where_minimize_does(self):
        # The 10 * max_iterations limit binds before the iteration cap:
        # minimize stops at nit 4, nfev 52.
        res, (x, _, iterations, converged, _) = self.kinked_fit(5)
        assert "EVALUATIONS EXCEEDS LIMIT" in res.message and res.nit < 5
        assert x[0].tobytes() == res.x.tobytes()
        assert iterations == [res.nit] and converged == [False]

    def test_evaluation_limit_is_exceeded_not_reached(self):
        # At max_iterations 6 an iteration ends at exactly maxfun = 60
        # evaluations; minimize stops only above the limit, so this fit runs
        # on to its iteration cap.
        res, (x, _, iterations, converged, _) = self.kinked_fit(6)
        assert "ITERATIONS REACHED LIMIT" in res.message and res.nfev > 60
        assert x[0].tobytes() == res.x.tobytes()
        assert iterations == [res.nit] == [6] and converged == [False]


class TestMleReconstruct:
    @pytest.mark.parametrize("call", [
        record_arrays, linear_inversion, mle_reconstruct,
        lambda records: bootstrap_errors(records, 10),
        lambda records: mle_reconstruct(iter(records)),
        lambda records: record_arrays(iter(records)),
    ], ids=["record_arrays", "linear_inversion", "mle_reconstruct", "bootstrap_errors",
            "mle_reconstruct-iterator", "record_arrays-iterator"])
    def test_no_records_rejected(self, call):
        with pytest.raises(ValueError, match="^no records to reconstruct from$"):
            call([])

    def test_record_arrays_of_an_iterator_equal_those_of_its_list(self):
        records = sampled_records(random_density(np.random.default_rng(15)), 3000, 15)
        expected = record_arrays(records)
        for given in (iter(records), tuple(records), (rec for rec in records)):
            arrays = record_arrays(given)
            assert [a.shape for a in arrays] == [(16, 4, 4), (16,), (16,)]
            for array, want in zip(arrays, expected):
                assert array.tobytes() == want.tobytes()
            assert arrays[0] is expected[0]

    def test_init_as_matrix_or_density_matrix(self):
        rng = np.random.default_rng(14)
        init = random_density(rng)
        records = sampled_records(random_density(rng), 3000, 14)
        fits = [mle_reconstruct(records, init=start)
                for start in (init, init.matrix, init.matrix.tolist())]
        for fit in fits[1:]:
            assert fit.rho.matrix.tobytes() == fits[0].rho.matrix.tobytes()
            assert fit.objective_trace == fits[0].objective_trace

    def test_round_trip_fidelity(self):
        rho = to_density(bell_state("phi+"))
        result = mle_reconstruct(sampled_records(rho, 10000, 21))
        assert fidelity_with_pure(result.rho, bell_state("phi+")) >= 0.99
        assert result.converged

    def test_exact_init_stays_put(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng)
        records = exact_tomography(rho, PLAN, 10000)
        result = mle_reconstruct(records, init=rho)
        assert result.iterations <= 1
        assert np.max(np.abs(result.rho.matrix - rho.matrix)) <= 1e-9

    def test_agrees_with_linear_inversion_on_exact_data(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho = random_density(rng)
            records = exact_tomography(rho, PLAN, 10000)
            mle = mle_reconstruct(records).rho.matrix
            lin = linear_inversion(records)
            assert np.linalg.norm(mle - lin) <= 1e-8

    def test_always_physical_even_for_adversarial_counts(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            counts = rng.choice([0.0, 1.0, 50.0, 1e5], size=16)
            records = [CountRecord(s, float(c), 1000.0)
                       for s, c in zip(PLAN, counts)]
            result = mle_reconstruct(records)
            mat = result.rho.matrix
            assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(mat).min() >= -1e-12

    def test_objective_trace_is_monotone(self):
        rho = to_density(bell_state("phi+"))
        result = mle_reconstruct(sampled_records(rho, 10000, 23))
        trace = result.objective_trace
        assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))

    @pytest.mark.parametrize("seed", [23, 24])
    def test_objective_trace_holds_start_and_every_iterate(self, seed):
        records = sampled_records(random_density(np.random.default_rng(seed)),
                                  3000, seed)
        result = mle_reconstruct(records)
        projectors, counts, pairs = record_arrays(records)
        start = params_from_density(linear_inversion(records)).t
        trace = result.objective_trace
        assert len(trace) == result.iterations + 1
        assert trace[0] == objective_and_gradient(start, counts, pairs, projectors)[0]
        assert trace[-1] == result.likelihood

    def test_permutation_invariance(self):
        # identical up to floating-point path differences in the optimizer,
        # far below the statistical scale of the estimate
        rng = np.random.default_rng(29)
        rho = random_density(rng)
        records = sampled_records(rho, 5000, 31)
        shuffled = list(records)
        rng.shuffle(shuffled)
        a = mle_reconstruct(records).rho.matrix
        b = mle_reconstruct(shuffled).rho.matrix
        assert np.linalg.norm(a - b) <= 1e-6

    def test_zero_hv_counts_stay_physical(self):
        # With HH, HV, VH and VV all at zero the linear estimate has zero
        # trace; both fits must still start and end physical.
        rng = np.random.default_rng(43)
        records = [CountRecord(s, 0.0 if {s.label_1, s.label_2} <= {"H", "V"}
                               else float(rng.integers(1, 50)), 100.0)
                   for s in PLAN]
        assert sum(rec.counts == 0.0 for rec in records) == 4
        mat = mle_reconstruct(records).rho.matrix
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(mat).min() >= -1e-12
        errors = bootstrap_errors(records, replicas=3, seed=0)
        assert all(np.isfinite(v) and v >= 0.0 for v in errors.values())

    def test_iteration_cap_flags_result(self):
        rho = to_density(bell_state("phi+"))
        result = mle_reconstruct(sampled_records(rho, 10000, 37), max_iterations=1)
        assert not result.converged

    @pytest.mark.parametrize("cap", [0, -1, 2.5, True, 3.0, np.int64(5), "5", None])
    def test_invalid_iteration_cap_rejected(self, cap):
        records = sampled_records(to_density(bell_state("phi+")), 2000, 38)
        with pytest.raises(ValueError) as info:
            mle_reconstruct(records, max_iterations=cap)
        assert str(info.value) == f"max_iterations must be a positive int, got {cap!r}"

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_builtin_spectra_equal_eigen_hermitian(self, name):
        # metric_report sorts one eigh's eigenvalues; byte for byte they must
        # be eigen_hermitian's.
        config = builtin_scenario(name)
        model = resolve_model(config)
        records = acquire_tomography(model.state, tomography_plan(config.tomography_plan),
                                     model.effective_pairs, config.seed)
        result = mle_reconstruct(records)
        spectrum = np.array(result.metrics.eigen_spectrum)
        assert spectrum.tobytes() == qstate.eigen_hermitian(result.rho)[0].tobytes()

    def test_json_payload(self):
        rho = to_density(bell_state("phi+"))
        result = mle_reconstruct(sampled_records(rho, 2000, 39), plan_id="hvdr16")
        payload = result.to_json_dict()
        assert payload["plan"] == "hvdr16"
        assert set(payload["rho"]) == {"re", "im"}
        assert payload["iterations"] == result.iterations


def reference_bootstrap(records, replicas, seed, target):
    """Bootstrap as a plain loop: rebuild the records with each replica's
    redrawn counts, fit each through `reference_fit` and take its metrics
    with the one-state reference bodies."""
    conc, fid, s_val = [], [], []
    for r in range(replicas):
        rng = stream(seed, _BOOTSTRAP_STREAM, r)
        replica = [dataclasses.replace(rec, counts=float(rng.poisson(rec.counts)))
                   for rec in records]
        mat = reference_fit(replica)[1]
        conc.append(reference_concurrence(mat))
        fid.append(reference_fidelity(mat, target.amplitudes))
        s_val.append(reference_chsh_S(mat, bell.OPTIMAL_PLAN)[1])
    return {"concurrence": float(np.std(conc, ddof=1)),
            "fidelity": float(np.std(fid, ddof=1)),
            "S": float(np.std(s_val, ddof=1))}


class TestBootstrapErrors:
    @pytest.mark.parametrize("rho, mean_pairs, seed, floored", [
        # mixed state at the built-in count scale
        (depolarize(to_density(bell_state("phi+")), 0.2), 1e4, 3, False),
        # low counts; psi- never gives HH or VV coincidences
        (to_density(bell_state("psi-")), 5e2, 4, False),
        # pure HH at high counts: the fits reach the probability floor
        (to_density(PureState(np.array([1, 0, 0, 0], dtype=complex))), 1e9, 5, True),
    ])
    def test_matches_reference_loop_exactly(self, monkeypatch, rho, mean_pairs,
                                            seed, floored):
        records = sampled_records(rho, mean_pairs, seed)
        target = bell_state("phi+")
        expected = reference_bootstrap(records, 5, seed, target)

        lowest = []
        objective = tomo.objective_and_gradient

        def spy(t, counts, pairs, projectors, **kwargs):
            lowest.extend(np.einsum("nij,ji->n", projectors,
                                    tomo._density_from_params(row)).real.min()
                          for row in np.atleast_2d(t))
            return objective(t, counts, pairs, projectors, **kwargs)

        monkeypatch.setattr(tomo, "objective_and_gradient", spy)
        assert bootstrap_errors(records, replicas=5, seed=seed, target=target) == expected
        assert (min(lowest) <= tomo._PROB_FLOOR) == floored

    def test_groups_do_not_change_results(self, monkeypatch):
        records = sampled_records(random_density(np.random.default_rng(73)),
                                  2000, 6)
        expected = bootstrap_errors(records, replicas=5, seed=1)
        monkeypatch.setattr(tomo, "_FIT_ROWS", 2)
        assert bootstrap_errors(records, replicas=5, seed=1) == expected

    def test_passes_keep_every_fit(self, monkeypatch):
        # Seven low-count replicas whose fits take different iteration
        # counts, fitted in `_lbfgsb` passes of 1, 2, 3, 7 and 256 rows.
        # Within a pass the rows asking for the objective never grow, and
        # with more than one row a round in which a fit has ended evaluates
        # only the others. Every pass size must give each replica its own
        # `minimize` fit, and the same sigma bytes.
        records = sampled_records(random_density(np.random.default_rng(101)),
                                  500, 9)
        counts = record_arrays(records)[1]
        draws = [stream(4, _BOOTSTRAP_STREAM, r).poisson(counts) for r in range(7)]
        references = [reference_fit([dataclasses.replace(rec, counts=float(n))
                                     for rec, n in zip(records, row)])
                      for row in draws]
        assert len({res.nit for res, _, _ in references}) >= 4
        lbfgsb = tomo._lbfgsb
        sigmas = []
        for rows_per_pass in (1, 2, 3, 7, 256):
            monkeypatch.setattr(tomo, "_FIT_ROWS", rows_per_pass)
            passes = []

            def spy(fun, x0, max_iterations):
                asked = []

                def counted(t, rows):
                    asked.append(list(rows))
                    return fun(t, rows)

                passes.append((asked, lbfgsb(counted, x0, max_iterations,
                                             traced=range(len(x0)))))
                return passes[-1][1]

            monkeypatch.setattr(tomo, "_lbfgsb", spy)
            sigmas.append(bootstrap_errors(records, replicas=7, seed=4))
            sizes = [len(x) for _, (x, *_) in passes]
            assert sizes == [min(rows_per_pass, 7 - lo) for lo in range(0, 7, rows_per_pass)]
            for asked, _ in passes:
                assert max(map(len, asked)) <= rows_per_pass
                assert all(set(later) <= set(earlier)
                           for earlier, later in zip(asked, asked[1:]))
            round_sizes = {len(rows) for asked, _ in passes for rows in asked}
            assert (len(round_sizes) > 1) == (rows_per_pass > 1)
            fits = [(x[k], values[k], iterations[k], converged[k], traces[k])
                    for _, (x, values, iterations, converged, traces) in passes
                    for k in range(len(x))]
            for (x, value, nit, success, trace), (res, _, expected) in zip(fits, references):
                assert np.array_equal(x, res.x)
                assert value == res.fun
                assert nit == res.nit
                assert success == res.success
                assert tuple(trace) == expected
        assert all(sigma == sigmas[0] for sigma in sigmas)

    def test_rows_sharing_a_start_each_evaluate_it(self):
        # Two rows start at one point with other counts: the first converges
        # there at once, and the second must be evaluated with its own counts
        # rather than reuse the first one's evaluation.
        rho = random_density(np.random.default_rng(13))
        projectors, exact, pairs = record_arrays(exact_tomography(rho, PLAN, 10000))
        records = sampled_records(rho, 10000, 3)
        draws = np.stack([exact, record_arrays(records)[1]])
        start = params_from_density(rho).t
        x, _, iterations, _, traces = tomo._lbfgsb(
            lambda t, rows: objective_and_gradient(t, draws[rows], pairs, projectors),
            np.stack([start, start]), 10_000, traced=(1,))
        assert iterations[0] == 0 and np.array_equal(x[0], start)
        res, _, trace = reference_fit(records, init=rho)
        assert np.array_equal(x[1], res.x)
        assert iterations[1] == res.nit and tuple(traces[1]) == trace

    def test_positive_and_deterministic(self):
        rho = to_density(bell_state("phi+"))
        records = sampled_records(rho, 3000, 41)
        first = bootstrap_errors(records, replicas=20, seed=7)
        second = bootstrap_errors(records, replicas=20, seed=7)
        assert first == second
        assert all(v > 0 for v in first.values())

    def test_replica_floor(self):
        rho = to_density(bell_state("phi+"))
        with pytest.raises(ValueError):
            bootstrap_errors(sampled_records(rho, 1000, 2), replicas=1, seed=0)

    def test_replace_preserves_settings(self):
        rec = CountRecord(MeasurementSetting.of("H", "V"), 12.0, 100.0)
        clone = dataclasses.replace(rec, counts=15.0)
        assert clone.setting is rec.setting
        assert clone.counts == 15.0


def fork_record_sets():
    """20 seeded record sets: mixed states from 5e2 to 1e4 pairs per
    setting, low-count Bell states and pure HH, whose fits reach the
    probability floor."""
    rng = np.random.default_rng(2019)
    sets = [(f"mixed-{k}", random_density(rng), (5e2, 2e3, 1e4)[k % 3], k)
            for k in range(14)]
    sets += [(f"low-{name}", to_density(bell_state(name)), 5e2, 20 + k)
             for k, name in enumerate(("phi+", "phi-", "psi+", "psi-"))]
    sets.append(("depolarized-phi+", depolarize(to_density(bell_state("phi+")), 0.2),
                 1e4, 30))
    sets.append(("floored-HH", to_density(PureState(np.array([1, 0, 0, 0], dtype=complex))),
                 1e9, 31))
    return sets


FORK_RECORD_SETS = fork_record_sets()


class TestForkedBootstrap:
    """The replicas split over `jobs` processes against the serial fits (one
    `_lbfgsb` call over every replica), byte for byte."""

    @staticmethod
    def fits_and_errors(monkeypatch, records, replicas, seed, jobs, target=None):
        """`bootstrap_errors(..., jobs=jobs)` and the stacked fits it took
        its metrics from."""
        seen = []
        fit_blocks = tomo._fit_blocks

        def spy(fit, blocks):
            seen.append((blocks, fit_blocks(fit, blocks)))
            return seen[-1][1]

        monkeypatch.setattr(tomo, "_fit_blocks", spy)
        errors = bootstrap_errors(records, replicas, seed, target=target, jobs=jobs)
        [(blocks, fits)] = seen
        assert blocks == tomo._blocks(replicas, jobs)
        return fits, errors

    def assert_every_split_matches(self, monkeypatch, records, replicas, seed,
                                   target=None, splits=(2, 3, 4)):
        forks = []
        fork = os.fork

        def counted():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        serial, errors = self.fits_and_errors(monkeypatch, records, replicas, seed, 1,
                                              target)
        assert not forks
        assert serial.shape == (replicas, 16)
        splits = [jobs for jobs in splits if jobs <= replicas]
        for jobs in splits:
            fits, split_errors = self.fits_and_errors(monkeypatch, records, replicas,
                                                      seed, jobs, target)
            assert fits.tobytes() == serial.tobytes(), jobs
            assert split_errors == errors, jobs
        assert len(forks) == sum(jobs - 1 for jobs in splits)

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    @pytest.mark.parametrize("replicas", [2, 3, 65, 200])
    def test_builtins(self, monkeypatch, name, replicas):
        # At the shipped 200 replicas only 4 processes: the golden tests
        # already run them split over 3 (and over 2 on a 2-CPU machine).
        config = builtin_scenario(name)
        model = resolve_model(config)
        records = acquire_tomography(model.state, tomography_plan(config.tomography_plan),
                                     model.effective_pairs, config.seed)
        self.assert_every_split_matches(monkeypatch, records, replicas, config.seed,
                                        model.target, (4,) if replicas == 200 else (2, 3, 4))

    @pytest.mark.parametrize("name, rho, mean_pairs, seed", FORK_RECORD_SETS,
                             ids=[s[0] for s in FORK_RECORD_SETS])
    def test_seeded_record_sets(self, monkeypatch, name, rho, mean_pairs, seed):
        records = sampled_records(rho, mean_pairs, seed)
        for replicas in (2, 3):
            self.assert_every_split_matches(monkeypatch, records, replicas, seed)

    @pytest.mark.parametrize("name", ["mixed-0", "low-psi-", "floored-HH"])
    def test_seeded_record_sets_past_one_set_of_slots(self, monkeypatch, name):
        # 65 replicas in passes of at most 16: every block takes several.
        monkeypatch.setattr(tomo, "_FIT_ROWS", 16)
        [(_, rho, mean_pairs, seed)] = [s for s in FORK_RECORD_SETS if s[0] == name]
        self.assert_every_split_matches(monkeypatch, sampled_records(rho, mean_pairs, seed),
                                        65, seed)

    @pytest.mark.parametrize("cpus, replicas, jobs", [
        ({0}, 200, 1), ({0, 1, 2, 3}, 127, 1), ({0, 1}, 128, 2), ({0, 1}, 200, 2),
        ({0, 1, 2, 3}, 200, 3), (set(range(8)), 100_000, 8)])
    def test_one_worker_per_cpu_none_under_one_set_of_slots(self, monkeypatch, cpus,
                                                            replicas, jobs):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert tomo.bootstrap_jobs(replicas) == jobs

    def test_serial_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert tomo.bootstrap_jobs(100_000) == 1

    @pytest.mark.parametrize("rows", [2, 3, 64, 65, 200])
    def test_blocks_are_contiguous_and_even(self, rows):
        for jobs in range(1, min(4, rows) + 1):
            blocks = tomo._blocks(rows, jobs)
            assert len(blocks) == jobs
            assert [r for lo, hi in blocks for r in range(lo, hi)] == list(range(rows))
            sizes = [hi - lo for lo, hi in blocks]
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("replicas, jobs", [(2, 3), (3, 4), (65, 66), (5, 0), (5, -1)])
    def test_jobs_outside_1_to_replicas_rejected(self, monkeypatch, replicas, jobs):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        records = sampled_records(to_density(bell_state("phi+")), 1000, 2)
        with pytest.raises(ValueError, match="jobs must lie in 1"):
            bootstrap_errors(records, replicas=replicas, seed=0, jobs=jobs)


LOW_COUNT_STATES = {
    "psi-": to_density(bell_state("psi-")),
    "phi+": to_density(bell_state("phi+")),
    "depolarized phi+": depolarize(to_density(bell_state("phi+")), 0.3),
    "HH": to_density(PureState(np.array([1, 0, 0, 0], dtype=complex))),
    "random": random_density(np.random.default_rng(79)),
}


class TestLowCounts:
    """About 5e2 pairs per setting, where many settings count zero."""

    @pytest.mark.parametrize("name", sorted(LOW_COUNT_STATES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fit_errors_and_s_stay_finite(self, name, seed):
        rho = LOW_COUNT_STATES[name]
        records = sampled_records(rho, 5e2, seed)
        result = mle_reconstruct(records)
        assert result.converged
        mat = result.rho.matrix
        assert np.trace(mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(mat).min() >= -1e-12
        assert np.isfinite(bell.chsh_S(result.rho).S)
        errors = bootstrap_errors(records, replicas=20, seed=seed)
        assert all(np.isfinite(v) and v >= 0.0 for v in errors.values())
        sampled = bell.chsh_from_counts(
            bell.simulate_chsh_counts(rho, bell.OPTIMAL_PLAN, 5e2, seed))
        assert np.isfinite(sampled.S) and np.isfinite(sampled.sigma_S)


def signed_zero_pool():
    """Parameter rows whose T holds signed zeros, subnormals and the
    maximally mixed start, in that order:
    - 32 random rows, each with one slot set to -0.0 (rows 0-15, slot k in
      row k) or +0.0 (rows 16-31), so every diagonal and lower re/im slot
      holds each zero sign once;
    - 16 rows of signed zeros in every slot but one diagonal entry, so most
      probabilities are exactly zero and fall under the floor;
    - 8 random rows with 40% of their slots signed zeros;
    - 8 random rows with subnormals in 4 slots;
    - the starts of the maximally mixed state and of |HH>."""
    rng = np.random.default_rng(2020)
    rows = rng.standard_normal((32, 16))
    rows[np.arange(32), np.arange(32) % 16] = np.repeat([-0.0, 0.0], 16)
    sparse = np.where(rng.random((16, 16)) < 0.5, 0.0, -0.0)
    sparse[np.arange(16), np.arange(16) % 4] = 1.0
    zeros = rng.standard_normal((8, 16))
    zeros[rng.random((8, 16)) < 0.4] = 0.0
    zeros = np.copysign(zeros, rng.choice([1.0, -1.0], (8, 16)))
    tiny = rng.standard_normal((8, 16))
    for row in tiny:
        row[rng.choice(16, 4, replace=False)] = rng.choice(
            [5e-324, -5e-324, 2.5e-310, -1.1e-308], 4)
    starts = [params_from_density(maximally_mixed()).t,
              params_from_density(np.diag([1.0, 0.0, 0.0, 0.0])).t]
    return np.vstack([rows, sparse, zeros, tiny, starts])


class TestSignedZeroAssembly:
    """T's float store keeps each float as given, where the oracles'
    `t_re + 1j * t_im` turns some zero signs into +0.0; the densities of
    starts and fits must not see the difference, byte for byte
    (`TestFrozenForms` checks the objective and its gradient on this pool)."""

    POOL = signed_zero_pool()

    def test_pool_holds_each_zero_sign_in_every_slot(self):
        for sign in (False, True):
            held = (self.POOL == 0.0) & (np.signbit(self.POOL) == sign)
            assert held.any(axis=0).all()
        assert (np.abs(self.POOL[self.POOL != 0.0]) < 2.3e-308).sum() >= 32
        mixed = params_from_density(maximally_mixed()).t
        assert (mixed[4:] == 0.0).all()

    def test_store_is_the_inverse_of_the_gather(self):
        # The store `_unit_gram` writes into a bound `_Work`, filled twice:
        # the upper triangle and the diagonal's imaginary parts stay +0.0
        # and `_params_from_lower` reads each row back.
        pool = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -2.5e-310, 1.0]).view(np.uint64)
        pool = np.append(pool, [np.uint64(0x7FF8_0000_0000_0123),
                                np.uint64(0xFFF8_0000_0000_0000)]).view(np.float64)
        rng = np.random.default_rng(113)
        work = tomo._Work()
        work.bind(64, np.empty(0), np.empty((0, 4, 4), complex))
        for _ in range(2):
            t = rng.choice(pool, (64, 16))
            with np.errstate(all="ignore"):
                assert tomo._unit_gram(t, work) is None
            tri = work.tri
            assert tri.shape == (64, 4, 4) and tri.dtype == np.complex128
            assert tomo._params_from_lower(tri).tobytes() == t.tobytes()
            upper = np.triu(tri, 1).view(np.float64)
            assert not upper.any() and not np.signbit(upper).any()
            assert not np.signbit(np.diagonal(tri, axis1=1, axis2=2).imag).any()
            finite = np.isfinite(t).all(axis=1)
            assert np.array_equal(tri[finite], reference_lower(t[finite]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_parameters_stay_non_finite(self, bad):
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(np.random.default_rng(5)), 2000, 5))
        # A bad value in each slot in turn, the other slots random or zero.
        t = np.vstack([self.POOL[:16], self.POOL[32:48]])
        t[np.arange(32), np.arange(32) % 16] = bad
        with np.errstate(all="ignore"):
            values = objective_and_gradient(t, counts, pairs, projectors)[0]
            expected = oracle_objective(t, counts, pairs, projectors)[0]
            densities = tomo._density_from_params(t)
            expected_densities = np.stack([reference_density(row) for row in t])
        assert not np.isfinite(values).any() and not np.isfinite(expected).any()
        for mats in (densities, expected_densities):
            assert not np.isfinite(mats).all(axis=(1, 2)).any()

    @staticmethod
    def starts_and_fits(records, replicas):
        """The main fit's start and `replicas` bootstrap starts of `records`,
        and the fits from them."""
        projectors, counts, pairs = record_arrays(records)
        design = tomo._design_matrix(projectors)
        draws = np.array([counts] + [stream(3, _BOOTSTRAP_STREAM, r).poisson(counts)
                                     for r in range(replicas)], dtype=float)
        starts = tomo._params_from_densities(tomo._linear_start(design, draws, pairs))
        fits = tomo._lbfgsb(lambda t, rows: objective_and_gradient(
            t, draws[rows], pairs, projectors), starts, 10_000)[0]
        return np.vstack([starts, fits])

    def assert_densities_match(self, params):
        densities = tomo._density_from_params(params)
        expected = np.stack([reference_density(t) for t in params])
        assert densities.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", BUILTIN_SCENARIOS)
    def test_builtin_starts_and_fits(self, name):
        config = builtin_scenario(name)
        model = resolve_model(config)
        records = acquire_tomography(model.state, tomography_plan(config.tomography_plan),
                                     model.effective_pairs, config.seed)
        self.assert_densities_match(self.starts_and_fits(records, 8))

    def test_seeded_record_sets(self):
        params = np.vstack([self.starts_and_fits(sampled_records(rho, mean_pairs, seed), 2)
                            for _, rho, mean_pairs, seed in FORK_RECORD_SETS])
        assert len(params) == 6 * len(FORK_RECORD_SETS) >= 120
        self.assert_densities_match(params)


class TestFrozenForms:
    """The objective, its gradient and `_density_from_params` store T's
    floats as given, multiply the floats of the Gram matrix and of the
    weight by 1 / tr, and subtract the identity term from the weight's real
    diagonal floats only; byte for byte, they must give what the complex
    forms of `oracle_objective` and `reference_density` give, on the
    signed-zero pool at scales from 1e-3 to 1e3 (below-floor rows and
    subnormals included)."""

    POOL = np.vstack([signed_zero_pool() * scale for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3)])

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_objective(self, rows):
        rng = np.random.default_rng(300 + rows)
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(rng), 2000, rows))
        stacked_counts = counts + rng.integers(0, 5, (len(self.POOL), 16))
        below = 0
        for lo in range(0, len(self.POOL), rows):
            t = self.POOL[lo:lo + rows]
            for row_counts in (counts, stacked_counts[lo:lo + rows]):
                values, grads = objective_and_gradient(t, row_counts, pairs, projectors)
                expected, expected_grads, probs = oracle_objective(t, row_counts, pairs,
                                                                   projectors)
                assert np.isfinite(values).all()
                assert values.tobytes() == expected.tobytes()
                assert grads.tobytes() == expected_grads.tobytes()
                below += int((probs < tomo._PROB_FLOOR).any(axis=1).sum())
                if rows == 1:
                    value, grad = objective_and_gradient(t[0], row_counts.reshape(16),
                                                         pairs, projectors)
                    assert np.float64(value).tobytes() == expected[0].tobytes()
                    assert grad.tobytes() == expected_grads[0].tobytes()
        assert below >= 2 * 16 * 5

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_density(self, rows):
        for lo in range(0, len(self.POOL), rows):
            t = self.POOL[lo:lo + rows]
            expected = np.stack([reference_density(row) for row in t])
            assert tomo._density_from_params(t).tobytes() == expected.tobytes()
            if rows == 1:
                assert tomo._density_from_params(t[0]).tobytes() == expected[0].tobytes()


class TestSubnormalTrace:
    """Parameters so small that tr(T T^H) is at most 2**-1024, where 1 / tr
    overflows: the density and the objective must stay finite, with no
    warning, and match the same row at unit scale."""

    T0 = np.random.default_rng(0).standard_normal(16)
    SCALES = [1e-155, 1e-160, 1e-170, 1e-300]

    @pytest.mark.parametrize("scale", SCALES)
    def test_density_is_hermitian_and_matches_the_unscaled_row(self, scale):
        t = self.T0 * scale
        assert np.sum(t * t) <= 2.0 ** -1024
        raw = tomo._density_from_params(t)
        assert np.array_equal(raw, raw.conj().T)
        expected = tomo._density_from_params(self.T0)
        assert np.abs(raw - expected).max() <= 1e-12
        assert np.abs(CholeskyParams(t).density().matrix - expected).max() <= 1e-12

    def test_subnormal_parameters_take_a_power_of_two(self):
        # Every entry subnormal: the density is that of the row scaled by a
        # power of two into the normal range, which changes no byte there.
        t = np.ldexp(self.T0, -1070)
        assert (np.abs(t) < 2.2e-308).all()
        assert (tomo._density_from_params(t).tobytes()
                == tomo._density_from_params(np.ldexp(t, 1070)).tobytes())

    def test_rows_in_a_stack(self):
        # Tiny rows among normal ones: every row equals its own call, and the
        # normal rows keep the oracles' bytes.
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(np.random.default_rng(8)), 2000, 8))
        t = np.vstack([self.T0 * scale for scale in [1.0] + self.SCALES + [3.0]])
        values, grads = objective_and_gradient(t, counts, pairs, projectors)
        densities = tomo._density_from_params(t)
        for r, row in enumerate(t):
            value, grad = objective_and_gradient(row, counts, pairs, projectors)
            assert np.float64(value).tobytes() == values[r].tobytes()
            assert grad.tobytes() == grads[r].tobytes()
            assert tomo._density_from_params(row).tobytes() == densities[r].tobytes()
        for r in (0, len(t) - 1):
            expected, expected_grads, _ = oracle_objective(t[r], counts, pairs, projectors)
            assert values[r] == expected[0] and np.array_equal(grads[r], expected_grads[0])
            assert densities[r].tobytes() == reference_density(t[r]).tobytes()

    @pytest.mark.parametrize("scale", SCALES)
    def test_objective_matches_the_unscaled_row(self, scale):
        # The objective does not depend on the scale of t; its gradient
        # scales by the inverse.
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(np.random.default_rng(9)), 2000, 9))
        value, grad = objective_and_gradient(self.T0, counts, pairs, projectors)
        tiny_value, tiny_grad = objective_and_gradient(self.T0 * scale, counts, pairs,
                                                       projectors)
        assert tiny_value == pytest.approx(value, rel=1e-12)
        np.testing.assert_allclose(tiny_grad * scale, grad, rtol=0,
                                   atol=1e-12 * np.abs(grad).max())

    def test_zero_row_stays_non_finite(self):
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(np.random.default_rng(10)), 2000, 10))
        with np.errstate(all="ignore"):
            assert not np.isfinite(tomo._density_from_params(np.zeros(16))).all()
            assert not np.isfinite(objective_and_gradient(np.zeros(16), counts, pairs,
                                                          projectors)[0])


class TestWorkReuse:
    """One `_Work` kept across calls whose row count goes 64 -> 47 -> 1 -> 64,
    two calls per count (rebinding only where the count changes): every call
    must give the bytes of `oracle_objective` and of a call with fresh
    buffers, and no call may change what an earlier one returned. The rows
    hold the signed-zero pool (below-floor and subnormal rows included) and
    a row whose trace is subnormal, which reruns `_unit_gram` in the same
    buffers on its row scaled by a power of two."""

    @staticmethod
    def expected(t, counts, pairs, projectors):
        """`oracle_objective` of each row, or of the row scaled into the
        normal range where 1 / tr overflows, its gradient scaled back."""
        tiny = np.sum(t * t, axis=1) <= 2.0 ** -1024
        shifts = np.where(tiny, -np.frexp(np.abs(t).max(axis=1))[1], 0)[:, None]
        values, grads, probs = oracle_objective(np.ldexp(t, shifts), counts, pairs,
                                                projectors)
        return values, np.ldexp(grads, shifts), probs

    def test_row_counts_change_between_calls(self):
        rng = np.random.default_rng(2424)
        projectors, counts, pairs = record_arrays(
            sampled_records(random_density(rng), 2000, 24))
        pool = signed_zero_pool()
        subnormal = TestSubnormalTrace.T0 * 1e-160
        stacks = [np.vstack([pool[:62], subnormal, pool[-1]]),
                  np.vstack([pool[19:65], subnormal]),
                  subnormal[None],
                  np.vstack([pool[32:48], rng.standard_normal((47, 16)), subnormal])]
        work = tomo._Work()
        returned, below, shifted = [], 0, 0
        for t in stacks:
            for row_counts in (counts, counts + rng.integers(0, 5, (len(t), 16))):
                values, grads = objective_and_gradient(t, row_counts, pairs, projectors,
                                                       work=work)
                assert work.shape == (len(t), 16)
                expected, expected_grads, probs = self.expected(t, row_counts, pairs,
                                                                projectors)
                fresh, fresh_grads = objective_and_gradient(t, row_counts, pairs,
                                                            projectors)
                assert np.isfinite(values).all()
                for got in (values, fresh):
                    assert got.tobytes() == expected.tobytes()
                for got in (grads, fresh_grads):
                    assert got.tobytes() == expected_grads.tobytes()
                if len(t) == 1:
                    value, grad = objective_and_gradient(t[0], row_counts.reshape(-1, 16)[0],
                                                         pairs, projectors, work=work)
                    assert np.float64(value).tobytes() == expected[0].tobytes()
                    assert grad.tobytes() == expected_grads[0].tobytes()
                    returned.append((grad, grad.tobytes()))
                returned += [(values, values.tobytes()), (grads, grads.tobytes())]
                below += int((probs < tomo._PROB_FLOOR).any(axis=1).sum())
                shifted += int((np.sum(t * t, axis=1) <= 2.0 ** -1024).sum())
        for array, data in returned:
            assert array.tobytes() == data
        assert below >= 16 and shifted == 8


class TestFitConstants:
    """A fit binds its `_Work` once per row count, and the constants bound
    with it (N_v and 2 N_v on every row, the projectors' floats) are made
    by that bind, not by each call."""

    def test_one_row_fit_binds_once(self, monkeypatch):
        records = sampled_records(random_density(np.random.default_rng(26)), 4000, 26)
        projectors, counts, pairs = record_arrays(records)
        expected = mle_reconstruct(records)
        bind, bound = tomo._Work.bind, []

        def counted(work, *args):
            bind(work, *args)
            bound.append((work, work.pairs, work.pairs2, work.projector_floats))

        monkeypatch.setattr(tomo._Work, "bind", counted)
        result = mle_reconstruct(records)
        assert len(bound) == 1 and result.iterations > 1
        work, *constants = bound[0]
        now = (work.pairs, work.pairs2, work.projector_floats)
        assert all(array is made for array, made in zip(now, constants))
        assert work.pairs.tobytes() == pairs[None].tobytes()
        assert work.pairs2.tobytes() == (2.0 * pairs)[None].tobytes()
        assert np.shares_memory(work.projector_floats, projectors)
        for got, want in [(result.rho.matrix, expected.rho.matrix),
                          (result.likelihood, expected.likelihood),
                          (result.objective_trace, expected.objective_trace)]:
            assert np.array(got).tobytes() == np.array(want).tobytes()
        assert (result.iterations, result.converged) == (expected.iterations,
                                                         expected.converged)


class TestFloorBranch:
    """A stack whose probabilities are all above the floor skips the floor
    mask; one with a NaN row or a row at or below the floor takes it. NaN rows among
    finite rows above and below the floor: every finite row must keep the
    bytes of `oracle_objective` and of its own one-row call, and every NaN
    row those of its one-row call."""

    @pytest.mark.parametrize("kinds", ["na", "nb", "anb", "bna"])
    def test_nan_rows_among_finite_rows(self, kinds):
        rng = np.random.default_rng(271)
        projectors = record_arrays([CountRecord(s, 0.0, 1.0) for s in PLAN])[0]
        pairs = np.full(16, 1000.0)
        make = {"a": lambda: rng.standard_normal(16),
                "b": lambda: np.r_[1.0, rng.standard_normal(15) * 3e-7],
                "n": lambda: np.where(np.arange(16) == rng.integers(16), np.nan,
                                      rng.standard_normal(16))}
        t = np.array([make[kind]() for kind in kinds * 2])
        nan = np.isnan(t).any(axis=1)
        counts = rng.integers(1, 50, (len(t), 16)).astype(float)
        with np.errstate(all="ignore"):
            values, grads = objective_and_gradient(t, counts, pairs, projectors)
            expected, expected_grads, probs = oracle_objective(t[~nan], counts[~nan],
                                                               pairs, projectors)
            single = [objective_and_gradient(row, row_counts, pairs, projectors)
                      for row, row_counts in zip(t, counts)]
        below = (probs < tomo._PROB_FLOOR).any(axis=1)
        assert below.any() == ("b" in kinds) and (~below).any() == ("a" in kinds)
        assert np.isnan(values[nan]).all() and np.isnan(grads[nan]).all()
        assert values[~nan].tobytes() == expected.tobytes()
        assert grads[~nan].tobytes() == expected_grads.tobytes()
        for r, (value, grad) in enumerate(single):
            assert np.float64(value).tobytes() == values[r].tobytes()
            assert grad.tobytes() == grads[r].tobytes()


class TestFitsCallTheModuleAttribute:
    """The fits reach `objective_and_gradient` through the module, once per
    evaluation round, so that a wrapper put there (as the benchmark's
    tracer does) sees every evaluation."""

    @pytest.mark.parametrize("fit", [
        lambda records: mle_reconstruct(records).rho.matrix.tobytes(),
        lambda records: bootstrap_errors(records, 5, seed=6, jobs=1),
    ], ids=["mle_reconstruct", "bootstrap_errors"])
    def test_wrapper_sees_every_round(self, monkeypatch, fit):
        records = sampled_records(random_density(np.random.default_rng(16)), 2000, 16)
        expected = fit(records)
        lbfgsb, objective = tomo._lbfgsb, tomo.objective_and_gradient
        rounds, seen = [], []

        def counted_lbfgsb(fun, *args, **kwargs):
            def counted(t, rows):
                rounds.append(len(rows))
                return fun(t, rows)
            return lbfgsb(counted, *args, **kwargs)

        def counting(t, *args, **kwargs):
            seen.append(len(np.atleast_2d(t)))
            return objective(t, *args, **kwargs)

        monkeypatch.setattr(tomo, "_lbfgsb", counted_lbfgsb)
        monkeypatch.setattr(tomo, "objective_and_gradient", counting)
        assert fit(records) == expected
        assert len(rounds) > 1 and seen == rounds


class TestPlanCache:
    def test_arrays_are_shared_per_tuple_of_settings(self):
        records = sampled_records(random_density(np.random.default_rng(4)), 2000, 4)
        other = sampled_records(random_density(np.random.default_rng(5)), 3000, 5)
        projectors, design = tomo._plan(records)
        assert tomo._plan(other)[0] is projectors and tomo._plan(other)[1] is design
        assert record_arrays(other)[0] is projectors
        for array in (projectors, design):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        expected = np.stack([setting.projector() for setting in PLAN])
        assert projectors.tobytes() == expected.tobytes()
        assert design.tobytes() == tomo._design_matrix(expected).tobytes()
        # New setting objects of the same plan build their own equal arrays.
        rebuilt = tomo._plan([CountRecord(setting, 0.0, 1.0) for setting in tomography_plan()])
        assert rebuilt[0] is not projectors
        assert rebuilt[0].tobytes() == projectors.tobytes()
        assert rebuilt[1].tobytes() == design.tobytes()
