"""Tests for linear inversion, MLE reconstruction and bootstrap errors."""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from biphoton import bell, tomo
from biphoton.cli import BUILTIN_SCENARIOS, builtin_scenario, resolve_model
from biphoton.optics import depolarize
from biphoton.qstate import (PureState, bell_state, concurrence,
                             fidelity_with_pure, maximally_mixed,
                             random_density, to_density)
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
        init = tomo._linear_start(tomo._design_matrix(projectors), counts, pairs)
    t0 = params_from_density(init).t

    def fun(t):
        return objective_and_gradient(t, counts, pairs, projectors)

    trace = [fun(t0)[0]]
    res = minimize(fun, t0, jac=True, method="L-BFGS-B",
                   callback=lambda intermediate_result: trace.append(
                       intermediate_result.fun),
                   options={"maxiter": max_iterations, "ftol": 1e-9,
                            "gtol": 1e-10, "maxfun": 10 * max_iterations})
    return res, CholeskyParams(res.x).density(), tuple(trace)


def reference_pack(tri):
    """Field-by-field copy of the diagonal and lower triangle of each 4x4
    matrix into the 16 Cholesky parameters, in parameter order."""
    flat = tri.reshape(tri.shape[:-2] + (16,))
    t = np.empty(flat.shape)
    t[..., 0:4] = flat[..., tomo._DIAG_FLAT].real
    lower = flat[..., tomo._LOWER_FLAT]
    t[..., 4::2] = lower.real
    t[..., 5::2] = lower.imag
    return t


def oracle_objective(t, counts, pairs, projectors):
    """The stacked objective with its per-row forms: one einsum per row for
    the probabilities and a complex einsum for the gradient weight."""
    tri = tomo._lower_from_params(np.asarray(t, dtype=float).reshape(-1, 16))
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


def reference_params(mat, floor=tomo._INIT_EIGEN_FLOOR):
    """The one-matrix body of params_from_density: floor the eigenvalues,
    renormalize and take the Cholesky factor."""
    evals, evecs = np.linalg.eigh(mat)
    evals = np.clip(evals, floor, None)
    mat = (evecs * evals) @ evecs.conj().T
    mat /= np.real(np.trace(mat))
    return reference_pack(np.linalg.cholesky(mat))


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


def assert_matches_reference(records, **kwargs):
    result = mle_reconstruct(records, **kwargs)
    res, rho, trace = reference_fit(records, **kwargs)
    max_iterations = kwargs.get("max_iterations", 10_000)
    assert np.array_equal(result.rho.matrix, rho.matrix)
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


class TestMleReconstruct:
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

    def test_json_payload(self):
        rho = to_density(bell_state("phi+"))
        result = mle_reconstruct(sampled_records(rho, 2000, 39), plan_id="hvdr16")
        payload = result.to_json_dict()
        assert payload["plan"] == "hvdr16"
        assert set(payload["rho"]) == {"re", "im"}
        assert payload["iterations"] == result.iterations


def reference_bootstrap(records, replicas, seed, target):
    """Bootstrap as a plain loop: rebuild the records with each replica's
    redrawn counts and fit each through `reference_fit`."""
    conc, fid, s_val = [], [], []
    for r in range(replicas):
        rng = stream(seed, _BOOTSTRAP_STREAM, r)
        replica = [dataclasses.replace(rec, counts=float(rng.poisson(rec.counts)))
                   for rec in records]
        rho = reference_fit(replica)[1]
        conc.append(concurrence(rho))
        fid.append(fidelity_with_pure(rho, target))
        s_val.append(bell.chsh_S(rho, bell.OPTIMAL_PLAN).S)
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

        def spy(t, counts, pairs, projectors):
            lowest.extend(np.einsum("nij,ji->n", projectors,
                                    tomo._density_from_params(row)).real.min()
                          for row in np.atleast_2d(t))
            return objective(t, counts, pairs, projectors)

        monkeypatch.setattr(tomo, "objective_and_gradient", spy)
        assert bootstrap_errors(records, replicas=5, seed=seed, target=target) == expected
        assert (min(lowest) <= tomo._PROB_FLOOR) == floored

    def test_groups_do_not_change_results(self, monkeypatch):
        records = sampled_records(random_density(np.random.default_rng(73)),
                                  2000, 6)
        expected = bootstrap_errors(records, replicas=5, seed=1)
        monkeypatch.setattr(tomo, "_FIT_SLOTS", 2)
        assert bootstrap_errors(records, replicas=5, seed=1) == expected

    def test_slot_refill_keeps_every_fit(self, monkeypatch):
        # Seven low-count replicas whose fits take different iteration
        # counts, so that with fewer slots than replicas a slot is refilled
        # in the middle of other fits. With one slot every round evaluates
        # the whole stack; with more, rounds in which a slot has no row left
        # or reuses its last evaluation evaluate only the others. Every slot
        # count must give the same bytes.
        records = sampled_records(random_density(np.random.default_rng(101)),
                                  500, 9)
        projectors, counts, pairs = record_arrays(records)
        design = tomo._design_matrix(projectors)
        draws = np.array([stream(4, _BOOTSTRAP_STREAM, r).poisson(counts)
                          for r in range(7)], dtype=float)
        starts = np.stack([params_from_density(tomo._linear_start(design, row, pairs)).t
                           for row in draws])
        references = [reference_fit([dataclasses.replace(rec, counts=float(n))
                                     for rec, n in zip(records, row)])
                      for row in draws]
        assert len({res.nit for res, _, _ in references}) >= 4
        sigmas, outputs = [], []
        for slots in (1, 2, 3, 7, 64):
            monkeypatch.setattr(tomo, "_FIT_SLOTS", slots)
            round_sizes = set()

            def fun(t, rows):
                round_sizes.add(len(rows))
                return objective_and_gradient(t, draws[rows], pairs, projectors)

            x, values, iterations, converged, traces = tomo._lbfgsb(fun, starts, 10_000)
            assert max(round_sizes) == min(slots, 7)
            assert (len(round_sizes) > 1) == (slots > 1)
            for r, (res, _, trace) in enumerate(references):
                assert np.array_equal(x[r], res.x)
                assert values[r] == res.fun
                assert iterations[r] == res.nit
                assert converged[r] == res.success
                assert tuple(traces[r]) == trace
            outputs.append((x.tobytes(), np.array(values).tobytes(), iterations,
                            converged, [np.array(trace).tobytes() for trace in traces]))
            sigmas.append(bootstrap_errors(records, replicas=7, seed=4))
        assert all(output == outputs[0] for output in outputs)
        assert all(sigma == sigmas[0] for sigma in sigmas)

    def test_refilled_slot_evaluates_its_start(self, monkeypatch):
        # The first fit converges at its start; the next one starts there too
        # in the same slot, with other counts, and must not reuse the first
        # fit's evaluation.
        rho = random_density(np.random.default_rng(13))
        projectors, exact, pairs = record_arrays(exact_tomography(rho, PLAN, 10000))
        records = sampled_records(rho, 10000, 3)
        draws = np.stack([exact, record_arrays(records)[1]])
        start = params_from_density(rho).t
        monkeypatch.setattr(tomo, "_FIT_SLOTS", 1)
        x, _, iterations, _, traces = tomo._lbfgsb(
            lambda t, rows: objective_and_gradient(t, draws[rows], pairs, projectors),
            np.stack([start, start]), 10_000)
        assert iterations[0] == 0 and np.array_equal(x[0], start)
        res, _, trace = reference_fit(records, init=rho)
        assert np.array_equal(x[1], res.x)
        assert iterations[1] == res.nit and tuple(traces[1]) == trace

    def test_no_resampling_gives_zero_spread(self):
        rho = to_density(bell_state("phi+"))
        records = exact_tomography(rho, PLAN, 5000)
        errors = bootstrap_errors(records, replicas=5, seed=0, resample=False)
        assert errors == {"concurrence": 0.0, "fidelity": 0.0, "S": 0.0}

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
