"""Tests for coincidence probabilities, sampling and fringe generation."""

import os
import warnings

import numpy as np
import pytest

from biphoton import bell, sim, tomo
from biphoton.optics import anisotropic_coupler
from biphoton.qstate import (bell_state, ket, linear_ket, random_density,
                             schmidt_pure, to_density)
from biphoton.sim import (CountRecord, FringeCurve, MeasurementSetting,
                          PLAN_HVDR16, acquire_tomography, biphoton_fringe,
                          coincidence_probability, h_state_with_leak,
                          leak_fraction_for_extinction, polarization_angle,
                          records_from_csv, records_to_csv, sample_counts,
                          single_photon_fringe, stream, tomography_plan)
from biphoton.tomo import record_arrays
from helpers import exact_records, maximally_mixed


# Frozen copies of the per-item forms that the stacked ones replaced: one
# Born-rule matmul chain and one stream per draw. The byte oracles below
# compare the package against them.
def oracle_stream(seed, *key):
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def frozen_pair_probability(rho, pair):
    value = float(np.real(pair.conj() @ rho.matrix @ pair))
    return min(max(value, 0.0), 1.0)


def frozen_biphoton_fringe(rho, fixed, scan_angles, mean_pairs=None, seed=None):
    fixed_ket = ket(fixed) if isinstance(fixed, str) else np.asarray(fixed, dtype=complex)
    theta = np.asarray(scan_angles, dtype=float)
    probs = np.array([frozen_pair_probability(rho, np.kron(fixed_ket, linear_ket(ang)))
                      for ang in theta])
    ref = polarization_angle(fixed_ket)
    if mean_pairs is None:
        return FringeCurve.fit(theta, probs, phase_ref=ref)
    values = np.array([
        float(sample_counts(p, mean_pairs, oracle_stream(seed, sim._FRINGE_STREAM, i)))
        for i, p in enumerate(probs)])
    return FringeCurve.fit(theta, values, phase_ref=ref)


def frozen_single_photon_fringe(input_state, eta_h, eta_v, analyzer_angles):
    rho = sim._qubit_density(input_state)
    coupling = anisotropic_coupler(eta_h, eta_v).operators[0]
    out = coupling @ rho @ coupling.conj().T
    theta = np.asarray(analyzer_angles, dtype=float)
    values = np.empty_like(theta)
    for i, ang in enumerate(theta):
        analyzer = linear_ket(ang)
        values[i] = float(np.real(analyzer.conj() @ out @ analyzer))
    return FringeCurve.fit(theta, values, phase_ref=0.0)


def frozen_records(rho, settings, mean_pairs, seed, tag):
    records = []
    for i, setting in enumerate(settings):
        p = frozen_pair_probability(rho, np.kron(setting.ket_1, setting.ket_2))
        counts = float(sample_counts(p, mean_pairs, oracle_stream(seed, tag, i)))
        records.append(CountRecord(setting, counts, float(mean_pairs)))
    return records


def record_bytes(records):
    """What `records_to_csv` writes of each record, with the value types."""
    return [(r.setting.label_1, r.setting.label_2, repr(r.counts), type(r.counts),
             repr(r.expected_pairs), type(r.expected_pairs)) for r in records]


def curve_bytes(curve):
    return (curve.angles.tobytes(), curve.values.tobytes(),
            *(float(x).hex() for x in (curve.offset, curve.amp_cos, curve.amp_sin,
                                       curve.phase_ref, curve.visibility)))


#: Scan angles with a negative zero, negatives, angles beyond 2 pi and 1e6 rad.
ODD_ANGLES = np.array([-0.0, 0.0, -0.3, -2.5, 0.7, 1.2, 2 * np.pi + 0.4, 9.0, 1e6,
                       -1e6, np.pi / 2, np.pi])


class TestCoincidenceProbability:
    def test_phi_plus_hh(self):
        rho = to_density(bell_state("phi+"))
        setting = MeasurementSetting.of("H", "H")
        assert coincidence_probability(rho, setting) == pytest.approx(0.5, abs=1e-12)

    def test_phi_plus_d_a_is_zero(self):
        rho = to_density(bell_state("phi+"))
        setting = MeasurementSetting.of("D", "A")
        assert coincidence_probability(rho, setting) < 1e-12

    def test_phi_plus_h_v_is_zero(self):
        rho = to_density(bell_state("phi+"))
        setting = MeasurementSetting.of("H", "V")
        assert coincidence_probability(rho, setting) < 1e-12

    def test_phi_plus_r_l(self):
        rho = to_density(bell_state("phi+"))
        setting = MeasurementSetting.of("R", "L")
        # independent evaluation via the projector matrix
        expected = float(np.real(np.trace(rho.matrix @ setting.projector())))
        assert coincidence_probability(rho, setting) == pytest.approx(0.5, abs=1e-12)
        assert expected == pytest.approx(0.5, abs=1e-12)

    def test_sums_to_one_over_product_bases(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            rho = random_density(rng)
            a = rng.uniform(0, np.pi)
            b = rng.uniform(0, np.pi)
            total = sum(
                coincidence_probability(rho, MeasurementSetting.of(a1, b1))
                for a1 in (a, a + np.pi / 2) for b1 in (b, b + np.pi / 2))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestPairKet:
    def test_setting_builds_its_pair_once_on_first_use(self):
        setting = MeasurementSetting.of("R", 0.3)
        # Construction stays as cheap as before: no pair until one is asked for.
        assert "pair" not in vars(setting)
        pair = setting.pair
        assert setting.pair is pair and not pair.flags.writeable
        assert pair.tobytes() == np.kron(setting.ket_1, setting.ket_2).tobytes()
        # The projector is built on each call, bit-equal and read-only each time.
        for projector in (setting.projector(), setting.projector()):
            assert not projector.flags.writeable
            assert projector.tobytes() == np.outer(pair, pair.conj()).tobytes()

    def test_probabilities_from_the_cached_pair_are_bit_equal(self):
        rng = np.random.default_rng(23)
        settings = [*tomography_plan(),
                    *(MeasurementSetting.of(*rng.uniform(0, np.pi, 2)) for _ in range(16))]
        for _ in range(50):
            rho = random_density(rng, 1 + int(rng.integers(4)))
            for s in settings:
                fresh = frozen_pair_probability(rho, np.kron(s.ket_1, s.ket_2))
                assert coincidence_probability(rho, s).hex() == fresh.hex()


class TestStackedForms:
    """The stacked Born rule and the batched streams against the frozen
    per-item loops, byte for byte."""

    FIXED = ("H", "D", "R", np.array([0.6, 0.8j]),
             np.array([np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)]))
    SAMPLING = ((500, 3), (3.3e4, 2**32 - 1), (250.5, 2**32))

    def scans(self, rng):
        return (ODD_ANGLES, np.deg2rad(np.arange(0, 180, 10)), rng.uniform(-10, 10, 7))

    def test_biphoton_fringe(self):
        rng = np.random.default_rng(2201)
        for rank in (1, 2, 3, 4):
            for _ in range(3):
                rho = random_density(rng, rank)
                for fixed in self.FIXED:
                    for angles in self.scans(rng):
                        assert (curve_bytes(biphoton_fringe(rho, fixed, angles))
                                == curve_bytes(frozen_biphoton_fringe(rho, fixed, angles)))
                        for mean_pairs, seed in self.SAMPLING:
                            got = biphoton_fringe(rho, fixed, angles, mean_pairs, seed)
                            want = frozen_biphoton_fringe(rho, fixed, angles, mean_pairs, seed)
                            assert curve_bytes(got) == curve_bytes(want)

    def test_single_photon_fringe(self):
        rng = np.random.default_rng(2202)
        states = [ket("H"), ket("D"), ket("R"), np.array([0.6, 0.8j]),
                  h_state_with_leak(1.0 / 26.0), h_state_with_leak(0.0)]
        for rank in (1, 2):
            for _ in range(4):
                g = rng.standard_normal((2, rank)) + 1j * rng.standard_normal((2, rank))
                mat = g @ g.conj().T
                states.append(mat / np.trace(mat).real)
        for state in states:
            for eta_h, eta_v in ((1.0, 1.0), (0.403, 0.403 / 1.78), (0.2, 0.9)):
                for angles in self.scans(rng):
                    got = single_photon_fringe(state, eta_h, eta_v, angles)
                    want = frozen_single_photon_fringe(state, eta_h, eta_v, angles)
                    assert curve_bytes(got) == curve_bytes(want)

    def test_tomography_records(self):
        rng = np.random.default_rng(2203)
        plans = [tomography_plan(),
                 tuple(MeasurementSetting.of(a, b)
                       for a, b in zip(ODD_ANGLES[:4].repeat(4), np.tile(ODD_ANGLES[4:8], 4)))]
        for rank in (1, 2, 3, 4):
            for _ in range(3):
                rho = random_density(rng, rank)
                for plan in plans:
                    for mean_pairs, seed in self.SAMPLING:
                        got = acquire_tomography(rho, plan, mean_pairs, seed)
                        want = frozen_records(rho, plan, mean_pairs, seed, sim._TOMO_STREAM)
                        assert record_bytes(got) == record_bytes(want)

    def test_chsh_records(self):
        rng = np.random.default_rng(2204)
        plans = [bell.OPTIMAL_PLAN, bell.ChshPlan((-0.0, 1e6), (-2.5, 2 * np.pi + 0.4))]
        for rank in (1, 2, 3, 4):
            for _ in range(3):
                rho = random_density(rng, rank)
                for plan in plans:
                    settings = plan._settings
                    for mean_pairs, seed in self.SAMPLING:
                        got = bell.simulate_chsh_counts(rho, plan, mean_pairs, seed)
                        want = frozen_records(rho, settings, mean_pairs, seed, sim._CHSH_STREAM)
                        assert record_bytes(got) == record_bytes(want)

    def test_clipping_keeps_signed_zero_and_nan(self, monkeypatch):
        values = np.array([-0.0, -1e-17, 1 + 2e-16, np.nan, 0.0, 0.25, 1.0, -np.inf])
        want = [repr(min(max(v, 0.0), 1.0)) for v in values.tolist()]
        assert [repr(v) for v in sim._clip_unit(values).tolist()] == want
        monkeypatch.setattr(sim, "_expectations", lambda mat, kets: values)
        probs = sim._probabilities(to_density(bell_state("phi+")), np.eye(4, dtype=complex))
        assert all(type(p) is float for p in probs)
        assert [repr(p) for p in probs] == want

    @pytest.mark.parametrize("angles", [0.3, np.float64(-0.0), np.zeros((6, 2)),
                                        np.zeros((3, 3)), [[0.1, 0.2, 0.3]]],
                             ids=["float", "numpy-zero-d", "six-by-two", "three-by-three",
                                  "one-by-three"])
    def test_angle_arrays_of_another_rank_rejected(self, angles):
        rho = to_density(bell_state("phi+"))
        calls = [
            (lambda f: f(rho, "D", angles), biphoton_fringe, frozen_biphoton_fringe),
            (lambda f: f(rho, "D", angles, 100, 3), biphoton_fringe, frozen_biphoton_fringe),
            (lambda f: f(ket("H"), 1.0, 1.0, angles), single_photon_fringe,
             frozen_single_photon_fringe)]
        for call, function, frozen in calls:
            with pytest.raises((TypeError, ValueError)):
                call(frozen)
            with pytest.raises(ValueError, match="1-D"):
                call(function)


class TestSampleCounts:
    def test_zero_probability_always_zero(self):
        for seed in range(5):
            assert sample_counts(0.0, 1e6, np.random.default_rng(seed)) == 0

    def test_poisson_concentration(self):
        for seed in (1, 2, 3):
            n = sample_counts(0.5, 20000, np.random.default_rng(seed))
            assert abs(n - 10000) < 5 * np.sqrt(10000)

    def test_seed_determinism(self):
        assert (sample_counts(0.3, 1000, np.random.default_rng(42))
                == sample_counts(0.3, 1000, np.random.default_rng(42)))

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            sample_counts(1.5, 100, np.random.default_rng(0))

    def test_negative_mean_pairs_rejected(self):
        with pytest.raises(ValueError, match="mean_pairs"):
            sample_counts(0.5, -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("call", [
        lambda mean: acquire_tomography(to_density(bell_state("phi+")),
                                        tomography_plan(), mean, 1),
        lambda mean: biphoton_fringe(to_density(bell_state("phi+")), "H",
                                     np.deg2rad([0.0, 45.0]), mean_pairs=mean, seed=1),
    ], ids=["acquire_tomography", "biphoton_fringe"])
    @pytest.mark.parametrize("mean", [np.nan, np.inf, -np.inf])
    def test_mean_pairs_that_is_not_finite_is_named(self, call, mean):
        with pytest.raises(ValueError, match="^mean_pairs must be a non-negative finite "
                                             r"number, got -?(nan|inf)$"):
            call(mean)


class TestFringeFit:
    def test_recovers_synthetic_sinusoid(self):
        angles = np.deg2rad(np.arange(0, 180, 10))
        values = 2.0 + 0.5 * np.cos(2 * angles) + 0.25 * np.sin(2 * angles)
        curve = FringeCurve.fit(angles, values, phase_ref=0.0)
        assert curve.offset == pytest.approx(2.0, abs=1e-12)
        assert curve.amp_cos == pytest.approx(0.5, abs=1e-12)
        assert curve.amp_sin == pytest.approx(0.25, abs=1e-12)
        assert curve.visibility == pytest.approx(0.25, abs=1e-12)

    def test_visibility_is_phase_locked_contrast(self):
        angles = np.deg2rad(np.arange(0, 180, 10))
        values = 1.0 + 0.8 * np.sin(2 * angles)
        curve = FringeCurve.fit(angles, values, phase_ref=np.pi / 4)
        assert curve.visibility == pytest.approx(0.8, abs=1e-12)

    def test_needs_three_points(self):
        # Three points fix the three coefficients; two leave them open.
        angles = np.array([0.0, 0.5, 1.0])
        curve = FringeCurve.fit(angles, 1.0 + 0.5 * np.cos(2 * angles))
        assert curve.offset == pytest.approx(1.0, abs=1e-12)
        assert curve.amp_cos == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError, match="length >= 3"):
            FringeCurve.fit(angles[:2], [1.0, 1.2])

    def test_polarization_angle(self):
        assert polarization_angle(ket("H")) == pytest.approx(0.0, abs=1e-12)
        assert polarization_angle(ket("D")) == pytest.approx(np.pi / 4, abs=1e-12)


class TestSinglePhotonFringe:
    def test_pure_h_ideal_channel_is_malus(self):
        angles = np.deg2rad(np.arange(0, 180, 10))
        curve = single_photon_fringe(ket("H"), 1.0, 1.0, angles)
        np.testing.assert_allclose(curve.values, np.cos(angles) ** 2, atol=1e-12)
        assert curve.visibility == pytest.approx(1.0, abs=1e-12)

    def test_extinction_25_to_1_gives_visibility_0_923(self):
        leak = leak_fraction_for_extinction(25.0)
        assert leak == pytest.approx(1.0 / 26.0, abs=1e-15)
        angles = np.deg2rad(np.arange(0, 180, 10))
        curve = single_photon_fringe(h_state_with_leak(leak), 1.0, 1.0, angles)
        assert curve.values.max() / curve.values.min() == pytest.approx(25.0, rel=1e-9)
        assert curve.visibility == pytest.approx(24.0 / 26.0, abs=1e-9)

    def test_extinction_of_exactly_1_rejected(self):
        # A ratio of 1 is no fringe at all: the leak would be 1/2.
        with pytest.raises(ValueError, match="^extinction must be a number above 1, got 1.0$"):
            leak_fraction_for_extinction(1.0)

    def test_leak_of_1_rejected(self):
        with pytest.raises(ValueError, match=r"^leak must be a number in \[0, 1\), got 1.0$"):
            h_state_with_leak(1.0)

    def test_state_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match="2-ket or a 2x2"):
            single_photon_fringe(np.ones(4) / 2.0, 1.0, 1.0, [0.0, 0.5, 1.0])

    def test_nan_density_matrix_rejected(self):
        with pytest.raises(ValueError, match="trace 1"):
            single_photon_fringe(np.diag([np.nan, 0.0]), 1.0, 1.0, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("state, fault", [
        ([[1.0, 5.0], [0.0, 0.0]], "not Hermitian"),
        (np.diag([2.0, -1.0]), "negative eigenvalue"),
        ([[0.5 + 1e-3j, 0.0], [0.0, 0.5 - 1e-3j]], "not Hermitian"),
        ([[0.5, 0.6], [0.6, 0.5]], "negative eigenvalue")],
        ids=["skew", "negative", "imaginary-diagonal", "negative-off-diagonal"])
    def test_unphysical_density_matrix_rejected(self, state, fault):
        # The first two once gave transmitted "probabilities" below 0 and
        # above 1.
        with pytest.raises(ValueError, match=fault):
            single_photon_fringe(np.array(state), 1.0, 1.0, [0.0, 0.5, 1.0])

    def test_density_matrix_within_tolerance_is_used_unchanged(self):
        rho = h_state_with_leak(0.04)
        rho[0, 1] = 1e-11
        rho[0, 0] -= 1e-10
        rho[1, 1] += 1e-10
        assert sim._qubit_density(rho) is rho

    def test_extinction_accounts_for_coupler(self):
        eta_h, eta_v = 0.403, 0.403 / 1.78
        leak = leak_fraction_for_extinction(25.0, eta_h, eta_v)
        angles = np.deg2rad(np.arange(0, 180, 10))
        curve = single_photon_fringe(h_state_with_leak(leak), eta_h, eta_v, angles)
        assert curve.values.max() / curve.values.min() == pytest.approx(25.0, rel=1e-9)


class TestBiphotonFringe:
    def test_phi_plus_fixed_h_is_cos_squared(self):
        rho = to_density(bell_state("phi+"))
        angles = np.deg2rad(np.arange(0, 180, 10))
        curve = biphoton_fringe(rho, "H", angles)
        np.testing.assert_allclose(curve.values, np.cos(angles) ** 2 / 2, atol=1e-12)
        assert curve.visibility == pytest.approx(1.0, abs=1e-9)

    def test_fixed_d_shifted_by_quarter_pi(self):
        rho = to_density(bell_state("phi+"))
        angles = np.deg2rad(np.arange(0, 180, 10))
        fixed_h = biphoton_fringe(rho, "H", angles)
        fixed_d = biphoton_fringe(rho, "D", angles)
        shift = fixed_d.fitted_phase - fixed_h.fitted_phase
        assert shift == pytest.approx(np.pi / 4, abs=1e-9)

    def test_maximally_mixed_is_flat(self):
        angles = np.deg2rad(np.arange(0, 180, 10))
        curve = biphoton_fringe(maximally_mixed(), "H", angles)
        assert np.ptp(curve.values) <= 1e-12
        assert curve.visibility == pytest.approx(0.0, abs=1e-12)

    def test_visibility_equals_concurrence_for_schmidt_states(self):
        # scanned against a fixed D analyzer, contrast = 2 a d = sin(2 theta)
        angles = np.deg2rad(np.arange(0, 180, 10))
        rng = np.random.default_rng(41)
        for theta in rng.uniform(0, np.pi / 2, size=50):
            rho = to_density(schmidt_pure(theta))
            curve = biphoton_fringe(rho, "D", angles)
            assert curve.visibility == pytest.approx(np.sin(2 * theta), abs=1e-9)

    def test_sampled_fringe_needs_seed(self):
        rho = to_density(bell_state("phi+"))
        with pytest.raises(ValueError, match="seed"):
            biphoton_fringe(rho, "H", np.linspace(0, np.pi, 18), mean_pairs=100)

    def test_values_match_the_setting_loop(self):
        # Reference: one MeasurementSetting per angle, as biphoton_fringe
        # computed its points before it formed the pair ket directly.
        angles = np.deg2rad(np.arange(0, 180, 10))
        rng = np.random.default_rng(23)
        for rho in [random_density(rng) for _ in range(20)]:
            for fixed in ("H", "D", "R", linear_ket(0.3)):
                fixed_ket = ket(fixed) if isinstance(fixed, str) else fixed
                expected = np.array([
                    coincidence_probability(rho, MeasurementSetting(
                        fixed_ket, linear_ket(ang), "fixed", f"lin:{ang}"))
                    for ang in angles])
                curve = biphoton_fringe(rho, fixed, angles)
                assert curve.values.tobytes() == expected.tobytes()

    def test_sampled_fringe_deterministic(self):
        rho = to_density(bell_state("phi+"))
        angles = np.deg2rad(np.arange(0, 180, 10))
        a = biphoton_fringe(rho, "H", angles, mean_pairs=500, seed=5)
        b = biphoton_fringe(rho, "H", angles, mean_pairs=500, seed=5)
        np.testing.assert_array_equal(a.values, b.values)


class TestCountRecord:
    @pytest.mark.parametrize("pairs", [0.0, -1.0, np.inf, np.nan])
    def test_expected_pairs_must_be_finite_and_positive(self, pairs):
        with pytest.raises(ValueError, match="expected_pairs"):
            CountRecord(MeasurementSetting.of("H", "H"), 5.0, pairs)


class TestTomographyAcquisition:
    def test_plan_is_16_product_settings(self):
        plan = tomography_plan(PLAN_HVDR16)
        assert len(plan) == 16
        labels = [(s.label_1, s.label_2) for s in plan]
        assert labels[0] == ("H", "H") and labels[-1] == ("R", "R")

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError):
            tomography_plan("other")

    def test_wrong_plan_length_rejected(self):
        rho = to_density(bell_state("phi+"))
        with pytest.raises(ValueError, match="16"):
            acquire_tomography(rho, tomography_plan()[:4], 100, 0)

    def test_exact_records_hold_probabilities(self):
        rho = to_density(bell_state("phi+"))
        records = exact_records(rho, tomography_plan(), 10000)
        assert records[0].counts == pytest.approx(5000.0, abs=1e-9)

    def test_product_basis_counts_are_complete(self):
        rho = to_density(bell_state("phi+"))
        records = exact_records(rho, tomography_plan(), 10000)
        by_label = {(r.setting.label_1, r.setting.label_2): r.counts for r in records}
        total = sum(by_label[k] for k in (("H", "H"), ("H", "V"),
                                          ("V", "H"), ("V", "V")))
        assert total == pytest.approx(10000.0, abs=1e-9)

    def test_sampling_is_bit_identical_under_seed(self):
        rho = to_density(bell_state("phi+"))
        first = acquire_tomography(rho, tomography_plan(), 2000, 9)
        second = acquire_tomography(rho, tomography_plan(), 2000, 9)
        assert [r.counts for r in first] == [r.counts for r in second]

    def test_streams_differ_between_settings(self):
        a = stream(1, 1, 0).poisson(100.0)
        b = stream(1, 1, 1).poisson(100.0)
        c = stream(1, 2, 0).poisson(100.0)
        assert len({int(a), int(b), int(c)}) > 1

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountRecord(MeasurementSetting.of("H", "H"), -1.0, 100.0)

    @pytest.mark.parametrize("counts, pairs, match", [
        (float("nan"), 100.0, "counts"),
        (float("inf"), 100.0, "counts"),
        (7.0, float("nan"), "expected_pairs"),
        (7.0, float("inf"), "expected_pairs"),
    ], ids=["nan-counts", "inf-counts", "nan-pairs", "inf-pairs"])
    def test_non_finite_rejected(self, counts, pairs, match):
        with pytest.raises(ValueError, match=match):
            CountRecord(MeasurementSetting.of("H", "H"), counts, pairs)


class TestStream:
    # Every single stream must give default_rng's draws of its entropy list,
    # words below and from 2**32 alike. Any warning fails.
    @pytest.mark.parametrize("seed", [0, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 3])
    @pytest.mark.parametrize("tag", [sim._TOMO_STREAM, sim._FRINGE_STREAM,
                                     sim._CHSH_STREAM, sim._BOOTSTRAP_STREAM])
    def test_draws_equal_default_rng_of_the_entropy_list(self, seed, tag):
        for index in (0, 1, 15, 2**32 - 1, 2**32):
            oracle = np.random.default_rng(np.random.SeedSequence([seed, tag, index]))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rng = stream(seed, tag, index)
            assert rng.bit_generator.state == oracle.bit_generator.state
            assert rng.poisson(1e3, 8).tolist() == oracle.poisson(1e3, 8).tolist()
            assert rng.random(4).tolist() == oracle.random(4).tolist()

    @pytest.mark.parametrize("seed, key, match", [
        (-1, (1, 0), "seed must be a non-negative integer"),
        (3, (1, -1), "non-negative"),
        (3, (-(2**40), 0), "non-negative"),
        (3.7, (1, 0), "seed must be a non-negative integer"),
        (3.0, (1, 0), "seed must be a non-negative integer"),
        (np.float64(3.0), (1, 0), "seed must be a non-negative integer"),
        ("3", (1, 0), "seed must be a non-negative integer"),
        (7, (1.5,), "seed must be a non-negative integer"),
        (7, (1, np.float64(2.0)), "seed must be a non-negative integer"),
        (7, ("1", 0), "seed must be a non-negative integer"),
    ], ids=["negative-seed", "negative-index", "negative-tag", "float-seed",
            "integral-float-seed", "numpy-float-seed", "string-seed", "float-tag",
            "numpy-float-index", "string-tag"])
    def test_negative_words_rejected(self, seed, key, match):
        with pytest.raises(ValueError, match=match):
            stream(seed, *key)
        with pytest.raises(ValueError, match=match):
            stream(seed, *key, count=3)

    def test_numpy_integer_words_accepted(self):
        rng = stream(np.int64(7), np.uint8(1), np.int32(2))
        assert rng.bit_generator.state == oracle_stream(7, 1, 2).bit_generator.state

    def test_float_seed_is_refused_not_truncated(self):
        rho = to_density(bell_state("phi+"))
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            acquire_tomography(rho, tomography_plan(), 1000, 3.7)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            biphoton_fringe(rho, "H", ODD_ANGLES, mean_pairs=100, seed=np.float64(3.0))

    # Each generator of stream(seed, tag, count=n) must be stream(seed, tag, i):
    # 32-bit words take the batched hash, others the per-item path.
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**32 - 1, 2**32, 2**40])
    @pytest.mark.parametrize("tag", [sim._TOMO_STREAM, sim._FRINGE_STREAM,
                                     sim._CHSH_STREAM, sim._BOOTSTRAP_STREAM,
                                     2**32 - 1, 2**32])
    def test_count_streams_equal_single_streams(self, seed, tag):
        for count in (0, 1, 2, 16, 18, 200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rngs = list(stream(seed, tag, count=count))
                singles = [stream(seed, tag, i) for i in range(count)]
            assert len(rngs) == count
            for rng, single in zip(rngs, singles):
                assert rng.bit_generator.state == single.bit_generator.state
                assert rng.poisson(1e3, 4).tolist() == single.poisson(1e3, 4).tolist()
                assert rng.random(2).tolist() == single.random(2).tolist()

    @pytest.mark.parametrize("key", [(), (5, 6), (5, 6, 7), (5, 6, 7, 2**32 - 1)],
                             ids=["seed-only", "four-words", "five-words", "six-words"])
    def test_count_streams_of_other_key_lengths(self, key):
        # Up to three words the index falls in SeedSequence's pool; past it,
        # the index is mixed in after the pool mix.
        for seed in (0, 9, 2**32 - 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rngs = list(stream(seed, *key, count=18))
            for i, rng in enumerate(rngs):
                oracle = oracle_stream(seed, *key, i)
                assert rng.bit_generator.state == oracle.bit_generator.state
                assert rng.poisson(50.0, 3).tolist() == oracle.poisson(50.0, 3).tolist()

    def test_count_streams_are_built_lazily(self):
        # Indices from 2**32 on leave the batched hash: nothing is built for
        # them until they are asked for.
        rngs = stream(3, 1, count=2**40)
        assert next(rngs).bit_generator.state == oracle_stream(3, 1, 0).bit_generator.state
        assert next(rngs).bit_generator.state == oracle_stream(3, 1, 1).bit_generator.state

    @pytest.mark.parametrize("count", [-1, -(2**40), 1.5, np.float64(2.0), "2", None],
                             ids=["minus-one", "large-negative", "float", "numpy-float",
                                  "string", "none-as-count"])
    def test_bad_count_rejected(self, count):
        if count is None:  # None is the single-stream call
            assert isinstance(stream(1, 2, count=count), np.random.Generator)
            return
        with pytest.raises(ValueError, match="count must be a non-negative integer"):
            stream(1, 2, count=count)

    @pytest.mark.parametrize("n_words, dtype", [
        (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (3, np.uint64),
        (4, np.int64), (4, np.float64)])
    def test_hashed_seed_holds_only_the_pcg64_request(self, n_words, dtype):
        rng = next(stream(5, 2, count=1))
        seed_seq = rng.bit_generator.seed_seq
        words = seed_seq.generate_state(4, np.uint64)
        oracle = np.random.SeedSequence([5, 2, 0]).generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.tolist() == oracle.tolist()
        with pytest.raises(ValueError, match="generate_state"):
            seed_seq.generate_state(n_words, dtype)


class TestRecordCsv:
    def test_round_trip(self, tmp_path):
        rho = to_density(bell_state("phi+"))
        records = acquire_tomography(rho, tomography_plan(), 3000, 4)
        records.append(CountRecord(MeasurementSetting.of(0.3, "A"), 17.0, 3000.0))
        path = tmp_path / "counts.csv"
        records_to_csv(records, path)
        clone = records_from_csv(path)
        assert len(clone) == len(records)
        for a, b in zip(records, clone):
            assert a.counts == b.counts
            assert a.expected_pairs == b.expected_pairs
            assert a.setting.label_1 == b.setting.label_1
            np.testing.assert_allclose(a.setting.ket_2, b.setting.ket_2, atol=1e-12)

    def test_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            records_from_csv(path)

    @pytest.mark.parametrize("row, fields", [
        ("H,V,3", 3), ("H,V,3,100,9", 5), ("", 0)], ids=["short", "long", "blank"])
    def test_wrong_field_count_names_file_and_line(self, tmp_path, row, fields):
        path = tmp_path / "counts.csv"
        path.write_text("setting_1,setting_2,counts,expected_pairs\n"
                        f"H,H,5,100\n{row}\nV,V,2,100\n")
        with pytest.raises(ValueError) as info:
            records_from_csv(path)
        assert str(info.value) == f"{path}, line 3: expected 4 fields, got {fields}"

    @pytest.mark.parametrize("row, message", [
        ("H,H,abc,100", "could not convert string to float: 'abc'"),
        ("Q,H,5,100", "unknown polarization label 'Q'; expected one of "
                      "['A', 'D', 'H', 'L', 'R', 'V']"),
        ("lin:x,H,5,100", "could not convert string to float: 'x'"),
        ("H,H,-5,100", "counts must be finite and non-negative"),
        ("lin:nan,H,5,100", "ket_1 not normalized: |psi|^2 = nan"),
    ], ids=["counts-not-a-number", "unknown-label", "bad-angle", "negative-counts",
            "nan-angle"])
    def test_bad_row_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "counts.csv"
        path.write_text("setting_1,setting_2,counts,expected_pairs\n"
                        f"H,H,5,100\n{row}\nV,V,2,100\n")
        with pytest.raises(ValueError) as info:
            records_from_csv(path)
        assert str(info.value) == f"{path}, line 3: {message}"

    @pytest.mark.parametrize("text", [
        "", "H,H,5,100\nV,V,2,100\n",
        "setting_1,setting_2,counts,pairs\nH,H,5,100\n"],
        ids=["empty", "no-header", "renamed-column"])
    def test_wrong_header_rejected(self, tmp_path, text):
        path = tmp_path / "counts.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a count-record CSV"):
            records_from_csv(path)

    def test_reads_share_one_setting_per_label_pair(self, tmp_path):
        records = acquire_tomography(to_density(bell_state("phi+")),
                                     tomography_plan(), 3000, 4)
        path = tmp_path / "counts.csv"
        records_to_csv(records, path)
        first, second = records_from_csv(path), records_from_csv(path)
        assert all(a.setting is b.setting for a, b in zip(first, second))
        for rec, original in zip(first, records):
            pair = np.kron(sim.parse_label(rec.setting.label_1),
                           sim.parse_label(rec.setting.label_2))
            assert rec.setting.pair.tobytes() == original.setting.pair.tobytes()
            assert rec.setting.projector().tobytes() == np.outer(pair, pair.conj()).tobytes()

    def test_plan_settings_outlive_other_label_pairs(self, tmp_path):
        plan = tomography_plan()
        records = acquire_tomography(to_density(bell_state("phi+")), plan, 3000, 4)
        path, others = tmp_path / "counts.csv", tmp_path / "others.csv"
        records_to_csv(records, path)
        others.write_text("setting_1,setting_2,counts,expected_pairs\n"
                          + "".join(f"lin:{i},H,5,100\n" for i in range(64)))
        record_arrays(records)
        misses = tomo._plan_arrays.cache_info().misses
        assert len(records_from_csv(others)) == 64
        read = records_from_csv(path)
        assert all(a is b for a, b in zip(tomography_plan(), plan))
        assert all(rec.setting is setting for rec, setting in zip(read, plan))
        record_arrays(read)
        assert tomo._plan_arrays.cache_info().misses == misses

    def test_two_reads_give_the_same_arrays(self, tmp_path):
        records = acquire_tomography(random_density(np.random.default_rng(3)),
                                     tomography_plan(), 3000, 5)
        path = tmp_path / "counts.csv"
        records_to_csv(records, path)
        first = [a.tobytes() for a in record_arrays(records_from_csv(path))]
        assert [a.tobytes() for a in record_arrays(records_from_csv(path))] == first
        assert [a.tobytes() for a in record_arrays(records)] == first

    def test_mutating_returned_arrays_leaves_later_reads(self, tmp_path):
        records = acquire_tomography(to_density(bell_state("phi+")),
                                     tomography_plan(), 3000, 6)
        path = tmp_path / "counts.csv"
        records_to_csv(records, path)
        expected = [a.tobytes() for a in record_arrays(records_from_csv(path))]
        projectors, counts, pairs = record_arrays(records_from_csv(path))
        counts[...] = 7.0
        pairs[...] = 7.0
        setting = records_from_csv(path)[0].setting
        for array in (setting.ket_1, setting.ket_2, setting.pair, setting.projector(),
                      projectors):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert [a.tobytes() for a in record_arrays(records_from_csv(path))] == expected

    def test_bad_label_after_a_good_read_names_file_and_line(self, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        header = "setting_1,setting_2,counts,expected_pairs\n"
        good.write_text(header + "H,H,5,100\nV,V,2,100\n")
        bad.write_text(header + "H,H,5,100\nQ,V,2,100\nV,V,2,100\n")
        assert len(records_from_csv(good)) == 2
        # Nothing is cached for a label that fails: the second read raises too.
        for _ in range(2):
            with pytest.raises(ValueError) as info:
                records_from_csv(bad)
            assert str(info.value) == (f"{bad}, line 3: unknown polarization label 'Q'; "
                                       "expected one of ['A', 'D', 'H', 'L', 'R', 'V']")

    def test_signed_zero_angles_stay_two_settings(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("setting_1,setting_2,counts,expected_pairs\n"
                        "lin:0,H,5,100\nlin:-0,H,5,100\nlin:0,H,6,100\n")
        zero, negative_zero, zero_again = (rec.setting for rec in records_from_csv(path))
        assert (zero.label_1, negative_zero.label_1) == ("lin:0", "lin:-0")
        assert zero is zero_again and zero is not negative_zero
        assert zero.ket_1.tobytes() == linear_ket(0.0).tobytes()
        assert negative_zero.ket_1.tobytes() == linear_ket(-0.0).tobytes()

    def test_non_finite_count_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("setting_1,setting_2,counts,expected_pairs\nH,H,nan,100\n")
        with pytest.raises(ValueError, match="finite"):
            records_from_csv(path)


class TestWriteArtifact:
    def test_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        path, plain = tmp_path / "artifact.txt", tmp_path / "plain.txt"
        sim.write_artifact(path, "0123456789\n" * 50)
        sim.write_artifact(path, "short\nfile\n")
        plain.write_text("short\nfile\n")
        assert path.read_bytes() == plain.read_bytes()

    def test_longer_rewrite_and_new_file_match_a_plain_write(self, tmp_path):
        path, plain = tmp_path / "artifact.txt", tmp_path / "plain.txt"
        sim.write_artifact(path, "ab\n")
        sim.write_artifact(path, "abc\ndef\n" * 10)
        plain.write_text("abc\ndef\n" * 10)
        assert path.read_bytes() == plain.read_bytes()

    def test_existing_file_is_never_truncated_to_zero(self, tmp_path, monkeypatch):
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args):
            flags.append(flag)
            return real_open(path, flag, *args)

        path = tmp_path / "artifact.txt"
        path.write_text("old text\n")
        monkeypatch.setattr(os, "open", recording_open)
        sim.write_artifact(path, "new\n")
        assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC

    def test_csv_rewritten_with_fewer_records(self, tmp_path):
        records = acquire_tomography(to_density(bell_state("phi+")),
                                     tomography_plan(), 3000, 4)
        path, fresh = tmp_path / "counts.csv", tmp_path / "fresh.csv"
        records_to_csv(records, path)
        records_to_csv(records[:3], path)
        records_to_csv(records[:3], fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.read_bytes().count(b"\r\n") == 4
        assert [r.counts for r in records_from_csv(path)] == [r.counts for r in records[:3]]
