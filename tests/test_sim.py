"""Tests for coincidence probabilities, sampling and fringe generation."""

import numpy as np
import pytest

from biphoton import sim
from biphoton.qstate import (bell_state, ket, linear_ket, maximally_mixed,
                             random_density, schmidt_pure, to_density)
from biphoton.sim import (CountRecord, FringeCurve, MeasurementSetting,
                          PLAN_HVDR16, acquire_tomography, biphoton_fringe,
                          coincidence_probability, exact_tomography,
                          h_state_with_leak, leak_fraction_for_extinction,
                          polarization_angle, records_from_csv, records_to_csv,
                          sample_counts, single_photon_fringe, stream,
                          tomography_plan)


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
    def test_bit_equal_to_kron(self):
        rng = np.random.default_rng(19)
        pairs = [tuple(rng.standard_normal((2, 2, 2)) @ [1.0, 1j]) for _ in range(500)]
        # Every sign of zero in either part, against zeros and unit entries.
        parts = (0.0, -0.0, 1.0, -1.0)
        edges = [np.array([complex(a, b), complex(c, d)])
                 for a in parts for b in parts for c in parts[:2] for d in parts[:2]]
        pairs += [(k1, k2) for k1 in edges for k2 in edges]
        for k1, k2 in pairs:
            assert sim._pair_ket(k1, k2).tobytes() == np.kron(k1, k2).tobytes()


class TestSampleCounts:
    def test_zero_probability_always_zero(self):
        for seed in range(5):
            assert sample_counts(0.0, 1e6, seed) == 0

    def test_poisson_concentration(self):
        for seed in (1, 2, 3):
            n = sample_counts(0.5, 20000, seed)
            assert abs(n - 10000) < 5 * np.sqrt(10000)

    def test_seed_determinism(self):
        assert sample_counts(0.3, 1000, 42) == sample_counts(0.3, 1000, 42)

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            sample_counts(1.5, 100, 0)


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
        records = exact_tomography(rho, tomography_plan(), 10000)
        assert records[0].counts == pytest.approx(5000.0, abs=1e-9)

    def test_product_basis_counts_are_complete(self):
        rho = to_density(bell_state("phi+"))
        records = exact_tomography(rho, tomography_plan(), 10000)
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

    def test_non_finite_count_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("setting_1,setting_2,counts,expected_pairs\nH,H,nan,100\n")
        with pytest.raises(ValueError, match="finite"):
            records_from_csv(path)
