"""Tests for waveplates, polarizers, lossy couplers and compensation."""

import numpy as np
import pytest

from biphoton import optics
from biphoton.optics import (AnnihilatedStateError, ChannelOutcome,
                             JonesOperator, KrausChannel, anisotropic_coupler,
                             apply_chain, apply_channel, compensated_source,
                             depolarize, polarizer, pump_compensation,
                             transmission_fringe, waveplate)
from biphoton.qstate import (bell_state, concurrence, fidelity_with_pure,
                             ket, random_density, schmidt_pure, to_density)

HWP = np.pi
QWP = np.pi / 2

# Post-selecting phi+ through diag(sqrt(0.71), sqrt(0.40)) keeps Schmidt
# weights (0.71, 0.40)/1.11.
COUPLER_71_40_AMPS = (np.sqrt(0.71 / 1.11), np.sqrt(0.40 / 1.11))


def random_kraus_channel(rng, arm=1):
    n_ops = rng.integers(1, 4)
    ops = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
           for _ in range(n_ops)]
    total = sum(op.conj().T @ op for op in ops)
    scale = np.sqrt(np.linalg.eigvalsh(total).max()) / rng.uniform(0.6, 1.0)
    return KrausChannel(tuple(op / scale for op in ops), arm)


class TestWaveplate:
    def test_hwp_at_zero_is_diag_1_minus1(self):
        mat = waveplate(HWP, 0.0).matrix
        normalized = mat / mat[0, 0]
        np.testing.assert_allclose(normalized, np.diag([1.0, -1.0]), atol=1e-12)

    def test_hwp_at_pi_over_8_maps_h_to_d(self):
        out = waveplate(HWP, np.pi / 8).matrix @ ket("H")
        assert abs(np.vdot(ket("D"), out)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_qwp_at_pi_over_4_makes_circular(self):
        out = waveplate(QWP, np.pi / 4).matrix @ ket("H")
        assert abs(np.vdot(ket("H"), out)) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_waveplates_are_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            plate = waveplate(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi))
            assert plate.is_unitary()

    def test_jones_shape_enforced(self):
        with pytest.raises(ValueError):
            JonesOperator(np.eye(3))


class TestPolarizerAndCoupler:
    def test_polarizer_malus(self):
        rho_hh = to_density(schmidt_pure(0.0))
        for angle in (0.0, 0.3, 1.1):
            outcome = apply_channel(rho_hh, polarizer(angle))
            assert outcome.success_probability == pytest.approx(
                np.cos(angle) ** 2, abs=1e-12)

    def test_crossed_polarizer_annihilates(self):
        rho_hh = to_density(schmidt_pure(0.0))
        with pytest.raises(AnnihilatedStateError):
            apply_channel(rho_hh, polarizer(np.pi / 2))

    def test_unit_coupler_is_identity(self):
        rho = to_density(bell_state("phi+"))
        outcome = apply_channel(rho, anisotropic_coupler(1.0, 1.0))
        np.testing.assert_allclose(outcome.state.matrix, rho.matrix, atol=1e-12)
        assert outcome.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_coupler_71_40_post_selected_state(self):
        rho = to_density(bell_state("phi+"))
        outcome = apply_channel(rho, anisotropic_coupler(0.71, 0.40))
        amps = np.sqrt(np.abs(np.diag(outcome.state.matrix))).real
        assert amps[0] == pytest.approx(COUPLER_71_40_AMPS[0], abs=1e-12)
        assert amps[3] == pytest.approx(COUPLER_71_40_AMPS[1], abs=1e-12)
        # close to the renormalized (0.801, 0.594) Schmidt pair
        assert abs(amps[0] - 0.801) < 0.01 and abs(amps[3] - 0.594) < 0.01
        assert outcome.success_probability == pytest.approx(0.555, abs=1e-12)

    def test_coupler_success_on_hh(self):
        rho_hh = to_density(schmidt_pure(0.0))
        outcome = apply_channel(rho_hh, anisotropic_coupler(0.71, 0.40))
        assert outcome.success_probability == pytest.approx(0.71, abs=1e-12)

    @pytest.mark.parametrize("eta", [-0.1, 1.2])
    def test_coupler_efficiency_range(self, eta):
        with pytest.raises(ValueError):
            anisotropic_coupler(eta, 0.5)

    def test_channel_arm_validation(self):
        with pytest.raises(ValueError, match="arm"):
            KrausChannel((np.eye(2),), arm=3)

    def test_bool_arm_rejected(self):
        # True == 1, so only the type check keeps a bool out of `arm`.
        with pytest.raises(ValueError, match="arm must be 1 or 2, got True"):
            KrausChannel((np.eye(2),), arm=True)

    def test_channel_without_operators_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(())

    def test_trace_increasing_kraus_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            KrausChannel((1.2 * np.eye(2),))


class TestApplyChannel:
    def test_identity_channel(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng)
        outcome = apply_channel(rho, KrausChannel.identity())
        np.testing.assert_allclose(outcome.state.matrix, rho.matrix, atol=1e-12)
        assert outcome.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_polarizer_projects_bell_state(self):
        rho = to_density(bell_state("phi+"))
        outcome = apply_channel(rho, polarizer(0.0, arm=1))
        np.testing.assert_allclose(outcome.state.matrix, np.diag([1.0, 0, 0, 0]),
                                   atol=1e-12)
        assert outcome.success_probability == pytest.approx(0.5, abs=1e-12)

    def test_arm_2_acts_on_second_photon(self):
        rho = to_density(bell_state("phi+"))
        outcome = apply_channel(rho, anisotropic_coupler(0.5, 0.0, arm=2))
        np.testing.assert_allclose(outcome.state.matrix, np.diag([1.0, 0, 0, 0]),
                                   atol=1e-12)

    @pytest.mark.parametrize("plate_arm", [1, 2])
    def test_each_arm_acts_on_its_own_photon(self, plate_arm):
        # A polarizer at 0 on arm 1 leaves |HH>, which is exchange-symmetric;
        # a half-wave plate at pi/8 then turns only its own arm's photon to D.
        plate = waveplate(HWP, np.pi / 8)
        outcome = apply_chain(to_density(bell_state("phi+")),
                              [polarizer(0.0, arm=1), KrausChannel.from_jones(plate, plate_arm)])
        pair = [ket("H"), ket("H")]
        pair[plate_arm - 1] = plate.matrix @ ket("H")
        expected = np.kron(*pair)
        np.testing.assert_allclose(outcome.state.matrix,
                                   np.outer(expected, expected.conj()), atol=1e-12)

    @pytest.mark.parametrize("arm", [1, 2])
    def test_lifted_operator_is_bit_equal_to_kron(self, arm):
        # Random complex operators, some with signed zeros, against the
        # Kronecker product with the identity on the other arm.
        rng = np.random.default_rng(109 + arm)
        eye = np.eye(2, dtype=complex)
        for _ in range(500):
            op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            op[tuple(rng.integers(0, 2, size=2))] = complex(*rng.choice([0.0, -0.0], size=2))
            want = np.kron(op, eye) if arm == 1 else np.kron(eye, op)
            assert optics._lift(op, arm).tobytes() == want.tobytes()

    def test_preserves_hermiticity_and_psd(self):
        rng = np.random.default_rng(101)
        for _ in range(500):
            rho = random_density(rng)
            ch = random_kraus_channel(rng, arm=int(rng.integers(1, 3)))
            try:
                outcome = apply_channel(rho, ch)
            except AnnihilatedStateError:
                continue
            out = outcome.state.matrix
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-12
            assert 0.0 <= outcome.success_probability <= 1.0 + 1e-12

    def test_unitary_channels_have_unit_success(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            rho = random_density(rng)
            ch = KrausChannel.from_jones(
                waveplate(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)))
            assert apply_channel(rho, ch).success_probability == pytest.approx(
                1.0, abs=1e-12)

    def test_post_selection_invariant_under_scaling(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            rho = random_density(rng)
            eta_h, eta_v = rng.uniform(0.1, 1.0, size=2)
            c = rng.uniform(0.05, 1.0)
            base = apply_channel(rho, anisotropic_coupler(eta_h, eta_v))
            scaled = apply_channel(rho, anisotropic_coupler(c * eta_h, c * eta_v))
            assert np.linalg.norm(scaled.state.matrix - base.state.matrix) <= 1e-12
            assert scaled.success_probability == pytest.approx(
                c * base.success_probability, rel=1e-10)

    def test_apply_chain_multiplies_success(self):
        rho = to_density(bell_state("phi+"))
        chain = [anisotropic_coupler(0.8, 0.5), polarizer(0.0, arm=2)]
        outcome = apply_chain(rho, chain)
        first = apply_channel(rho, chain[0])
        second = apply_channel(first.state, chain[1])
        assert outcome.success_probability == pytest.approx(
            first.success_probability * second.success_probability, rel=1e-12)
        np.testing.assert_allclose(outcome.state.matrix, second.state.matrix,
                                   atol=1e-12)
        assert isinstance(outcome, ChannelOutcome)


class TestDepolarize:
    def test_zero_noise_is_identity(self):
        rho = to_density(bell_state("phi+"))
        np.testing.assert_allclose(depolarize(rho, 0.0).matrix, rho.matrix, atol=1e-15)

    def test_full_noise_is_maximally_mixed(self):
        rho = to_density(bell_state("phi+"))
        noisy = depolarize(rho, 1.0)
        np.testing.assert_allclose(noisy.matrix, np.eye(4) / 4, atol=1e-15)
        assert concurrence(noisy) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.01, 1.01])
    def test_noise_range(self, p):
        with pytest.raises(ValueError):
            depolarize(to_density(bell_state("phi+")), p)

    def test_concurrence_of_noisy_schmidt_states(self):
        # analytic: C((1-p) psi + p I/4) = max(0, (1-p) C(psi) - p/2)
        rng = np.random.default_rng(109)
        for _ in range(40):
            theta = rng.uniform(0, np.pi / 2)
            p = rng.uniform(0, 1)
            rho = to_density(schmidt_pure(theta))
            expected = max(0.0, (1 - p) * np.sin(2 * theta) - p / 2)
            assert concurrence(depolarize(rho, p)) == pytest.approx(expected, abs=1e-9)


class TestPumpCompensation:
    def test_balanced_channel(self):
        assert pump_compensation(0.7, 0.7) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_ratio_1_78(self):
        theta = pump_compensation(1.78, 1.0)
        assert theta == pytest.approx(np.arctan(np.sqrt(1.78)), abs=1e-15)
        assert theta == pytest.approx(0.9275950044240567, abs=1e-12)
        assert np.degrees(theta) == pytest.approx(53.147, abs=1e-2)

    def test_round_trip_restores_phi_plus(self):
        rng = np.random.default_rng(113)
        phi = bell_state("phi+")
        for _ in range(100):
            eta_h, eta_v = rng.uniform(0.05, 1.0, size=2)
            source = compensated_source(eta_h, eta_v)
            outcome = apply_channel(to_density(source),
                                    anisotropic_coupler(eta_h, eta_v))
            assert fidelity_with_pure(outcome.state, phi) >= 1 - 1e-10

    def test_zero_efficiency_rejected(self):
        with pytest.raises(ValueError):
            pump_compensation(0.0, 0.5)


class TestIsotropicChannelsPreserveEntanglement:
    def test_equal_efficiencies_leave_metrics_invariant(self):
        rng = np.random.default_rng(127)
        phi = bell_state("phi+")
        for _ in range(30):
            rho = random_density(rng)
            eta = rng.uniform(0.1, 1.0)
            outcome = apply_channel(rho, anisotropic_coupler(eta, eta))
            assert concurrence(outcome.state) == pytest.approx(
                concurrence(rho), abs=1e-10)
            assert fidelity_with_pure(outcome.state, phi) == pytest.approx(
                fidelity_with_pure(rho, phi), abs=1e-10)


class TestTransmissionFringe:
    def test_flat_for_equal_efficiencies(self):
        values = transmission_fringe(0.6, 0.6, np.linspace(0, np.pi, 19))
        assert np.ptp(values) <= 1e-12

    def test_ratio_1_78(self):
        angles = np.deg2rad(np.arange(0, 180, 10))
        values = transmission_fringe(0.403, 0.403 / 1.78, angles)
        assert values.max() / values.min() == pytest.approx(1.78, abs=1e-12)

    def test_h_axis_value(self):
        assert transmission_fringe(0.9, 0.2, [0.0])[0] == pytest.approx(0.9, abs=1e-15)
