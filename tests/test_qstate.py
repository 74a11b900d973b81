"""Unit and property tests for two-qubit states and entanglement metrics."""

import math

import numpy as np
import pytest

from biphoton.bell import OPTIMAL_PLAN, ChshResult
from biphoton.optics import JonesOperator, KrausChannel, depolarize
from biphoton.qstate import (BASIS, DensityMatrix, MetricReport, PureState,
                             _depolarized_concurrence, bell_state, concurrence, eigen_hermitian,
                             fidelity_with_pure, ket, linear_ket, metric_report, purity,
                             random_density, schmidt_pure, to_density)
from biphoton.sim import FringeCurve, MeasurementSetting
from helpers import maximally_mixed, random_pure

# Normalizing the (0.801, 0.594) Schmidt pair gives these amplitudes; the
# frozen metric values below follow from 2*a*d and ((a+d)/sqrt(2))^2.
PHI_TILDE_THETA = math.atan2(0.594, 0.801)
PHI_TILDE_AMPS = (0.8032373204999275, 0.595659136550508)
PHI_TILDE_CONCURRENCE = 0.9569112975482609
PHI_TILDE_FIDELITY_PHI_PLUS = 0.9784556487741303


def random_unitary_2x2(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestBellStates:
    def test_phi_plus_amplitudes(self):
        amps = bell_state("phi+").amplitudes
        np.testing.assert_allclose(amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_phi_minus_is_sign_flipped_and_orthogonal(self):
        plus = bell_state("phi+")
        minus = bell_state("phi-")
        np.testing.assert_allclose(minus.amplitudes,
                                   np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15)
        assert abs(plus.overlap(minus)) < 1e-15

    @pytest.mark.parametrize("kind", ["phi+", "phi-", "psi+", "psi-"])
    def test_normalized(self, kind):
        amps = bell_state(kind).amplitudes
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_unicode_labels(self):
        np.testing.assert_array_equal(bell_state("Φ⁺").amplitudes,
                                      bell_state("phi+").amplitudes)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="Bell state"):
            bell_state("omega")


class TestSchmidtPure:
    def test_balanced_angle_is_phi_plus(self):
        np.testing.assert_allclose(schmidt_pure(np.pi / 4).amplitudes,
                                   bell_state("phi+").amplitudes, atol=1e-15)

    def test_phi_tilde_amplitudes(self):
        amps = schmidt_pure(PHI_TILDE_THETA).amplitudes
        assert amps[0].real == pytest.approx(PHI_TILDE_AMPS[0], abs=1e-12)
        assert amps[3].real == pytest.approx(PHI_TILDE_AMPS[1], abs=1e-12)

    def test_zero_angle_is_product_state(self):
        psi = schmidt_pure(0.0)
        np.testing.assert_allclose(psi.amplitudes, [1, 0, 0, 0], atol=1e-15)
        assert concurrence(to_density(psi)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [-0.1, np.pi / 2 + 0.1])
    def test_angle_range_enforced(self, theta):
        with pytest.raises(ValueError):
            schmidt_pure(theta)


class TestToDensity:
    def test_phi_plus_corners(self):
        rho = to_density(bell_state("phi+")).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_hh_is_diagonal(self):
        rho = to_density(schmidt_pure(0.0)).matrix
        np.testing.assert_allclose(rho, np.diag([1.0, 0, 0, 0]), atol=1e-15)

    def test_pure_states_have_unit_purity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            assert purity(to_density(random_pure(rng))) == pytest.approx(1.0, abs=1e-12)


class TestConcurrence:
    def test_bell_state_is_maximal(self):
        assert concurrence(to_density(bell_state("phi+"))) == pytest.approx(1.0, abs=1e-12)

    def test_phi_tilde_value(self):
        rho = to_density(schmidt_pure(PHI_TILDE_THETA))
        assert concurrence(rho) == pytest.approx(PHI_TILDE_CONCURRENCE, abs=1e-12)

    def test_maximally_mixed_is_separable(self):
        assert concurrence(maximally_mixed()) == pytest.approx(0.0, abs=1e-12)

    def test_schmidt_family_equals_sin_2theta(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(0.0, np.pi / 2, size=200):
            c = concurrence(to_density(schmidt_pure(theta)))
            assert c == pytest.approx(abs(np.sin(2 * theta)), abs=1e-9)

    def test_invariant_under_local_unitaries(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            rho = random_density(rng)
            base = concurrence(rho)
            u = np.kron(random_unitary_2x2(rng), random_unitary_2x2(rng))
            rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
            assert concurrence(rotated) == pytest.approx(base, abs=1e-9)

    def test_rejects_unphysical_matrix(self):
        bad = np.diag([0.7, 0.5, 0.0, -0.2])
        with pytest.raises(ValueError):
            concurrence(bad)

    def test_eigenbasis_form_tracks_the_depolarized_state(self):
        # The noise fit trusts the eigenbasis form to within 1e-9 of the
        # exact concurrence; it should be 1,000 times closer than that.
        rng = np.random.default_rng(29)
        bases = [to_density(bell_state("phi+")), maximally_mixed(),
                 to_density(schmidt_pure(1e-4))]
        bases += [random_density(rng, 1 + i % 4) for i in range(500)]
        worst, pairs = 0.0, 0
        for base in bases:
            at = _depolarized_concurrence(base.matrix)
            for p in (0.0, 1.0, *rng.uniform(size=3)):
                worst = max(worst, abs(at(p) - concurrence(depolarize(base, p))))
                pairs += 1
        assert pairs >= 2000 and worst < 1e-12


class TestFidelity:
    def test_self_fidelity(self):
        phi = bell_state("phi+")
        assert fidelity_with_pure(to_density(phi), phi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_bell_states(self):
        rho = to_density(bell_state("phi+"))
        assert fidelity_with_pure(rho, bell_state("phi-")) == pytest.approx(0.0, abs=1e-12)

    def test_phi_tilde_against_phi_plus(self):
        rho = to_density(schmidt_pure(PHI_TILDE_THETA))
        assert fidelity_with_pure(rho, bell_state("phi+")) == pytest.approx(
            PHI_TILDE_FIDELITY_PHI_PLUS, abs=1e-12)

    def test_matches_trace_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rho = random_density(rng)
            psi = random_pure(rng)
            projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
            expected = float(np.real(np.trace(rho.matrix @ projector)))
            assert fidelity_with_pure(rho, psi) == pytest.approx(expected, abs=1e-12)


class TestEigenHermitian:
    def test_diagonal_matrix(self):
        evals, evecs = eigen_hermitian(DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0])))
        np.testing.assert_allclose(evals, [0.5, 0.3, 0.2, 0.0], atol=1e-12)
        for i, vec in enumerate(evecs):
            expected = np.zeros(4)
            expected[i] = 1.0
            np.testing.assert_allclose(np.abs(vec.amplitudes), expected, atol=1e-8)

    def test_rank_one_top_eigenvector(self):
        evals, evecs = eigen_hermitian(to_density(bell_state("phi+")))
        np.testing.assert_allclose(evals, [1.0, 0, 0, 0], atol=1e-12)
        np.testing.assert_allclose(evecs[0].amplitudes,
                                   bell_state("phi+").amplitudes, atol=1e-9)

    def test_reconstruction_and_trace(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            rho = random_density(rng)
            evals, evecs = eigen_hermitian(rho)
            assert evals.sum() == pytest.approx(1.0, abs=1e-9)
            rebuilt = sum(lam * np.outer(v.amplitudes, v.amplitudes.conj())
                          for lam, v in zip(evals, evecs))
            assert np.linalg.norm(rebuilt - rho.matrix) <= 1e-9

    def test_metric_report_spectrum_equals_its_eigenvalues(self):
        # metric_report sorts one eigh's eigenvalues; eigen_hermitian also
        # builds the eigenvectors. The spectra must match byte for byte.
        rng = np.random.default_rng(43)
        states = ([random_density(rng, rank) for rank in (1, 2, 3, 4) for _ in range(25)]
                  + [to_density(bell_state(kind)) for kind in ("phi+", "phi-", "psi+", "psi-")]
                  + [DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0])), maximally_mixed(),
                     to_density(PureState(np.array([1.0, 0, 0, 0])))])
        for rho in states:
            spectrum = metric_report(rho, bell_state("phi+")).eigen_spectrum
            assert all(type(value) is float for value in spectrum)
            assert np.array(spectrum).tobytes() == eigen_hermitian(rho)[0].tobytes()

    def test_phase_convention_is_deterministic(self):
        rng = np.random.default_rng(23)
        rho = random_density(rng)
        _, first = eigen_hermitian(rho)
        _, second = eigen_hermitian(rho)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.amplitudes, b.amplitudes)


class TestInvariantsAndTypes:
    def test_bell_states_pure_and_maximally_entangled(self):
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            rho = to_density(bell_state(kind))
            assert purity(rho) == pytest.approx(1.0, abs=1e-12)
            assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_metric_report_purity_recomputes(self):
        rng = np.random.default_rng(29)
        rho = random_density(rng)
        report = metric_report(rho, bell_state("phi+"))
        assert isinstance(report, MetricReport)
        assert report.purity == pytest.approx(purity(rho), abs=1e-10)
        assert 0.25 <= report.purity <= 1.0 + 1e-12
        assert sum(report.eigen_spectrum) == pytest.approx(1.0, abs=1e-9)

    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([1.0, 0, 0, 1.0]))

    def test_density_matrix_rejects_non_hermitian(self):
        mat = np.diag([0.25] * 4).astype(complex)
        mat[0, 1] = 0.3
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(mat)

    def test_density_matrix_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.5, 0.5, 0.5, 0.5]))

    def test_density_matrix_psd_floor(self):
        eps = 5e-10
        DensityMatrix(np.diag([0.6, 0.4 + eps, 0.0, -eps]))  # within floor
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([0.6, 0.4 + 5e-9, 0.0, -5e-9]))

    @pytest.mark.parametrize("part, row, col", [("re", 0, 0), ("re", 1, 2), ("im", 3, 1)])
    def test_json_with_nan_rejected(self, part, row, col):
        payload = maximally_mixed().to_json_dict()
        payload[part][row][col] = math.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix.from_json_dict(payload)

    @pytest.mark.parametrize("rank", [0, 5])
    def test_random_density_rank_range(self, rank):
        with pytest.raises(ValueError, match="rank"):
            random_density(np.random.default_rng(1), rank)

    def test_json_round_trip(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        clone = DensityMatrix.from_json_dict(rho.to_json_dict())
        np.testing.assert_allclose(clone.matrix, rho.matrix, atol=1e-15)

    def test_single_kets(self):
        assert abs(np.vdot(ket("D"), ket("A"))) < 1e-15
        assert abs(np.vdot(ket("R"), ket("L"))) < 1e-15
        np.testing.assert_allclose(linear_ket(0.0), ket("H"), atol=1e-15)
        np.testing.assert_allclose(linear_ket(np.pi / 4), ket("D"), atol=1e-15)
        with pytest.raises(ValueError, match="polarization label"):
            ket("Q")

    def test_basis_order(self):
        assert BASIS == ("HH", "HV", "VH", "VV")


#: Every value object that builds an array through `qstate._frozen`: how to
#: build one from an array, the array it keeps, a valid array, one of the
#: wrong shape, and whether a tolerance check applies, which NaN must fail.
VALUE_OBJECTS = {
    "PureState": (PureState, lambda obj: obj.amplitudes,
                  np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0),
                  np.ones(3, dtype=complex) / math.sqrt(3.0), True),
    "DensityMatrix": (DensityMatrix, lambda obj: obj.matrix,
                      np.eye(4, dtype=complex) / 4.0, np.eye(3, dtype=complex) / 3.0, True),
    "MeasurementSetting": (lambda arr: MeasurementSetting(arr, ket("H"), "x", "H"),
                           lambda obj: obj.ket_1, linear_ket(0.3),
                           np.ones(4, dtype=complex) / 2.0, True),
    "JonesOperator": (JonesOperator, lambda obj: obj.matrix,
                      np.array([[0, 1], [1, 0]], dtype=complex), np.eye(3, dtype=complex),
                      False),
    "KrausChannel": (lambda arr: KrausChannel((arr,)), lambda obj: obj.operators[0],
                     np.diag([1.0, 0.5]).astype(complex), np.eye(3, dtype=complex), True),
    "ChshResult": (lambda arr: ChshResult(arr, 2.0, 0.1, OPTIMAL_PLAN), lambda obj: obj.E,
                   np.array([[0.7, -0.7], [0.7, 0.7]]), np.zeros(4), False),
    "FringeCurve": (lambda arr: FringeCurve(np.arange(4.0), arr, 1.0, 0.0, 0.0, 0.0, 0.0),
                    lambda obj: obj.values, np.arange(4.0), np.arange(5.0), False),
}


@pytest.mark.parametrize("name", VALUE_OBJECTS)
def test_value_object_keeps_a_checked_read_only_copy(name):
    build, kept, valid, wrong_shape, tolerance = VALUE_OBJECTS[name]
    with pytest.raises(ValueError, match="shape"):
        build(wrong_shape)
    if tolerance:
        with_nan = valid.copy()
        with_nan.flat[0] = np.nan
        with pytest.raises(ValueError):
            build(with_nan)
    if valid.ndim == 1:
        # A column of the right length is flattened.
        assert kept(build(valid.reshape(-1, 1))).tobytes() == valid.tobytes()
    given = valid.copy()
    obj = build(given)
    assert given.flags.writeable and not kept(obj).flags.writeable
    before = kept(obj).tobytes()
    given[...] = 5.0
    assert kept(obj).tobytes() == before
