"""Tests for CHSH correlations, the S statistic and count-based estimation."""

import numpy as np
import pytest

from biphoton import bell
from biphoton.bell import (ChshPlan, ChshResult, OPTIMAL_PLAN, SIGNS,
                           chsh_S, chsh_from_counts, correlation,
                           simulate_chsh_counts)
from biphoton.qstate import (bell_state, random_density, schmidt_pure,
                             to_density)
from biphoton.sim import MeasurementSetting, coincidence_probability
from helpers import exact_records

TSIRELSON = 2 * np.sqrt(2)


def random_product_state(rng):
    a = random_density(rng).matrix
    # partial trace to single-qubit factors
    rho_a = np.trace(a.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    rho_b = np.trace(a.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    from biphoton.qstate import DensityMatrix
    return DensityMatrix(np.kron(rho_a, rho_b))


class TestPlan:
    def test_optimal_plan_angles(self):
        assert OPTIMAL_PLAN.alice == (0.0, np.pi / 4)
        assert OPTIMAL_PLAN.bob == (np.pi / 8, 3 * np.pi / 8)

    def test_degenerate_angles_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ChshPlan((0.1, 0.1), (0.0, 1.0))

    @pytest.mark.parametrize("alice, bob", [((0.1, np.nan), (0.0, 1.0)),
                                            ((0.0, 1.0), (np.nan, np.nan))])
    def test_nan_angle_rejected(self, alice, bob):
        with pytest.raises(ValueError, match=r"^(alice|bob) angle must be a finite number, got nan$"):
            ChshPlan(alice, bob)

    def test_one_angle_rejected(self):
        with pytest.raises(ValueError, match="two analyzer angles"):
            ChshPlan((0.1,), (0.0, 1.0))

    def test_nan_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma_S"):
            ChshResult(np.zeros((2, 2)), 0.0, np.nan, OPTIMAL_PLAN)


class TestCorrelation:
    def test_phi_plus_parallel(self):
        rho = to_density(bell_state("phi+"))
        assert correlation(rho, 0.0, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_phi_plus_unbiased(self):
        rho = to_density(bell_state("phi+"))
        assert correlation(rho, 0.0, np.pi / 4) == pytest.approx(0.0, abs=1e-12)

    def test_phi_plus_pi_over_8(self):
        rho = to_density(bell_state("phi+"))
        assert correlation(rho, 0.0, np.pi / 8) == pytest.approx(
            np.cos(np.pi / 4), abs=1e-12)

    def test_matches_outcome_probabilities(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            rho = random_density(rng)
            a, b = rng.uniform(0, np.pi, size=2)
            probs = [coincidence_probability(rho, MeasurementSetting.of(a1, b1))
                     for a1 in (a, a + np.pi / 2) for b1 in (b, b + np.pi / 2)]
            expected = probs[0] - probs[1] - probs[2] + probs[3]
            assert correlation(rho, a, b) == pytest.approx(expected, abs=1e-12)


class TestChshS:
    def test_phi_plus_reaches_tsirelson(self):
        result = chsh_S(to_density(bell_state("phi+")))
        assert abs(result.S) == pytest.approx(TSIRELSON, abs=1e-10)
        assert result.sigma_S == 0.0

    def test_s_recomputable_from_E(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            result = chsh_S(random_density(rng))
            assert result.S == pytest.approx(float(np.sum(SIGNS * result.E)),
                                             abs=1e-12)

    def test_phi_plus_matches_cosine_formula(self):
        rho = to_density(bell_state("phi+"))
        rng = np.random.default_rng(53)
        for _ in range(50):
            a1, a2, b1, b2 = rng.uniform(0, np.pi, size=4)
            if abs(a1 - a2) < 1e-6 or abs(b1 - b2) < 1e-6:
                continue
            plan = ChshPlan((a1, a2), (b1, b2))
            expected = (np.cos(2 * (a1 - b1)) - np.cos(2 * (a1 - b2))
                        + np.cos(2 * (a2 - b1)) + np.cos(2 * (a2 - b2)))
            assert chsh_S(rho, plan).S == pytest.approx(expected, abs=1e-10)

    def test_product_state_respects_local_bound(self):
        rho_hh = to_density(schmidt_pure(0.0))
        assert abs(chsh_S(rho_hh).S) <= 2 + 1e-12

    def test_separable_states_respect_local_bound(self):
        rng = np.random.default_rng(59)
        for _ in range(500):
            rho = random_product_state(rng)
            assert abs(chsh_S(rho).S) <= 2 + 1e-9

    def test_tsirelson_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            rho = random_density(rng)
            assert abs(chsh_S(rho).S) <= TSIRELSON + 1e-9


class TestChshFromCounts:
    def test_perfect_correlation(self):
        rho = to_density(bell_state("phi+"))
        records = exact_records(rho, OPTIMAL_PLAN._settings, 1000)
        # overwrite first pair with perfectly correlated counts
        import dataclasses
        for i, c in zip(range(4), (500.0, 0.0, 0.0, 500.0)):
            records[i] = dataclasses.replace(records[i], counts=c)
        result = chsh_from_counts(records)
        assert result.E[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_exact_counts_match_state_value(self):
        rng = np.random.default_rng(67)
        for _ in range(30):
            rho = random_density(rng)
            records = exact_records(rho, OPTIMAL_PLAN._settings, 5000)
            from_counts = chsh_from_counts(records)
            exact = chsh_S(rho)
            assert from_counts.S == pytest.approx(exact.S, abs=1e-9)
            np.testing.assert_allclose(from_counts.E, exact.E, atol=1e-9)

    def test_uniform_counts_give_zero(self):
        records = exact_records(to_density(bell_state("phi+")),
                                OPTIMAL_PLAN._settings, 1000)
        import dataclasses
        flat = [dataclasses.replace(r, counts=250.0) for r in records]
        result = chsh_from_counts(flat)
        assert result.S == pytest.approx(0.0, abs=1e-12)

    def test_sampled_counts_near_exact(self):
        rho = to_density(bell_state("phi+"))
        records = simulate_chsh_counts(rho, OPTIMAL_PLAN, 10000, seed=3)
        result = chsh_from_counts(records)
        assert result.S == pytest.approx(TSIRELSON, abs=5 * result.sigma_S + 0.02)
        assert result.sigma_S > 0

    def test_sampling_deterministic(self):
        rho = to_density(bell_state("phi+"))
        a = simulate_chsh_counts(rho, OPTIMAL_PLAN, 1000, seed=9)
        b = simulate_chsh_counts(rho, OPTIMAL_PLAN, 1000, seed=9)
        assert [r.counts for r in a] == [r.counts for r in b]

    def test_permuted_records_rejected(self):
        records = simulate_chsh_counts(to_density(bell_state("phi+")),
                                       OPTIMAL_PLAN, 1000, seed=5)
        swapped = [records[4], *records[1:4], records[0], *records[5:]]
        with pytest.raises(ValueError, match="record 0"):
            chsh_from_counts(swapped)
        with pytest.raises(ValueError, match="record 1"):
            chsh_from_counts([records[0], records[3], records[2], records[1],
                              *records[4:]])

    def test_records_of_another_plan_rejected(self):
        # Each plan's expected labels come from its own cached settings.
        rho = to_density(bell_state("phi+"))
        plans = (ChshPlan((0.1, 0.9), (0.3, 1.2)), ChshPlan((0.2, 1.1), (0.5, 1.4)))
        for plan, other in zip(plans, plans[::-1]):
            records = exact_records(rho, plan._settings, 1000)
            assert chsh_from_counts(records, plan).plan == plan
            with pytest.raises(ValueError, match="record 0"):
                chsh_from_counts(records)
            with pytest.raises(ValueError, match="record 0"):
                chsh_from_counts(records, other)

    def test_record_count_validation(self):
        with pytest.raises(ValueError, match="16"):
            chsh_from_counts([])

    def test_zero_total_pair_rejected(self):
        records = exact_records(to_density(bell_state("phi+")),
                                OPTIMAL_PLAN._settings, 1000)
        import dataclasses
        dead = [dataclasses.replace(r, counts=0.0) if i < 4 else r
                for i, r in enumerate(records)]
        with pytest.raises(ValueError, match="zero total"):
            chsh_from_counts(dead)

    def test_sigma_propagation_formula(self):
        # one pair with counts (a, b, c, d): sigma_E^2 = sum((s_k - E)/N)^2 n_k
        rho = to_density(bell_state("phi+"))
        records = simulate_chsh_counts(rho, OPTIMAL_PLAN, 2000, seed=11)
        result = chsh_from_counts(records)
        signs = np.array([1.0, -1.0, -1.0, 1.0])
        var_total = 0.0
        for pair in range(4):
            counts = np.array([records[4 * pair + k].counts for k in range(4)])
            total = counts.sum()
            e = np.dot(signs, counts) / total
            var_total += np.sum(((signs - e) / total) ** 2 * counts)
        assert result.sigma_S == pytest.approx(np.sqrt(var_total), abs=1e-12)

    def test_json_payload(self):
        result = chsh_S(to_density(bell_state("phi+")))
        payload = result.to_json_dict()
        assert payload["plan"]["alice"] == [0.0, np.pi / 4]
        assert isinstance(payload["E"], list)
        assert isinstance(result, ChshResult)


def counting_builds(monkeypatch) -> list:
    """Record each MeasurementSetting.of and _joint_observable call."""
    calls = []
    of, joint = MeasurementSetting.of.__func__, bell._joint_observable
    monkeypatch.setattr(MeasurementSetting, "of",
                        classmethod(lambda cls, *a: calls.append("of") or of(cls, *a)))
    monkeypatch.setattr(bell, "_joint_observable",
                        lambda *a: calls.append("joint") or joint(*a))
    return calls


class TestPlanCaches:
    def test_outcome_settings_built_once(self, monkeypatch):
        calls = counting_builds(monkeypatch)
        plan = ChshPlan((0.1, 0.7), (0.3, 1.1))
        first = plan._settings
        assert plan._settings is first and calls == ["of"] * 16
        assert isinstance(first, tuple) and len(first) == 16
        half_pi = np.pi / 2
        want = [MeasurementSetting.of(x, y) for a in plan.alice for b in plan.bob
                for x in (a, a + half_pi) for y in (b, b + half_pi)]
        assert ([(s.label_1, s.label_2) for s in first]
                == [(s.label_1, s.label_2) for s in want])

    def test_cached_kets_are_read_only(self):
        for setting in OPTIMAL_PLAN._settings:
            for vec in (setting.ket_1, setting.ket_2):
                with pytest.raises(ValueError, match="read-only"):
                    vec[0] = 0.0

    def test_signed_zero_keeps_its_label(self):
        assert ChshPlan((0.0, 0.7), (0.3, 1.1))._settings[0].label_1 == "lin:0"
        assert ChshPlan((-0.0, 0.7), (0.3, 1.1))._settings[0].label_1 == "lin:-0"

    def test_plan_joints_built_once_and_read_only(self, monkeypatch):
        calls = counting_builds(monkeypatch)
        plan = ChshPlan((0.1, 0.7), (0.3, 1.1))
        joints = plan._joints
        assert plan._joints is joints and calls == ["joint"] * 4
        assert joints.shape == (2, 2, 4, 4) and not joints.flags.writeable

    def test_equal_plans_at_signed_zero_keep_their_own_tables(self, monkeypatch):
        calls = counting_builds(monkeypatch)
        rho = random_density(np.random.default_rng(216), 3)
        plans = [ChshPlan((zero, 0.7), (0.3, 1.1)) for zero in (0.0, -0.0)]
        assert plans[0] == plans[1] and hash(plans[0]) == hash(plans[1])
        records = []
        for plan in plans:
            records.append(simulate_chsh_counts(rho, plan, 500, 9))
            assert record_bytes(simulate_chsh_counts(rho, plan, 500, 9)) == record_bytes(records[-1])
            chsh_S(rho, plan)
            chsh_S(rho, plan)
        assert calls == (["of"] * 16 + ["joint"] * 4) * 2
        labels = [[rec.setting.label_1 for rec in recs[:2]] for recs in records]
        assert labels == [["lin:0", "lin:0"], ["lin:-0", "lin:-0"]]
        unsigned = [[("lin:0" if row[0] == "lin:-0" else row[0], *row[1:])
                     for row in record_bytes(recs)] for recs in records]
        assert unsigned[0] == unsigned[1]


def record_bytes(records) -> list:
    """What `records_to_csv` writes of each record, with the value types."""
    return [(r.setting.label_1, r.setting.label_2, repr(r.counts), type(r.counts),
             repr(r.expected_pairs), type(r.expected_pairs)) for r in records]
