"""Acceptance suite: one test per acceptance criterion.

Each test evaluates its criterion at the stated tolerance and prints a
single `[PASS]`/`[FAIL]` line (run `pytest -s tests/test_acceptance.py` to
see them). Criterion 6's absolute-magnitude clause is expected to fail and
is marked xfail: at 1e4 pairs/setting the honest bootstrap spread of S is
about 3x smaller than the 0.147 yardstick, which corresponds to a much
lower (unreported) count rate; see the assertion message for numbers.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from biphoton import bell, cli, optics, scenario, sim, tomo
from biphoton.qstate import (DensityMatrix, bell_state, concurrence,
                             eigen_hermitian, fidelity_with_pure, random_density,
                             schmidt_pure, to_density)
from helpers import random_pure

PHI_PLUS = bell_state("phi+")
RHO_PHI_PLUS = to_density(PHI_PLUS)
PLAN = sim.tomography_plan()
# The taper-nanowire junction: 40.3% absolute H transmission, H:V ratio 1.78.
ETA_H = 0.403
ETA_V = 0.403 / 1.78


def report(number: str, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def scenario_model(name):
    config = dataclasses.replace(cli.builtin_scenario(name), outputs="unused")
    return config, cli.resolve_model(config)


def test_criterion_1_channel_analytics():
    start = time.time()
    outcome = optics.apply_channel(RHO_PHI_PLUS,
                                   optics.anisotropic_coupler(ETA_H, ETA_V))
    _, evecs = eigen_hermitian(outcome.state)
    amps = np.abs(evecs[0].amplitudes)
    ok_schmidt = (abs(amps[0] - 0.800) <= 1e-3 and abs(amps[3] - 0.600) <= 1e-3
                  and abs(amps[0] - 0.801) <= 0.01 and abs(amps[3] - 0.594) <= 0.01)
    c_tilde = concurrence(to_density(schmidt_pure(math.atan2(0.594, 0.801))))
    ok_conc = abs(c_tilde - 0.957) <= 1e-3
    elapsed = time.time() - start
    report("1", "ratio-1.78 coupler reproduces the Schmidt eigenstate",
           ok_schmidt and ok_conc and elapsed < 0.5,
           f"amps ({amps[0]:.4f}, {amps[3]:.4f}), C={c_tilde:.4f}, {elapsed*1e3:.0f} ms")


def test_criterion_2_compensation():
    coupler = optics.anisotropic_coupler(ETA_H, ETA_V)
    source = optics.compensated_source(ETA_H, ETA_V)
    noiseless = optics.apply_channel(to_density(source), coupler)
    ok_noiseless = fidelity_with_pure(noiseless.state, PHI_PLUS) >= 1 - 1e-10

    _, model = scenario_model("nanowire-compensated")
    fidelities = []
    for seed in range(50):
        records = sim.acquire_tomography(model.state, PLAN,
                                         model.effective_pairs, seed)
        result = tomo.mle_reconstruct(records, target=PHI_PLUS)
        fidelities.append(result.metrics.fidelity_target)
    reported = float(np.median(fidelities))
    ok_noisy = abs(reported - 0.932) <= 0.02
    report("2", "pump compensation restores phi+ (noiseless exactly, "
                "noisy at the physical bound)",
           ok_noiseless and ok_noisy,
           f"noiseless F={fidelity_with_pure(noiseless.state, PHI_PLUS):.12f}, "
           f"median reported F={reported:.4f}")


def test_criterion_3_tomography_round_trip():
    rng = np.random.default_rng(202)
    fidelities = []
    worst_time = 0.0
    physical = True
    for seed in range(50):
        psi = random_pure(rng)
        records = sim.acquire_tomography(to_density(psi), PLAN, 10_000, seed)
        start = time.time()
        result = tomo.mle_reconstruct(records, target=psi)
        worst_time = max(worst_time, time.time() - start)
        fidelities.append(fidelity_with_pure(result.rho, psi))
        mat = result.rho.matrix
        physical &= (np.linalg.eigvalsh(mat).min() >= -1e-12
                     and abs(np.trace(mat).real - 1.0) <= 1e-12)
    median_f = float(np.median(fidelities))
    report("3", "MLE round trip on 50 random pure states",
           median_f >= 0.99 and physical and worst_time <= 1.0,
           f"median F={median_f:.4f}, worst time {worst_time*1e3:.0f} ms")


def test_criterion_4_gradient_check():
    rng = np.random.default_rng(77)
    records = sim.acquire_tomography(to_density(random_pure(rng)), PLAN, 5000, 1)
    projectors, counts, pairs = tomo.record_arrays(records)
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        t = rng.standard_normal(16)
        _, grad = tomo.objective_and_gradient(t, counts, pairs, projectors)
        numeric = np.empty(16)
        for k in range(16):
            plus, minus = t.copy(), t.copy()
            plus[k] += step
            minus[k] -= step
            numeric[k] = (
                tomo.objective_and_gradient(plus, counts, pairs, projectors)[0]
                - tomo.objective_and_gradient(minus, counts, pairs, projectors)[0]
            ) / (2 * step)
        worst = max(worst, np.linalg.norm(grad - numeric) / np.linalg.norm(numeric))
    report("4", "analytic MLE gradient vs central differences at 100 points",
           worst < 1e-5, f"worst relative error {worst:.2e}")


def test_criterion_5_chsh():
    s_phi = bell.chsh_S(RHO_PHI_PLUS).S
    ok_tsirelson = abs(abs(s_phi) - 2 * np.sqrt(2)) <= 1e-6

    rng = np.random.default_rng(59)
    ok_separable = True
    for _ in range(500):
        rho_a = np.trace(random_density(rng).matrix.reshape(2, 2, 2, 2),
                         axis1=1, axis2=3)
        rho_b = np.trace(random_density(rng).matrix.reshape(2, 2, 2, 2),
                         axis1=0, axis2=2)
        product = DensityMatrix(np.kron(rho_a, rho_b))
        ok_separable &= abs(bell.chsh_S(product).S) <= 2 + 1e-9

    config_t, model_t = scenario_model("taper")
    counts_t = bell.simulate_chsh_counts(model_t.state, bell.OPTIMAL_PLAN,
                                         model_t.effective_pairs, config_t.seed)
    s_taper = bell.chsh_from_counts(counts_t).S
    ok_taper = 2.45 <= s_taper <= 2.70

    config_c, model_c = scenario_model("nanowire-compensated")
    counts_c = bell.simulate_chsh_counts(model_c.state, bell.OPTIMAL_PLAN,
                                         model_c.effective_pairs, config_c.seed)
    s_comp = bell.chsh_from_counts(counts_c).S
    ok_comp = 2.35 <= s_comp <= 2.65

    report("5", "CHSH: Tsirelson value, local bound, calibrated scenarios",
           ok_tsirelson and ok_separable and ok_taper and ok_comp,
           f"S(phi+)={s_phi:.6f}, S(taper)={s_taper:.3f}, S(comp)={s_comp:.3f}")


def test_criterion_6a_bootstrap_scaling():
    config, model = scenario_model("taper")
    sigma = {}
    for k in (1, 4, 16):
        records = sim.acquire_tomography(model.state, PLAN,
                                         model.effective_pairs * k, config.seed)
        sigma[k] = tomo.bootstrap_errors(records, replicas=200,
                                         seed=config.seed)["S"]
    ratio_4 = sigma[4] * 2 / sigma[1]
    ratio_16 = sigma[16] * 4 / sigma[1]
    ok = 0.7 <= ratio_4 <= 1.3 and 0.7 <= ratio_16 <= 1.3
    report("6a", "bootstrap sigma_S scales as 1/sqrt(k) for k in {1,4,16}",
           ok, f"sqrt-normalized ratios {ratio_4:.2f}, {ratio_16:.2f}")


@pytest.mark.xfail(reason="at 1e4 pairs/setting the honest bootstrap sigma_S "
                          "is ~0.05, a factor ~2.8 below 0.147; matching the "
                          "0.147 yardstick needs the (unreported) experimental "
                          "count rate of roughly 5e2-1.5e3 pairs/setting",
                   strict=False)
def test_criterion_6b_sigma_magnitude():
    config, model = scenario_model("nanowire-compensated")
    records = sim.acquire_tomography(model.state, PLAN,
                                     model.effective_pairs, config.seed)
    sigma_s = tomo.bootstrap_errors(records, replicas=200,
                                    seed=config.seed)["S"]
    ok = 0.147 / 2 <= sigma_s <= 0.147 * 2
    report("6b", "bootstrap sigma_S within a factor 2 of 0.147 at 1e4/setting",
           ok, f"sigma_S={sigma_s:.4f}")


def test_criterion_7_fringes():
    angles = np.deg2rad(np.arange(0, 180, 10))
    leak = sim.leak_fraction_for_extinction(25.0)
    singles = sim.single_photon_fringe(sim.h_state_with_leak(leak),
                                       1.0, 1.0, angles)
    ok_singles = abs(singles.visibility - 0.923) <= 1e-3

    values = optics.transmission_fringe(ETA_H, ETA_V, angles)
    ratio = values.max() / values.min()
    ok_ratio = abs(ratio - 1.78) <= 1e-6

    p_hv = sim.coincidence_probability(RHO_PHI_PLUS, sim.MeasurementSetting.of("H", "V"))
    p_da = sim.coincidence_probability(RHO_PHI_PLUS, sim.MeasurementSetting.of("D", "A"))
    ok_zeros = p_hv < 1e-12 and p_da < 1e-12
    report("7", "single-photon extinction, transmission ratio, biphoton zeros",
           ok_singles and ok_ratio and ok_zeros,
           f"visibility={singles.visibility:.6f}, max/min={ratio:.6f}, "
           f"p(H,V)={p_hv:.1e}, p(D,A)={p_da:.1e}")


def test_criterion_8_budget():
    budget = scenario.efficiency_budget([0.401, 0.705, 0.702], solve_total=0.075,
                                        quoted_unknown=0.403)
    ok_total = abs(budget.total - 0.1985) <= 1e-4
    ok_solved = abs(budget.solved_unknown - 0.378) <= 5e-4
    payload = budget.to_json_dict()["solved_unknown"]
    ok_flagged = (payload["quoted"] == 0.403
                  and abs(payload["recomputed_minus_quoted"]) > 0.01)
    report("8", "efficiency budget total and solved unknown vs quoted value",
           ok_total and ok_solved and ok_flagged,
           f"total={budget.total:.4f}, unknown={budget.solved_unknown:.4f}, "
           f"quoted gap={budget.quoted_gap:.4f}")


def test_criterion_9_determinism(tmp_path):
    base = dataclasses.replace(cli.builtin_scenario("nanowire"),
                               outputs=str(tmp_path / "a"),
                               mean_pairs=2000, bootstrap_replicas=3)
    twin = dataclasses.replace(base, outputs=str(tmp_path / "b"))
    report_a = cli.run_scenario(base)
    cli.run_scenario(twin)
    identical = True
    for path in report_a.artifacts:
        twin_path = tmp_path / "b" / path.name
        identical &= path.read_bytes() == twin_path.read_bytes()
    report("9", "scenario rerun with equal seed is byte-identical",
           identical, f"{len(report_a.artifacts)} artifacts compared")
