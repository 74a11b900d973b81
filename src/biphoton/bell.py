"""CHSH estimation from states or from coincidence counts.

Analyzer settings are linear-polarization angles; each measurement is the
+/-1-valued observable P(theta) - P(theta + pi/2). The statistic follows
the sign pattern S = E11 - E12 + E21 + E22 over the four setting pairs,
bounded by 2 for local hidden-variable models and by 2*sqrt(2) for
quantum states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from biphoton.qstate import DensityMatrix, _freeze, _frozen, linear_ket
from biphoton.scenario import _FINITE, _number
from biphoton.sim import CountRecord, MeasurementSetting, _CHSH_STREAM, _records

#: Sign of each correlation in S, indexed [alice setting][bob setting].
SIGNS = np.array([[1.0, -1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class ChshPlan:
    """Two analyzer angles per party, radians, each a finite number."""

    alice: tuple[float, float]
    bob: tuple[float, float]

    def __post_init__(self):
        for party in ("alice", "bob"):
            try:
                angles = tuple(getattr(self, party))
            except TypeError:
                angles = ()
            if len(angles) != 2:
                raise ValueError("each party needs exactly two analyzer angles")
            object.__setattr__(self, party, tuple(_number(angle, f"{party} angle", *_FINITE)
                                                  for angle in angles))
        if abs(self.alice[0] - self.alice[1]) < 1e-12 or abs(self.bob[0] - self.bob[1]) < 1e-12:
            raise ValueError("analyzer angles must be distinct within a party")

    def to_json_dict(self) -> dict:
        return {"alice": list(self.alice), "bob": list(self.bob)}

    @functools.cached_property
    def _settings(self) -> tuple[MeasurementSetting, ...]:
        """The 16 outcome settings, built on first use: setting pairs (a1,b1),
        (a1,b2), (a2,b1), (a2,b2), outcomes ++, +-, -+, -- within each pair.
        Held by the plan, so a plan at -0.0 keeps its lin:-0 label."""
        half_pi = np.pi / 2
        return tuple(MeasurementSetting.of(x, y) for a in self.alice for b in self.bob
                     for x in (a, a + half_pi) for y in (b, b + half_pi))

    @functools.cached_property
    def _joints(self) -> np.ndarray:
        """The (2, 2, 4, 4) joint observables, [alice][bob], read-only,
        built on first use."""
        return _freeze(np.array([[_joint_observable(a, b) for b in self.bob]
                                 for a in self.alice]))


#: Analyzer set maximizing S for phi+ (Tsirelson value 2*sqrt(2)).
OPTIMAL_PLAN = ChshPlan((0.0, np.pi / 4), (np.pi / 8, 3 * np.pi / 8))


@dataclass(frozen=True, eq=False)
class ChshResult:
    """Correlation matrix, S and its Poissonian uncertainty."""

    E: np.ndarray
    S: float
    sigma_S: float
    plan: ChshPlan

    def __post_init__(self):
        object.__setattr__(self, "E", _frozen(self.E, float, (2, 2), "E"))
        if not self.sigma_S >= 0:
            raise ValueError(f"sigma_S must be non-negative, got {self.sigma_S!r}")

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_json_dict(),
            "E": self.E.tolist(),
            "S": self.S,
            "sigma_S": self.sigma_S,
        }


def _joint_observable(a: float, b: float) -> np.ndarray:
    """The joint +/-1 observable at analyzer angles (a, b)."""
    kets = (linear_ket(a), linear_ket(b))
    return np.kron(*(2.0 * np.outer(k, k.conj()) - np.eye(2) for k in kets))


def _correlation(mats: np.ndarray, joints: np.ndarray) -> np.ndarray:
    """tr(rho J), broadcast over the axes before the last two."""
    return (mats @ joints).trace(axis1=-2, axis2=-1).real


def correlation(rho: DensityMatrix, a: float, b: float) -> float:
    """Expectation of the joint +/-1 observable at analyzer angles (a, b),
    each a finite number."""
    a, b = _number(a, "a", *_FINITE), _number(b, "b", *_FINITE)
    return float(_correlation(rho.matrix, _joint_observable(a, b)))


def _chsh_S(mats: np.ndarray, plan: ChshPlan) -> tuple[np.ndarray, np.ndarray]:
    """The (..., 2, 2) correlations and S of each state along the last two axes."""
    e = _correlation(mats[..., None, None, :, :], plan._joints)
    return e, np.sum(SIGNS * e, axis=(-2, -1))


def chsh_S(rho: DensityMatrix, plan: ChshPlan = OPTIMAL_PLAN) -> ChshResult:
    """Exact-probability CHSH statistic (sigma_S = 0)."""
    e, s_val = _chsh_S(rho.matrix, plan)
    return ChshResult(e, float(s_val), 0.0, plan)


def simulate_chsh_counts(rho: DensityMatrix, plan: ChshPlan,
                         mean_pairs: float, seed: int) -> list[CountRecord]:
    """Poisson-sampled counts, `mean_pairs` pairs per setting pair."""
    return _records(rho, plan._settings, mean_pairs, seed, _CHSH_STREAM)


def chsh_from_counts(records, plan: ChshPlan = OPTIMAL_PLAN) -> ChshResult:
    """S and sigma_S from 16 outcome counts (4 per setting pair).

    Records follow the layout of `simulate_chsh_counts`: setting pairs in
    the order (a1,b1), (a1,b2), (a2,b1), (a2,b2), outcomes ++, +-, -+, --
    within each pair. A record whose setting labels differ from that
    layout for `plan` is rejected. sigma_S propagates Poissonian count
    variances to first order.
    """
    records = list(records)
    if len(records) != 16:
        raise ValueError(f"expected 16 outcome records, got {len(records)}")
    expected = [(s.label_1, s.label_2) for s in plan._settings]
    for i, (rec, labels) in enumerate(zip(records, expected)):
        if (rec.setting.label_1, rec.setting.label_2) != labels:
            raise ValueError(f"record {i} is at setting {rec.setting.label_1}/"
                             f"{rec.setting.label_2}, the plan puts "
                             f"{labels[0]}/{labels[1]} there")
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    e = np.empty((2, 2))
    var_e = np.empty((2, 2))
    for pair_idx in range(4):
        chunk = records[4 * pair_idx:4 * pair_idx + 4]
        counts = np.array([rec.counts for rec in chunk], dtype=float)
        total = counts.sum()
        if total <= 0:
            raise ValueError(f"setting pair {pair_idx} has zero total counts")
        corr = float(np.dot(signs, counts) / total)
        i, j = divmod(pair_idx, 2)
        e[i, j] = corr
        var_e[i, j] = float(np.sum(((signs - corr) / total) ** 2 * counts))
    s_val = float(np.sum(SIGNS * e))
    return ChshResult(e, s_val, float(np.sqrt(var_e.sum())), plan)
