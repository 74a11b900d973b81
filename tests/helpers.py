"""States and records the tests build from the package's own code.

Each helper is the short form of something the package computes: exact
records are the Poisson means that `acquire_tomography` and
`simulate_chsh_counts` draw from, and a Cholesky state is the fit's own
T T^H / tr(T T^H).
"""

import numpy as np

from biphoton.qstate import DensityMatrix, PureState
from biphoton.sim import CountRecord, coincidence_probability
from biphoton.tomo import _density_from_params


def exact_records(rho, settings, mean_pairs):
    """Infinite-count records: each count is the setting's Born-rule
    probability times `mean_pairs`, the mean of the sampled draw."""
    return [CountRecord(s, coincidence_probability(rho, s) * mean_pairs, float(mean_pairs))
            for s in settings]


def cholesky_density(t):
    """The state T T^H / tr(T T^H) of the 16 Cholesky parameters `t`."""
    return DensityMatrix(_density_from_params(np.asarray(t, dtype=float)))


def maximally_mixed():
    return DensityMatrix(np.eye(4, dtype=complex) / 4.0)


def random_pure(rng):
    """Haar-random two-qubit pure state."""
    vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return PureState(vec / np.linalg.norm(vec))
