"""Two-photon polarization entanglement through anisotropic lossy channels.

Subpackages cover state representation and entanglement metrics
(:mod:`~biphoton.qstate`), polarization optics and lossy couplers
(:mod:`~biphoton.optics`), Monte-Carlo coincidence counting
(:mod:`~biphoton.sim`), maximum-likelihood state reconstruction
(:mod:`~biphoton.tomo`), CHSH estimation (:mod:`~biphoton.bell`), scenario
configuration (:mod:`~biphoton.scenario`) and the scenario runner / command
line interface (:mod:`~biphoton.cli`).

Importing the package loads none of them: each submodule loads on first
use, and importing :mod:`~biphoton.cli` loads no numpy or PyYAML.
"""

import importlib

__all__ = ["bell", "cli", "optics", "qstate", "scenario", "sim", "tomo"]

__version__ = "0.1.0"


def __getattr__(name):
    # Submodules load on first use, so that importing `biphoton.cli` sets
    # its BLAS thread count before numpy loads, and loads numpy only for
    # the commands that need it.
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
