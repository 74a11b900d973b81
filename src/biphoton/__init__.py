"""Two-photon polarization entanglement through anisotropic lossy channels.

Subpackages cover state representation and entanglement metrics
(:mod:`~biphoton.qstate`), polarization optics and lossy couplers
(:mod:`~biphoton.optics`), Monte-Carlo coincidence counting
(:mod:`~biphoton.sim`), maximum-likelihood state reconstruction
(:mod:`~biphoton.tomo`), CHSH estimation (:mod:`~biphoton.bell`) and the
scenario runner / command line interface (:mod:`~biphoton.cli`).
"""

from biphoton import bell, optics, qstate, sim, tomo

__all__ = ["bell", "optics", "qstate", "sim", "tomo"]

__version__ = "0.1.0"
