"""Test-suite set-up shared by every test module.

One OpenBLAS thread unless the environment names a count. The fits multiply
4x4 matrices, and with more threads than free cores OpenBLAS spins: on a
2-core machine with the other core busy, the stacked bootstrap tests ran
several times slower. OpenBLAS reads this when numpy loads it, and pytest
imports this file before any test module, so it is set before numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
