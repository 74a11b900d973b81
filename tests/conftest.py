"""Test-suite set-up shared by every test module.

One OpenBLAS thread unless the environment names a count. The fits multiply
4x4 matrices, and with more threads than free cores OpenBLAS spins: on a
2-core machine with the other core busy, the stacked bootstrap tests ran
several times slower. OpenBLAS reads this when numpy loads it, and pytest
imports this file before any test module, so it is set before numpy.

The bootstrap forks its workers only from a single-threaded process, so the
tests that count forks rely on pytest running one thread; `second_thread`
starts another for a test.
"""

import os
import threading

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@pytest.fixture
def second_thread():
    """A second live thread, parked on an event, for the test's duration."""
    parked = threading.Event()
    thread = threading.Thread(target=parked.wait)
    thread.start()
    yield thread
    parked.set()
    thread.join(10.0)
    assert not thread.is_alive()
