import tracemalloc

import numpy as np
import pytest

from hodgeflow.forms import COMPONENT_PAIRS
from hodgeflow.grid import PeriodicGrid
from hodgeflow import scenarios


@pytest.fixture(scope="session")
def grid8():
    return PeriodicGrid((8,) * 4)


@pytest.fixture(scope="session")
def grid12():
    return PeriodicGrid((12,) * 4)


@pytest.fixture(scope="session")
def grid2_32():
    return PeriodicGrid((32, 32))


def random_form(grid, eps=0.2, band=2, seed=0):
    """Closed band-limited probe near the reference form."""
    return scenarios.make_random_near_omega(grid, eps, band=band, seed=seed)


def as_skew_matrix(rho):
    """The antisymmetric matrix A with rho = g(A., .), shape (4, 4, *dims):
    the explicit matrix the program only applies to vectors."""
    A = np.zeros((4, 4) + rho.grid.dims)
    for n, (i, j) in enumerate(COMPONENT_PAIRS):
        A[i, j] = rho.comps[n]
        A[j, i] = -rho.comps[n]
    return A


def traced_peak(fn) -> int:
    """tracemalloc peak of the second of two calls (the first fills caches)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rel_err(x, y):
    x = np.asarray(x)
    y = np.asarray(y)
    scale = max(float(np.abs(x).max()), float(np.abs(y).max()), 1e-30)
    return float(np.abs(x - y).max()) / scale


# one [pass]/[FAIL] line per acceptance criterion, echoed after the run
# (regular prints are swallowed by capture unless the criterion fails)
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)
