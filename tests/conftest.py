import tracemalloc

import numpy as np
import pytest

from hodgeflow.forms import COMPONENT_PAIRS, DEFAULT_U_FLOOR
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


def fourier_d2_matrix(n, length=2.0 * np.pi):
    """Second-derivative matrix of the trigonometric interpolant on n equally
    spaced points of [0, length), n even (Trefethen, Spectral Methods in
    MATLAB, ch. 3).  Built from the closed form, not from an FFT."""
    h = 2.0 * np.pi / n
    offset = np.arange(n)[:, None] - np.arange(n)[None, :]
    mat = np.empty((n, n))
    off = offset != 0
    mat[off] = -0.5 * (-1.0) ** offset[off] / np.sin(0.5 * h * offset[off]) ** 2
    np.fill_diagonal(mat, -np.pi ** 2 / (3.0 * h ** 2) - 1.0 / 6.0)
    return mat * (2.0 * np.pi / length) ** 2


def degeneracy_time_oracle(a0, nx, ny):
    """First t at which min u reaches the floor under the linear flow of the
    shear data: u = 1 - f h a0 e^-t sin y, with the sampled profiles f, h
    evolved by expm(t D2) on the nx-point circle, and the root found by
    brentq in the first sample interval."""
    from scipy.linalg import expm
    from scipy.optimize import brentq

    gx = PeriodicGrid((nx,))
    f0, h0 = scenarios._sample_f0(gx), scenarios._sample_h0(gx)
    d2 = fourier_d2_matrix(nx)
    sin_y = np.sin(np.arange(ny) * 2.0 * np.pi / ny)

    def gap(t):
        prop = expm(t * d2)
        fh = (prop @ f0) * (prop @ h0)
        u = 1.0 - a0 * np.exp(-t) * np.outer(fh, sin_y)
        return float(u.min()) - DEFAULT_U_FLOOR

    return brentq(gap, 0.0, 0.05, xtol=1e-15, rtol=1e-15)


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
