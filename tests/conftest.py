import tracemalloc

import numpy as np
import pytest

from hodgeflow import calculus, diagnostics, forms, scenarios
from hodgeflow.forms import COMPONENT_PAIRS, PAIR_INDEX, TwoForm
from hodgeflow.grid import PeriodicGrid, ScalarField, gradient_values, integrate


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


def band_limited_field_oracle(rng, grid, band):
    """One standard normal draw through the full-grid complex `fftn`, masked
    to |k_a| <= band on every axis and to |k|^2 > 1, and back through
    `ifftn`: the composition `scenarios._band_limited_field` prunes."""
    spec = np.fft.fftn(rng.standard_normal(grid.dims))
    ksq = np.zeros(grid.dims)
    for axis in range(grid.rank):
        k = np.fft.fftfreq(grid.dims[axis], 1.0 / grid.dims[axis])
        shape = [1] * grid.rank
        shape[axis] = grid.dims[axis]
        spec = spec * (np.abs(k) <= band).reshape(shape)
        ksq = ksq + (k ** 2).reshape(shape)
    return np.fft.ifftn(spec * (ksq > 1.0)).real


def random_near_omega_oracle(grid, eps, band, seed):
    """omega + d(zeta) with zeta's four components from
    `band_limited_field_oracle` and d from `calculus.d_one` on the grid
    values, scaled and halved as `scenarios.make_random_near_omega` does."""
    rng = np.random.default_rng(seed)
    zeta = calculus.OneForm(grid, np.stack(
        [band_limited_field_oracle(rng, grid, band) for _ in range(4)]))
    dzeta = calculus.d_one(zeta).comps
    scale = eps / float(np.abs(dzeta).max())
    while True:
        rho = TwoForm(grid, forms.omega(grid).comps + scale * dzeta)
        if float(forms.volume_potential_values(rho).min()) > 0.5:
            return rho
        scale *= 0.5


def component(rho, i, j):
    """Entry rho_ij with antisymmetry applied for i > j."""
    if i == j:
        return np.zeros(rho.grid.dims)
    if i < j:
        return rho.comps[PAIR_INDEX[(i, j)]]
    return -rho.comps[PAIR_INDEX[(j, i)]]


def as_skew_matrix(rho):
    """The antisymmetric matrix A with rho = g(A., .), shape (4, 4, *dims):
    the explicit matrix the program only applies to vectors."""
    A = np.zeros((4, 4) + rho.grid.dims)
    for n, (i, j) in enumerate(COMPONENT_PAIRS):
        A[i, j] = rho.comps[n]
        A[j, i] = -rho.comps[n]
    return A


def sd_asd_split(rho):
    """Self-dual and anti-self-dual parts (rho +- *rho) / 2 as forms, so that
    rho = rho+ + rho-: the oracle of the closed form `forms.dual_part_norms`."""
    star = forms.hodge_star(rho)
    return (TwoForm(rho.grid, 0.5 * (rho.comps + star.comps)),
            TwoForm(rho.grid, 0.5 * (rho.comps - star.comps)))


# The record quantities, each from its definition and the full (4, 6, *dims)
# gradient bundle, not from the one streamed pass that make_record makes.

def energy(rho):
    """Hodge energy: integral of |rho|^2."""
    return integrate(forms.norm_sq(rho))


def grad_u(rho):
    """grad u by the product rule on u = rho_12 rho_34 - rho_13 rho_24
    + rho_14 rho_23, with d_j rho from the full gradient bundle."""
    c, D = rho.comps, gradient_values(rho.comps, rho.grid)
    return (D[:, 0] * c[5] + c[0] * D[:, 5] - D[:, 1] * c[4] - c[1] * D[:, 4]
            + D[:, 2] * c[3] + c[2] * D[:, 3])


def grad_log_u_sup(rho):
    """sup over the grid of |grad u| / u; DegenerateForm at the floor."""
    u = forms.volume_potential_values(rho)
    forms.require_above_floor(u)
    return float((np.sqrt((grad_u(rho) ** 2).sum(axis=0)) / u).max())


def shi_monitor(rho, a, b):
    """f = |grad rho|^2 + a |grad u|^2 + b |rho|^2 + 1 (>= 1 pointwise)."""
    return (calculus.grad_norm_sq(rho).values
            + a * (grad_u(rho) ** 2).sum(axis=0)
            + b * forms.norm_sq_values(rho) + 1.0)


def q1_functional(rho, a1):
    """int |d* rho|^2 + a1 * int |rho - omega|^2."""
    xi = calculus.codiff_two(rho).comps
    return (integrate(ScalarField(rho.grid, (xi ** 2).sum(axis=0)))
            + a1 * diagnostics.normalized_energy(rho))


def counterexample_series(terms: int = 200):
    """Exact Fourier data of the two profiles: (sin-2 weight, cos-k weights).

    profile(x, t) = w2 e^{-4t} sin 2x + sum_k c_k e^{-k^2 t} cos kx with
    c_k = 4 / (pi (k^2 - 4)) over odd k; the complementary profile flips the
    sign of every odd cosine weight.
    """
    ks = np.arange(1, terms + 1, 2)
    return 0.5, ks, 4.0 / (np.pi * (ks ** 2 - 4.0))


def counterexample_profile_oracle(x: np.ndarray, t: float, shifted: bool,
                                  terms: int = 200) -> np.ndarray:
    w2, ks, cs = counterexample_series(terms)
    sign = -1.0 if shifted else 1.0
    out = w2 * np.exp(-4.0 * t) * np.sin(2.0 * x)
    out = out + sign * np.einsum(
        "k,kx->x", cs * np.exp(-ks.astype(float) ** 2 * t),
        np.cos(np.outer(ks, x)))
    return out


def transverse_profile(scen, y, t):
    """c(y, t) = A0 e^-t sin y of a CounterexampleScenario."""
    return scen.A0 * np.exp(-t) * np.sin(y)


def min_u_direct(scen, t, ny=64):
    """min over the (x, y) grid of 1 - f h c, straight from the profiles."""
    f, h = scenarios.counterexample_profiles(scen.grid1d, t)
    y = np.arange(ny) * 2.0 * np.pi / ny
    u = 1.0 - np.outer(f.values * h.values, transverse_profile(scen, y, t))
    return float(u.min())


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
        return float(u.min()) - forms.U_FLOOR

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
