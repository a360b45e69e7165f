import tracemalloc

import numpy as np
import pytest

from hodgeflow import calculus, diagnostics, forms, scenarios
from hodgeflow.errors import BadSeries
from hodgeflow.forms import COMPONENT_PAIRS, PAIR_INDEX, TwoForm
from hodgeflow.grid import (PeriodicGrid, ScalarField, deriv_values,
                           gradient_values, integrate)


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


def explicit_gram(rho, star=False):
    """a = R R^T, or b = S S^T with S the skew matrix of *rho, by einsum."""
    M = as_skew_matrix(forms.hodge_star(rho) if star else rho)
    return np.einsum("ip...,jp...->ij...", M, M)


def explicit_weight_h(rho, scheme):
    """The weight h of a scheme as a (4, 4, *dims) array, from its definition:
    f I for the scalar weights, a or b over u or u^2, and sqrt(b) / u with
    sqrt(b) = (u I + b) / (lambda1 + lambda2), where (lambda1 + lambda2)^2 =
    |rho|^2 + 2u.  The oracle of `forms.weight_apply`; no floor check."""
    c = rho.comps
    u = c[0] * c[5] - c[1] * c[4] + c[2] * c[3]
    eye = np.eye(4).reshape((4, 4) + (1,) * rho.grid.rank)
    rho_sq = (c ** 2).sum(axis=0)
    if scheme.kind == "linear":
        return eye * np.ones_like(u)
    if scheme.kind == "power_u":
        return eye * u ** -scheme.r
    if scheme.kind == "norm_ratio":
        return eye * (rho_sq / u)
    if scheme.kind == "matrix_bh":
        return (u * eye + explicit_gram(rho, True)) / (np.sqrt(rho_sq + 2 * u) * u)
    gram = explicit_gram(rho, scheme.kind in ("matrix_b1", "matrix_b2"))
    return gram / u ** (1 if scheme.kind in ("matrix_a1", "matrix_b1") else 2)


def bundle_axis_sums(count, terms, comps, grid):
    """The per-axis bundle route that `calculus._axis_sums` streams: per
    axis a, one deriv_values call on the stacked sources of that axis's
    terms, then each term added to, subtracted from or, at a target's first
    term, copied or negated into its target, in the order of the terms."""
    out, filled = np.empty((count,) + grid.dims), set()
    for a, axis_terms in enumerate(terms):
        src = [s for s, _, _ in axis_terms]
        Da = dict(zip(src, deriv_values(comps[src], grid, a)))
        for s, t, plus in axis_terms:
            if t in filled:
                (np.add if plus else np.subtract)(out[t], Da[s], out=out[t])
            else:
                out[t] = Da[s] if plus else -Da[s]
                filled.add(t)
    return out


def skew_apply_zeros(comps, v, terms):
    """M v pointwise for the skew matrix M read from `comps` through the
    (i, j, source, plus) `terms` of `forms`, summed from zeros: every term
    made in one scratch field and added to or subtracted from its target.
    The oracle of `forms._skew_signed`, which writes each target's first
    term straight into it and tracks its sign instead."""
    out = np.zeros_like(v)
    term = np.empty_like(v[0])
    for i, j, src, plus in terms:
        np.multiply(comps[src], v[j], out=term)
        (np.add if plus else np.subtract)(out[i], term, out=out[i])
        np.multiply(comps[src], v[i], out=term)
        (np.subtract if plus else np.add)(out[j], term, out=out[j])
    return out


def weight_apply_oracle(rho, scheme, xi):
    """h xi composed slab by slab from `skew_apply_zeros`, each slab's
    result in a new array: twice = X(X xi) = -(a or b) xi, divided by -u or
    -u^2, or (u xi - twice) / ((lambda1 + lambda2) u) for sqrt(b) / u.  The
    scalar weights multiply xi by `forms.scalar_weight_values`."""
    if scheme.is_scalar:
        return forms.scalar_weight_values(rho, scheme) * xi
    u = forms.volume_potential_values(rho)
    terms = (forms._SKEW_TERMS if scheme.kind in ("matrix_a1", "matrix_a2")
             else forms._STAR_SKEW_TERMS)
    if scheme.kind == "matrix_bh":
        lam1, lam2 = forms.eigenvalue_values(rho)
        scale = np.maximum(lam1 + lam2, forms.EIG_EPS) * u
    else:
        scale = -u if scheme.kind in ("matrix_a1", "matrix_b1") else -(u * u)
    out = np.empty_like(xi)
    for k in range(xi.shape[1]):
        v, slab = xi[:, k], rho.comps[:, k]
        twice = skew_apply_zeros(slab, skew_apply_zeros(slab, v, terms), terms)
        if scheme.kind == "matrix_bh":
            twice = u[k] * v - twice
        np.divide(twice, scale[k], out=out[:, k])
    return out


def isotopy_path(theta, s):
    """omega + s * d(theta) for s in [0, 1]; DegenerateForm at the floor."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("path parameter s must lie in [0, 1]")
    rho = TwoForm(theta.grid,
                  forms.omega(theta.grid).comps + s * calculus.d_one(theta).comps)
    forms.require_above_floor(forms.volume_potential_values(rho),
                              f"u on the path at s = {s}")
    return rho


def isotopy_min_u(theta, samples=11):
    """min u along the sampled path s = 0 .. 1."""
    base, dtheta = forms.omega(theta.grid).comps, calculus.d_one(theta).comps
    mins = [forms.volume_potential_values(TwoForm(theta.grid, base + s * dtheta)).min()
            for s in np.linspace(0.0, 1.0, samples)]
    return np.array(mins, dtype=float)


def sobolev_poincare_ratio(rho):
    """int |rho - omega|^2 / (int |d* rho|^{4/3})^{3/2}."""
    num = diagnostics.normalized_energy(rho)
    xi = calculus.codiff_two(rho)
    mag = np.sqrt(forms.dot(xi.comps, xi.comps))
    den = integrate(ScalarField(rho.grid, mag ** (4.0 / 3.0))) ** 1.5
    if den < 1e-14:
        raise BadSeries(f"coexact 4/3-energy {den:.3g} too small for a ratio")
    return num / den


def jk_quantities(rho, mask_eps):
    """(J, K, valid-mask) of the Kato gap; J, K are zeroed where either dual
    part is tiny."""
    geo = diagnostics._FlowGeometry(rho)
    j, k = geo.jk()
    valid = (geo.sp > mask_eps) & (geo.sm > mask_eps)
    j = np.where(valid, j, 0.0)
    k = np.where(valid, k, 0.0)
    return ScalarField(rho.grid, j), ScalarField(rho.grid, k), valid


def sd_asd_split(rho):
    """Self-dual and anti-self-dual parts (rho +- *rho) / 2 as forms, so that
    rho = rho+ + rho-: the oracle of the closed form `forms.dual_part_norms`."""
    star = forms.hodge_star(rho)
    return (TwoForm(rho.grid, 0.5 * (rho.comps + star.comps)),
            TwoForm(rho.grid, 0.5 * (rho.comps - star.comps)))


# The record quantities, each from its definition and the full (4, 6, *dims)
# gradient bundle, not from the one streamed pass that make_record makes.

def norm_sq(rho):
    """|rho|^2 as a field, one contraction over the components: the oracle
    of `diagnostics.normalized_energy`'s sum of squares in component order."""
    return ScalarField(rho.grid, forms.norm_sq_values(rho))


def energy(rho):
    """Hodge energy: integral of |rho|^2."""
    return integrate(norm_sq(rho))


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
