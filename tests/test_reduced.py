import numpy as np
import pytest
import sympy as sp
from scipy.linalg import expm

from hodgeflow import forms, reduced
from hodgeflow.errors import CohomologyMismatch, DegenerateForm, NumericalBlowup
from hodgeflow.flows import rk4
from hodgeflow.grid import PeriodicGrid, ScalarField
from hodgeflow.reduced import (ReducedState, embed_ab, embed_product,
                               embed_product_vw, reduced_cfl_dt, rhs_values,
                               run_reduced, step_rk4_reduced)

from conftest import fourier_d2_matrix


# ---------------------------------------------------------------------------
# symbolic oracles for the model right-hand sides

X, Y = sp.symbols("x y", real=True)


def lambdify_on(grid, expr):
    f = sp.lambdify((X, Y)[: grid.rank], expr, "numpy")
    return np.asarray(f(*grid.coordinates()), dtype=float) * np.ones(grid.dims)


def test_fast_diffusion_rhs_symbolic():
    grid = PeriodicGrid((64,))
    u_expr = sp.Rational(3, 2) + sp.sin(X) / 2
    rhs_expr = 2 * sp.diff(sp.sqrt(u_expr), X, 2)
    u = ScalarField(grid, lambdify_on(grid, u_expr))
    got = rhs_values("fast_diffusion", u.values, grid)
    want = lambdify_on(grid, rhs_expr)
    assert np.abs(got - want).max() < 1e-9


def test_inverse_and_log_diffusion_rhs_symbolic():
    grid = PeriodicGrid((64, 64))
    v_expr = 2 + sp.cos(X) * sp.cos(Y) / 2
    v = ScalarField(grid, lambdify_on(grid, v_expr))
    inv_want = lambdify_on(grid, sp.diff(-1 / v_expr, X, 2)
                           + sp.diff(-1 / v_expr, Y, 2))
    log_want = lambdify_on(grid, sp.diff(sp.log(v_expr), X, 2)
                           + sp.diff(sp.log(v_expr), Y, 2))
    inv = rhs_values("inverse_diffusion", v.values, grid)
    log = rhs_values("log_diffusion", v.values, grid)
    assert np.abs(inv - inv_want).max() < 1e-8
    assert np.abs(log - log_want).max() < 1e-8


def test_ab_system_rhs_symbolic():
    grid = PeriodicGrid((48, 48))
    a_expr = sp.sin(X) / 5
    b_expr = sp.sin(Y) / 5 + sp.cos(X) / 10
    u_expr = 1 - sp.diff(a_expr, X) * sp.diff(b_expr, Y) \
        + sp.diff(a_expr, Y) * sp.diff(b_expr, X)
    lap = lambda e: sp.diff(e, X, 2) + sp.diff(e, Y, 2)
    a = ScalarField(grid, lambdify_on(grid, a_expr))
    b = ScalarField(grid, lambdify_on(grid, b_expr))
    ab = np.stack([a.values, b.values])
    u = reduced._shear_u(ab, grid)
    assert np.abs(u - lambdify_on(grid, u_expr)).max() < 1e-11
    ra, rb = rhs_values("ab_system", ab, grid)
    assert np.abs(ra - lambdify_on(grid, lap(a_expr) / sp.sqrt(u_expr))).max() < 1e-9
    assert np.abs(rb - lambdify_on(grid, lap(b_expr) / sp.sqrt(u_expr))).max() < 1e-9


# ---------------------------------------------------------------------------
# state handling and marching

def test_state_validation():
    grid = PeriodicGrid((16,))
    f = ScalarField.constant(grid, 1.0)
    with pytest.raises(ValueError):
        ReducedState("nope", (f,))
    with pytest.raises(ValueError):
        ReducedState("ab_system", (f,))
    with pytest.raises(ValueError):
        ReducedState("heat", (f, f))


def test_positive_models_reject_nonpositive_data():
    grid = PeriodicGrid((16,))
    x = grid.axis_coordinates(0)
    bad = ScalarField(grid, 0.5 + np.sin(x))  # dips negative
    for model in ("fast_diffusion", "inverse_diffusion", "log_diffusion"):
        with pytest.raises(DegenerateForm):
            rhs_values(model, bad.values, grid)


def test_cfl_dt_uses_model_diffusivity():
    grid = PeriodicGrid((32,))
    u = ScalarField.constant(grid, 4.0)
    h = grid.spacings[0]
    # fast diffusion: coefficient 1/sqrt(u) = 1/2
    dt = reduced_cfl_dt(ReducedState("fast_diffusion", (u,)))
    assert dt == pytest.approx(0.25 * h ** 2 / (2 * 1 * 0.5))
    # inverse diffusion: coefficient 1/u^2 = 1/16
    dt = reduced_cfl_dt(ReducedState("inverse_diffusion", (u,)))
    assert dt == pytest.approx(0.25 * h ** 2 / (2 * 1 / 16.0))


def test_heat_march_matches_kernel():
    grid = PeriodicGrid((32,))
    x = grid.axis_coordinates(0)
    f0 = ScalarField(grid, 1.0 + np.sin(x) + 0.3 * np.cos(3 * x))
    t_end = 0.2
    _, final, event = run_reduced(ReducedState("heat", (f0,)), t_end,
                                  sample_every=t_end)
    assert event is None
    want = 1.0 + np.exp(-t_end) * np.sin(x) \
        + 0.3 * np.exp(-9 * t_end) * np.cos(3 * x)
    assert np.abs(final.fields[0].values - want).max() < 1e-8


def test_fast_diffusion_conserves_mass_and_contracts():
    grid = PeriodicGrid((64,))
    x = grid.axis_coordinates(0)
    u0 = ScalarField(grid, 1.0 + 0.5 * np.sin(x))
    traj, final, event = run_reduced(ReducedState("fast_diffusion", (u0,)), 1.0)
    assert event is None
    masses = [r.mass for r in traj]
    assert abs(masses[-1] - masses[0]) < 1e-10 * abs(masses[0])
    mins = [r.minU for r in traj]
    maxs = [r.maxU for r in traj]
    assert all(b >= a - 1e-9 for a, b in zip(mins, mins[1:]))
    assert all(b <= a + 1e-9 for a, b in zip(maxs, maxs[1:]))


def test_rk4_step_hands_its_result_to_the_new_state(monkeypatch):
    # the new state's values are rk4's result, and its field a row of them:
    # no copy of the 131,072-byte result per step
    results = []

    def keeping(*args):
        results.append(rk4(*args))
        return results[-1]

    monkeypatch.setattr(reduced, "rk4", keeping)
    grid = PeriodicGrid((128, 128))
    x, y = grid.coordinates()
    u0 = ScalarField(grid, 1.0 + 0.3 * np.sin(x) * np.cos(y))
    state = ReducedState("fast_diffusion", (u0,))
    new = step_rk4_reduced(state, reduced_cfl_dt(state))
    assert len(results) == 1 and new.values.shape == (1, 128, 128)
    assert np.shares_memory(new.values, results[0])
    assert np.shares_memory(new.fields[0].values, new.values)
    assert new.step == 1 and new.t == new.dt > 0


def test_run_reduced_reports_degeneracy(monkeypatch):
    grid = PeriodicGrid((32,))
    x = grid.axis_coordinates(0)
    v0 = ScalarField(grid, 1.0 + 0.5 * np.sin(x))
    # a floor above the initial minimum trips on the first step
    monkeypatch.setattr(forms, "U_FLOOR", 0.9)
    traj, final, event = run_reduced(ReducedState("fast_diffusion", (v0,)),
                                     1.0)
    assert event is not None and event.cause == "u_floor"


def test_step_rejects_bad_dt():
    for n in (16, 512):  # the dense and the FFT heat step
        grid = PeriodicGrid((n,))
        state = ReducedState("heat", (ScalarField.constant(grid, 1.0),))
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError):
                step_rk4_reduced(state, bad)


# ---------------------------------------------------------------------------
# the heat step as the exact multiplier e^{-dt |k|^2} on the values, against expm(t D2) of the closed-form second-derivative matrix on
# each axis: a semigroup that shares no FFT with the program.  expm's own
# rounding grows with |t D2|: against a long-double direct DFT it is 4e-14 at
# 64 points and t = 1, but 1.5e-13 at 512 points and t = 1e-3 (the program's
# step: 2e-16), so the oracle runs on the smaller grids.

HEAT_GRIDS = [PeriodicGrid((512,)), PeriodicGrid((32, 16), (2 * np.pi, 3.0))]
HEAT_IDS = ["512", "32x16-mixed"]
ORACLE_GRIDS = [PeriodicGrid((64,)), PeriodicGrid((32, 16), (2 * np.pi, 3.0))]
ORACLE_IDS = ["64", "32x16-mixed"]
# a power of two, so 200 steps land exactly on t_end
HEAT_DT = 2.0 ** -16
# up to steps that leave RK4's stability interval [-2.79, 0] far behind:
# dt |k|^2 reaches 1024 at 64 points
ORACLE_DTS = (HEAT_DT, 1e-3, 0.1, 1.0)


def heat_semigroup_oracle(values, grid, t):
    """expm(t D2) applied along each axis: the exact heat flow of the
    sampled trigonometric interpolant."""
    for axis, (n, length) in enumerate(zip(grid.dims, grid.lengths)):
        prop = expm(t * fourier_d2_matrix(n, length))
        values = np.moveaxis(np.tensordot(prop, values, axes=(1, axis)), 0, axis)
    return values


def heat_state(grid, seed=5):
    vals = np.random.default_rng(seed).standard_normal(grid.dims)
    return ReducedState("heat", (ScalarField(grid, vals),))


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_heat_step_is_the_exact_semigroup_at_any_dt(grid):
    state = heat_state(grid)
    scale = np.abs(state.fields[0].values).max()
    for dt in ORACLE_DTS:
        want = heat_semigroup_oracle(state.fields[0].values, grid, dt)
        got = step_rk4_reduced(state, dt).fields[0].values
        assert np.abs(got - want).max() <= 1e-13 * scale, dt


@pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=ORACLE_IDS)
def test_heat_march_steps_from_sample_to_sample(grid):
    state = heat_state(grid)
    traj, final, event = run_reduced(state, 0.05, sample_every=0.01)
    assert event is None and final.step == 5 and len(traj) == 6
    assert max(abs(r.t - 0.01 * i) for i, r in enumerate(traj)) <= 1e-15
    want = heat_semigroup_oracle(state.fields[0].values, grid, 0.05)
    scale = np.abs(state.fields[0].values).max()
    assert np.abs(final.fields[0].values - want).max() <= 1e-13 * scale
    # a march continued from that state keeps to the same sample times
    traj, final, event = run_reduced(final, 0.08, sample_every=0.01)
    assert event is None and final.step == 8 and len(traj) == 4
    assert max(abs(r.t - 0.01 * i) for i, r in enumerate(traj, 5)) <= 1e-15


def test_heat_has_no_step_bound():
    state = heat_state(PeriodicGrid((512,)))
    assert reduced_cfl_dt(state) == np.inf


@pytest.mark.parametrize("grid,want", zip(HEAT_GRIDS, (
    {"rfft": 200, "irfft": 200}, {})), ids=HEAT_IDS)
def test_heat_march_takes_one_transform_pair_per_step_on_long_axes(
        grid, want, monkeypatch):
    # the 512-point axis takes one rfft/irfft pair per step; the dense 32x16
    # grid takes one cached product per axis and no transform at all
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    state = heat_state(grid)
    run_reduced(state, HEAT_DT, fixed_dt=HEAT_DT)  # warm the caches
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
                 "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    traj, final, event = run_reduced(state, 200 * HEAT_DT,
                                     sample_every=50 * HEAT_DT, fixed_dt=HEAT_DT)
    assert event is None and final.step == 200 and len(traj) == 5
    assert calls == want, calls


def test_heat_march_ends_on_the_exact_solution():
    # the benchmark's reduced_heat_512 run at a = 0.5: 1 + a sin x, whose
    # exact heat flow is 1 + a e^-t sin x, in one step per sample
    grid = PeriodicGrid((512,))
    x = grid.axis_coordinates(0)
    a = 0.5
    state = ReducedState("heat", (ScalarField(grid, 1.0 + a * np.sin(x)),))
    _, final, event = run_reduced(state, 0.1, sample_every=0.01)
    assert event is None and final.step == 10 and final.t == 0.1
    want = 1.0 + a * np.exp(-0.1) * np.sin(x)
    assert np.abs(final.fields[0].values - want).max() <= 1e-14


def test_heat_march_at_a_fixed_step_past_rk4_stability_stays_exact():
    # dt |k|^2 = 3.9 at the Nyquist mode, outside RK4's interval [-2.79, 0],
    # where the RK4 factor blew up; the exact step stays on the semigroup
    grid = PeriodicGrid((64,))
    state = heat_state(grid)
    traj, final, event = run_reduced(state, 1.9, sample_every=0.5,
                                     fixed_dt=3.8e-3)
    assert event is None and final.step == 500
    want = heat_semigroup_oracle(state.fields[0].values, grid, final.t)
    assert np.abs(final.fields[0].values - want).max() <= 1e-13 * np.abs(
        state.fields[0].values).max()


def test_heat_march_on_non_finite_data_ends_in_blowup():
    grid = PeriodicGrid((64,))
    vals = np.ones(grid.dims)
    vals[7] = np.inf
    state = ReducedState("heat", (ScalarField(grid, vals),))
    with np.errstate(invalid="ignore"):
        traj, final, event = run_reduced(state, 1.0, sample_every=0.1)
    assert event is not None and event.cause == "blowup"
    assert final is state and event.t == 0.0 and len(traj) == 1


def test_heat_step_rejects_non_finite_data():
    for n in (16, 512):  # the dense and the FFT heat step
        grid = PeriodicGrid((n,))
        vals = np.ones(grid.dims)
        vals[3] = np.nan
        state = ReducedState("heat", (ScalarField(grid, vals),))
        with pytest.raises(NumericalBlowup):
            step_rk4_reduced(state, 1e-3)


# ---------------------------------------------------------------------------
# embeddings

def test_embed_product_structure():
    g2 = PeriodicGrid((16, 16))
    u2 = ScalarField.from_function(g2, lambda x1, x2: 1.0 + 0.3 * np.sin(x1))
    rho = embed_product(u2)
    assert rho.grid.dims == (16, 16, 8, 8)
    u = forms.volume_potential_values(rho)
    assert np.abs(u[:, :, 0, 0] - u2.values).max() < 1e-13
    assert np.abs(rho.comps[1:5]).max() == 0.0


def test_embed_product_requires_unit_mass():
    g2 = PeriodicGrid((16, 16))
    with pytest.raises(CohomologyMismatch):
        embed_product(ScalarField.constant(g2, 1.1))


def test_embed_ab_closed_and_potential():
    from hodgeflow import calculus
    g2 = PeriodicGrid((16, 16))
    a = ScalarField.from_function(g2, lambda x1, x2: 0.1 * np.sin(x1))
    b = ScalarField.from_function(g2, lambda x1, x2: 0.1 * np.sin(x2))
    rho = embed_ab(a, b)
    assert calculus.max_abs_three(calculus.d_two(rho)) < 1e-12
    u = forms.volume_potential_values(rho)
    assert np.abs(u[:, :, 0, 0] - reduced._shear_u(np.stack([a.values, b.values]),
                                                    g2)).max() < 1e-12


def test_embed_product_vw_mass_checks():
    g2 = PeriodicGrid((8, 8))
    good = ScalarField.constant(g2, 1.0)
    with pytest.raises(CohomologyMismatch):
        embed_product_vw(good, ScalarField.constant(g2, 0.9))
    rho = embed_product_vw(good, good)
    assert np.abs(forms.volume_potential_values(rho) - 1.0).max() < 1e-13
