import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from hodgeflow import calculus, flows, forms
from hodgeflow import grid as grid_module
from hodgeflow.diagnostics import make_record
from hodgeflow.errors import NumericalBlowup
from hodgeflow.flows import (FlowState, _check_u, cfl_dt, flow_rhs, march, rk4,
                             run_flow, step_rk4)
from hodgeflow.forms import TwoForm
from hodgeflow.grid import PeriodicGrid, ScalarField, integrate

from conftest import (degeneracy_time_oracle, explicit_weight_h, random_form,
                      traced_peak)


def test_rhs_is_exact_form(grid8):
    # the update is d(sigma), so it is closed and has zero periods
    rho = random_form(grid8, 0.3, seed=1)
    for scheme in forms.ALL_SCHEMES:
        rhs = flow_rhs(rho, scheme)
        assert calculus.max_abs_three(calculus.d_two(rhs)) < 1e-11
        assert np.abs(calculus.periods(rhs)).max() < 1e-12


def test_flow_dissipates_energy(grid8):
    # d/dt int |rho|^2 = -2 int h xi . xi  along the flow, exactly
    rho = random_form(grid8, 0.3, seed=2)
    xi = calculus.codiff_two(rho)
    for scheme in forms.ALL_SCHEMES:
        rhs = flow_rhs(rho, scheme)
        gateaux = 2.0 * integrate(ScalarField(
            grid8 := rho.grid, np.einsum("c...,c...->...", rho.comps, rhs.comps)))
        h = explicit_weight_h(rho, scheme)
        quad = -2.0 * integrate(ScalarField(rho.grid, np.einsum(
            "ik...,i...,k...->...", h, xi.comps, xi.comps)))
        assert gateaux == pytest.approx(quad, rel=1e-12, abs=1e-12)
        assert gateaux <= 1e-12


def test_flow_rhs_builds_no_weight_matrix(grid8, monkeypatch):
    # the flux is matrix-free for every scheme: no explicit (4, 4, *dims) weight
    def refuse(*args, **kwargs):
        raise AssertionError("flow_rhs built an explicit weight matrix")

    rho = random_form(grid8, 0.3, seed=1)
    for name in ("weight_h", "matrix_ab", "_gram_values"):
        monkeypatch.setattr(forms, name, refuse)
    for scheme in forms.ALL_SCHEMES:
        assert np.isfinite(flow_rhs(rho, scheme).comps).all()


def test_matrix_flux_memory_close_to_scalar():
    # the matrix weights peak no higher than 1.5x the conformal scalar weight
    # (holding (4, 4, *dims) weight fields made that about 2.5x)
    grid = PeriodicGrid((16,) * 4)
    rho = random_form(grid, 0.05, band=3, seed=10)

    def peak(scheme):
        flow_rhs(rho, scheme)  # fill the cached spectral symbols first
        tracemalloc.start()
        try:
            flow_rhs(rho, scheme)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    conformal = peak(forms.CONFORMAL)
    matrix = peak(forms.MATRIX_B2)
    assert matrix <= 1.5 * conformal, (matrix, conformal)


def conformal_rhs(rho: TwoForm) -> TwoForm:
    """-d(d* rho / sqrt(u)), written out directly.

    Algebraically identical to flow_rhs with the power_u(1/2) scheme; kept
    as a separate code path for cross-validation.
    """
    u = _check_u(rho)
    xi = calculus.codiff_two(rho)
    sigma = calculus.OneForm(rho.grid, -xi.comps / np.sqrt(u))
    return calculus.d_one(sigma)


def test_conformal_rhs_matches_power_scheme(grid8):
    rho = random_form(grid8, 0.3, seed=3)
    a = conformal_rhs(rho)
    b = flow_rhs(rho, forms.CONFORMAL)
    assert np.abs(a.comps - b.comps).max() < 1e-13 * max(1.0, np.abs(a.comps).max())


def test_linear_flow_is_componentwise_heat():
    # on closed forms the unweighted flow is the heat semigroup, and its
    # step is exact: 50 fixed steps end on the Fourier-kernel solution, to
    # the rounding of values of size 1 once per step
    grid = PeriodicGrid((12,) * 4)
    rho0 = random_form(grid, 0.2, band=2, seed=5)
    t_end = 0.05
    traj, final, event = run_flow(rho0, forms.LINEAR, t_end,
                                  sample_every=t_end, fixed_dt=1e-3)
    assert event is None
    pert = rho0.comps - forms.omega(grid).comps
    spec = np.fft.fftn(pert, axes=(1, 2, 3, 4))
    ksq = np.zeros(grid.dims)
    for axis in range(4):
        k = np.fft.fftfreq(grid.dims[axis], 1.0 / grid.dims[axis])
        shape = [1] * 4
        shape[axis] = grid.dims[axis]
        ksq = ksq + (k ** 2).reshape(shape)
    exact = forms.omega(grid).comps + np.fft.ifftn(
        spec * np.exp(-ksq * t_end), axes=(1, 2, 3, 4)).real
    err = np.abs(final.rho.comps - exact).max()
    assert err < 50 * np.finfo(float).eps
    assert final.step == 50


def test_linear_step_matches_rk4_at_small_dt(grid8):
    # the exact multiplier and the RK4 step of flow_rhs agree to RK4's local
    # error, (dt |k|^2)^5 / 120 ~ 1e-14 at dt = 5e-4.  omega + d(white
    # noise) has Nyquist content on the axes it is not differentiated along,
    # where -dd* and the Laplacian differ
    zeta = calculus.OneForm(grid8, np.random.default_rng(3).standard_normal(
        (4,) + grid8.dims))
    state = FlowState(rho=TwoForm(grid8, forms.omega(grid8).comps
                                  + 0.02 * calculus.d_one(zeta).comps))
    for dt in (1e-4, 5e-4):
        want = step_rk4(state, dt, forms.LINEAR).rho.comps
        got = flows.step_linear(state, dt).rho.comps
        assert np.abs(got - want).max() <= 1e-10, dt


def test_linear_run_steps_on_values_with_no_transform(grid8, monkeypatch):
    # no step bound: one exact step per sample, each a product per axis with
    # the cached exponential, so no transform and no flow_rhs call; the only
    # derivatives are the records' (4 each)
    rho0 = random_form(grid8, 0.2, seed=4)
    run_flow(rho0, forms.LINEAR, 0.05, sample_every=0.01)  # warm the caches
    calls = count_transform_calls(monkeypatch)

    def counting_rhs(*args, **kwargs):
        calls["flow_rhs"] = calls.get("flow_rhs", 0) + 1
        return flow_rhs(*args, **kwargs)
    monkeypatch.setattr(flows, "flow_rhs", counting_rhs)
    traj, final, event = run_flow(rho0, forms.LINEAR, 0.05, sample_every=0.01)
    assert event is None and final.step == 5 and len(traj) == 6
    assert max(abs(r.t - 0.01 * i) for i, r in enumerate(traj)) <= 1e-15
    assert final.t == 0.05
    assert calls == {"deriv_values": 4 * 6}, calls


def test_linear_step_checks_dt_and_finiteness(grid8):
    state = FlowState(rho=forms.omega(grid8))
    for bad in (0.0, -1e-3):
        with pytest.raises(ValueError):
            flows.step_linear(state, bad)
    comps = forms.omega(grid8).comps
    comps[2, 3, 1, 4, 5] = np.inf
    with pytest.raises(NumericalBlowup), np.errstate(invalid="ignore"):
        flows.step_linear(FlowState(rho=TwoForm(grid8, comps)), 1e-3)


def test_march_bisects_an_exact_step_that_meets_the_floor():
    # a toy exact model whose floor check fails from t = 0.3 on: the event
    # and the final state sit on the last passing time, within 1e-10
    from types import SimpleNamespace
    from hodgeflow.errors import DegenerateForm

    def step(st, dt):
        t = st.t + dt
        if t >= 0.3:
            raise DegenerateForm("below the floor")
        return SimpleNamespace(t=t, step=st.step + 1, dt=dt)

    stats = {}
    traj, final, event = flows.march(
        SimpleNamespace(t=0.0, step=0, dt=0.0), step, lambda st: np.inf, 1.0,
        0.25, lambda st: st.t, lambda st: np.array([1.0 - st.t]),
        stats=stats, exact=True)
    assert [r for r in traj] == [0.0, 0.25]
    assert event.cause == "u_floor" and event.t == final.t
    assert 0.3 - 1e-10 <= event.t < 0.3 and final.step == 2
    assert event.min_u == 1.0 - final.t and stats["dt_min"] == final.dt


def test_march_continued_from_t_records_on_the_sample_grid():
    # a march started at t = 0.05 records next at the first step at or past
    # 0.06, not after its first step; steps that are not exact are not
    # clipped to the sample times, only to t_end
    from types import SimpleNamespace

    def step(st, dt):
        return SimpleNamespace(t=st.t + dt, step=st.step + 1, dt=dt)

    traj, final, event = flows.march(
        SimpleNamespace(t=0.05, step=0, dt=0.0), step, lambda st: 0.004,
        0.08, 0.01, lambda st: st.t, lambda st: np.ones(1))
    assert event is None and final.step == 8
    assert traj == pytest.approx([0.05, 0.062, 0.07, 0.08], abs=1e-15)


def test_rk4_temporal_convergence_order():
    grid = PeriodicGrid((8,) * 4)
    rho0 = random_form(grid, 0.25, band=2, seed=6)
    t_end = 0.04

    def final_at(dt):
        _, final, event = run_flow(rho0, forms.CONFORMAL, t_end,
                                   sample_every=t_end, fixed_dt=dt)
        assert event is None
        return final.rho.comps

    ref = final_at(0.0005)
    e1 = np.abs(final_at(0.008) - ref).max()
    e2 = np.abs(final_at(0.004) - ref).max()
    order = np.log2(e1 / e2)
    assert order > 3.5  # classical fourth-order stepping


def test_cfl_dt_scaling(grid8):
    rho = random_form(grid8, 0.2, seed=7)
    h = min(grid8.spacings)
    # radius 1, rank 4
    assert cfl_dt(rho, forms.LINEAR) == pytest.approx(0.25 * h ** 2 / 8.0)


def test_rk4_amplification_on_linear_decay():
    # y' = lam y: one classical RK4 step multiplies y by the degree-4 Taylor
    # polynomial of e^z at z = lam dt
    y0 = np.array([1.0, -2.5, 1e-3])
    for lam, dt in ((-1.0, 0.1), (-7.3, 0.05), (2.0, 0.25), (-40.0, 0.06)):
        z = lam * dt
        amp = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
        got = rk4(y0, lambda y: lam * y, dt)
        assert np.abs(got - amp * y0).max() <= 4e-16 * np.abs(y0).max() * max(1.0, abs(amp))
    for bad in (0.0, -0.1):
        with pytest.raises(ValueError):
            rk4(y0, lambda y: -y, bad)


def test_step_rejects_bad_dt(grid8):
    state = FlowState(rho=forms.omega(grid8))
    with pytest.raises(ValueError):
        step_rk4(state, 0.0, forms.LINEAR)


def test_run_flow_preserves_invariants(grid8):
    rho0 = random_form(grid8, 0.2, seed=8)
    traj, final, event = run_flow(rho0, forms.CONFORMAL, 0.2, sample_every=0.05)
    assert event is None
    energies = [r.E for r in traj]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
    for r in traj:
        assert r.dRhoResidual < 1e-10
        assert r.periodDrift < 1e-12
        assert abs(r.meanU - 1.0) < 1e-12


def test_run_flow_rejects_non_closed(grid8):
    rho = forms.omega(grid8)
    x3 = grid8.coordinates()[2]
    # x3-dependence on the (0,1) component makes d(rho) != 0
    rho.comps[0] = rho.comps[0] + 0.1 * np.sin(x3) * np.ones(grid8.dims)
    with pytest.raises(ValueError):
        run_flow(rho, forms.LINEAR, 0.1, sample_every=0.1)


def test_closedness_is_read_off_the_first_record(grid8, monkeypatch):
    # no d_two runs: a form that is not closed raises before any step, and
    # the first record's dRhoResidual is max |d rho| to the bit
    rho = forms.omega(grid8)
    x3 = grid8.coordinates()[2]
    rho.comps[0] = rho.comps[0] + 0.1 * np.sin(x3) * np.ones(grid8.dims)
    steps = []

    def spy(*args, **kwargs):
        steps.append(args)
        return step_rk4(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("run_flow called d_two")

    monkeypatch.setattr(flows, "step_rk4", spy)
    monkeypatch.setattr(calculus, "d_two", refuse)
    for scheme in (forms.CONFORMAL, forms.MATRIX_B2):
        with pytest.raises(ValueError, match="not closed"):
            run_flow(rho, scheme, 0.1, sample_every=0.1)
    assert steps == []
    monkeypatch.undo()
    record = make_record(rho, 0.0, 0.0, calculus.periods(rho))
    assert record.dRhoResidual == calculus.max_abs_three(calculus.d_two(rho))
    closed = random_form(grid8, 0.05, seed=4)
    assert make_record(closed, 0.0, 0.0, calculus.periods(closed)).dRhoResidual \
        == calculus.max_abs_three(calculus.d_two(closed))


@pytest.mark.parametrize("sample_every", [0.0, -0.1])
def test_run_flow_rejects_nonpositive_sample_every(grid8, sample_every):
    # the sampling cadence never advances otherwise, and the march never ends
    with pytest.raises(ValueError):
        run_flow(forms.omega(grid8), forms.LINEAR, 0.1, sample_every=sample_every)


def test_run_flow_reports_degeneracy():
    # a small copy of the degeneracy scenario: u = 1 initially but the
    # unweighted flow drives it through the floor almost immediately
    from hodgeflow import scenarios
    scen = scenarios.CounterexampleScenario(PeriodicGrid((64,)), A0=300.0,
                                            threshold=1.0)
    rho0 = scen.two_form(t=0.0, ny=8)
    traj, final, event = run_flow(rho0, forms.LINEAR, 0.5, sample_every=0.1)
    assert event is not None
    assert event.cause == "u_floor"
    assert event.t <= 0.5
    assert len(event.location) == 4


def test_linear_run_finds_the_dip_at_a_coarse_sample_cadence():
    # under the linear flow u only dips for a while: A0 e^-t |f h| falls
    # back below 1.  Sampled every 10 time units, the run must still stop at
    # the first crossing instead of stepping over the dip to t = 10
    from hodgeflow import scenarios
    scen = scenarios.make_example_counterexample(PeriodicGrid((512,)))
    rho0 = scen.two_form(t=0.0, nx=64, ny=8, dims34=(8, 8))
    traj, final, event = run_flow(rho0, forms.LINEAR, 500.0, sample_every=10.0)
    assert event is not None and event.cause == "u_floor" and len(traj) == 1
    assert abs(event.t - degeneracy_time_oracle(scen.A0, 64, 8)) <= 1e-8
    assert event.min_u >= forms.U_FLOOR and final.t == event.t


FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
                    "hfft", "ihfft")


def count_transform_calls(monkeypatch) -> dict:
    """A dict that counts, by name, the calls to each numpy.fft entry point
    and to deriv_values from here on."""
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in FFT_ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    original = grid_module.deriv_values
    deriv = counting("deriv_values", original)
    for mod in [m for n, m in sys.modules.items() if n.startswith("hodgeflow")]:
        if getattr(mod, "deriv_values", None) is original:
            monkeypatch.setattr(mod, "deriv_values", deriv)
    return calls


def test_fft_budget_per_rhs_and_record(grid8, monkeypatch):
    # on 8^4 every axis is short (<= DENSE_MAX), so each derivative is one
    # product with the cached differentiation matrix and neither flow_rhs nor
    # make_record runs a transform; the derivative budget is 24 deriv_values
    # calls per flow_rhs (one per term: 12 for d*, 12 for d, each on one
    # component) and 4 per record (one per axis on the whole form)
    calls = count_transform_calls(monkeypatch)
    rho = random_form(grid8, 0.05, band=3, seed=9)
    ref = calculus.periods(rho)
    flow_rhs(rho, forms.CONFORMAL)  # builds the cached matrix if it is cold

    calls.clear()
    flow_rhs(rho, forms.CONFORMAL)
    assert calls == {"deriv_values": 24}, calls

    calls.clear()
    make_record(rho, 0.0, 0.0, ref)
    assert calls == {"deriv_values": 4}, calls


def test_record_hands_u_and_xi_to_the_next_step(grid8, monkeypatch):
    # a record after each of N steps: the first stage of each step takes the
    # d* rho its record folded (12 deriv_values calls fewer per step) and,
    # like the record and cfl_dt, the u of the floor check that accepted the
    # state.  Per step 4 right-hand sides of 24 calls less those 12, and a
    # record of 4; per run the first record (4), whose dRhoResidual is the
    # closedness check (a d_two of its own made 12 more).  Without the
    # handover a run made 100N + 16 deriv_values and 7N + 2 u calls
    rho = random_form(grid8, 0.05, band=3, seed=9)
    run_flow(rho, forms.CONFORMAL, 0.001, 0.001)  # warm the caches
    calls = count_transform_calls(monkeypatch)
    for module, name in ((forms, "volume_potential_values"), (flows, "flow_rhs")):
        original = getattr(module, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    stats = {}
    trajectory, final, event = run_flow(rho, forms.CONFORMAL, 0.05, 1e-4,
                                        stats=stats)
    n = final.step
    assert event is None and n >= 2 and len(trajectory) == n + 1
    assert calls["deriv_values"] == 88 * n + 4, calls
    assert calls["volume_potential_values"] <= 4 * n + 4, calls
    assert calls["flow_rhs"] == 4 * n == stats["rhs_evals"], (calls, stats)


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("scheme", [forms.CONFORMAL, forms.MATRIX_B2,
                                    forms.NORM_RATIO], ids=lambda s: s.kind)
def test_final_state_does_not_depend_on_the_record_cadence(n, scheme):
    # a record after every step hands its d* rho to the next step; with no
    # record in between, each step folds its own: the two must agree to the bit
    rho = random_form(PeriodicGrid((n,) * 4), 0.05, band=3, seed=n)
    t_end = 4.5 * cfl_dt(rho, scheme)
    dense = run_flow(rho, scheme, t_end, t_end / 50)
    sparse = run_flow(rho, scheme, t_end, t_end)
    assert len(dense[0]) == dense[1].step + 1 and len(sparse[0]) == 2
    assert np.array_equal(dense[1].rho.comps, sparse[1].rho.comps)


def test_handover_holds_no_extra_form():
    # at 16^4 a record followed by the step that takes its u and d* rho
    # peaks at 3.36 forms, no more than the step alone; 4.36 while the
    # record held a form of first-sample differences, and keeping d* rho on
    # the state through the whole step read 5.67 when a step alone peaked
    # at 5.0
    grid = PeriodicGrid((16,) * 4)
    rho = random_form(grid, 0.05, band=3, seed=10)
    ref = calculus.periods(rho)

    def record_then_step():
        state = FlowState(rho=rho, u=forms.volume_potential_values(rho))
        state.xi = np.empty((4,) + grid.dims)
        make_record(state.rho, 0.0, 0.0, ref, state.u, state.xi)
        step_rk4(state, 1e-4, forms.CONFORMAL)
    assert traced_peak(record_then_step) <= 3.5 * rho.comps.nbytes


def test_run_flow_memory_in_forms():
    # three matrix_b2 steps at 16^4, a record after each, peak at 4.36 forms
    # while the caller holds the initial form: one RK4 step and that form;
    # a copy of it for the first state peaked at 5.36
    grid = PeriodicGrid((16,) * 4)
    rho = random_form(grid, 0.05, band=3, seed=10)
    dt = cfl_dt(rho, forms.MATRIX_B2)
    peak = traced_peak(lambda: run_flow(rho, forms.MATRIX_B2, 3 * dt, dt,
                                        fixed_dt=dt))
    assert peak <= 4.6 * rho.comps.nbytes


def test_run_flow_frees_the_initial_form_after_the_first_step(monkeypatch):
    # run_flow neither copies the initial form nor keeps it: once the first
    # step has replaced the first state, nothing holds the caller's array
    grid = PeriodicGrid((8,) * 4)
    given = [random_form(grid, 0.05, seed=4)]
    initial = weakref.ref(given[0].comps)
    alive, step = [], flows.step_rk4

    def spy(state, dt, *args):
        alive.append(initial() is not None)
        return step(state, dt, *args)

    monkeypatch.setattr(flows, "step_rk4", spy)
    dt = cfl_dt(given[0], forms.CONFORMAL)
    run_flow(given.pop(), forms.CONFORMAL, 3 * dt, dt, fixed_dt=dt)
    assert alive == [True, False, False]


def test_a_nan_in_u_ends_the_march_in_a_blowup_event(grid8):
    # min u is NaN: the floor check raises NumericalBlowup, where a NaN
    # compared False with the floor and passed as a state above it
    rho = random_form(grid8, 0.05, seed=5)

    def step(state, dt):
        comps = state.rho.comps.copy()
        comps[0, 1, 2, 3, 4] = np.nan
        new = FlowState(rho=TwoForm(grid8, comps), t=state.t + dt,
                        step=state.step + 1, dt=dt)
        _check_u(new.rho)
        return new

    _, final, event = march(FlowState(rho=rho), step, lambda st: 0.01, 0.05,
                            0.01, lambda st: st.t,
                            lambda st: forms.volume_potential_values(st.rho))
    assert event is not None and event.cause == "blowup"
    assert final.step == 0 and event.t == 0.0


def test_final_state_holds_no_handover(grid8):
    # no step follows the last record, so the run returns no d* rho with its
    # final state: the caller writes the series and the snapshot without
    # holding two thirds of a form more
    rho = random_form(grid8, 0.05, band=3, seed=9)
    for sample_every in (1e-4, 0.05):
        final = run_flow(rho, forms.CONFORMAL, 0.05, sample_every)[1]
        assert final.step >= 2 and final.xi is None


@pytest.mark.parametrize("dims", [(8,) * 4, (16, 8, 12, 10)])
def test_random_near_omega_transform_budget(dims, monkeypatch):
    # the data are built on the band cube: each draw and the six components
    # of d zeta take one product per axis with the cached band matrices, and
    # d is ik products on the cube.  Cold, the matrices cost one transform
    # of the identity each: rfft and irfft on the last axis, fft and ifft
    # per other axis length; warm, the build makes no transform.  No
    # n-dimensional transform and no derivative pass runs on the grid
    grid_module._band_matrices.cache_clear()
    calls = count_transform_calls(monkeypatch)
    random_form(PeriodicGrid(dims), 0.05, band=3, seed=9)
    lengths = len(set(dims[:-1]))
    assert calls == {"rfft": 1, "irfft": 1, "fft": lengths,
                     "ifft": lengths}, calls
    calls.clear()
    random_form(PeriodicGrid(dims), 0.05, band=3, seed=10)
    assert calls == {}, calls


def rk4_textbook(y, f, dt):
    """The four stages held at once and combined in one expression: the
    update `rk4` made before it kept a single accumulator."""
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_rk4_is_bitwise_the_textbook_combination():
    # a nonlinear vector ODE (a damped, coupled pendulum chain)
    y0 = np.random.default_rng(5).standard_normal(64)

    def f(y):
        return np.sin(np.roll(y, 1)) - 0.3 * y * np.abs(y) + np.cos(y) ** 3

    for dt in (1e-3, 0.037, 0.25):
        assert np.array_equal(rk4(y0, f, dt), rk4_textbook(y0, f, dt))


def test_rk4_matrix_b2_step_is_bitwise_the_textbook_combination(grid8):
    rho = random_form(grid8, 0.05, band=3, seed=9)
    dt = 0.5 * cfl_dt(rho, forms.MATRIX_B2)
    got = step_rk4(FlowState(rho=rho), dt, forms.MATRIX_B2).rho.comps
    want = rk4_textbook(rho.comps, lambda c: flow_rhs(
        TwoForm(grid8, c), forms.MATRIX_B2).comps, dt)
    assert np.array_equal(got, want)


def test_rk4_leaves_the_state_alone_when_f_returns_its_input():
    # y' = y with f returning its argument, or a view of it: the accumulator
    # must not be the state itself
    y0 = np.array([1.0, -2.0, 0.5])
    dt = 0.1
    for f in (lambda y: y, lambda y: y.reshape(y.shape)):
        y = y0.copy()
        got = rk4(y, f, dt)
        assert np.array_equal(y, y0)
        assert np.array_equal(got, rk4_textbook(y0, f, dt))
        amp = 1.0 + dt + dt ** 2 / 2.0 + dt ** 3 / 6.0 + dt ** 4 / 24.0
        assert np.abs(got - amp * y0).max() <= 4e-16 * np.abs(y0).max() * amp


def _chain(x):
    return np.sin(np.roll(x, 1)) - 0.3 * x * np.abs(x)


def _over_input(x, y):
    if x is y:
        return _chain(x)
    x[...] = _chain(x)
    return x


# what f hands back, given its argument x and the state y, and the same
# right-hand side for the textbook update
RK4_RETURNS = {
    "input": (lambda x, y: x, lambda x: x),
    "view": (lambda x, y: x[:, ::-1][:, ::-1], lambda x: x),
    "y": (lambda x, y: y, None),
    "fresh": (lambda x, y: _chain(x), _chain),
    "over input": (_over_input, _chain),
}


@pytest.mark.parametrize("returns", RK4_RETURNS)
def test_rk4_is_bitwise_the_textbook_combination_whatever_f_returns(returns):
    # rk4 doubles k in place and forms the next stage input in its buffer:
    # the sum must stay the textbook one to the bit when f hands back its
    # argument, a view of it, the state y itself, a new array, or writes its
    # result over its argument (the state excepted, as step_rk4 does)
    given, textbook = RK4_RETURNS[returns]
    y0 = np.random.default_rng(6).standard_normal((3, 40))
    y = y0.copy()
    for dt in (1e-3, 0.037, 0.25):
        want = rk4_textbook(y0, textbook or (lambda x: y0), dt)
        assert np.array_equal(rk4(y, lambda x: given(x, y), dt), want)
        assert np.array_equal(y, y0)


def test_rk4_step_memory_in_forms():
    # at 16^4 one RK4 step peaks at 3.36 forms of memory (conformal and
    # matrix_b2), the u it keeps for the new state included: the sum, the
    # stage input that d then writes over, and d* rho, over which -h d* rho
    # is written, beside y.  With -h d* rho in a buffer of its own and a
    # form of first-sample differences in deriv_values it peaked at 3.83
    # and 3.97, with a new array per stage input at 5.0, and with the
    # textbook storage, k1..k4 held at once, at 7.8
    grid = PeriodicGrid((16,) * 4)
    rho = random_form(grid, 0.05, band=3, seed=10)
    state = FlowState(rho=rho)
    for scheme in (forms.CONFORMAL, forms.MATRIX_B2):
        peak = traced_peak(lambda: step_rk4(state, 1e-4, scheme))
        assert peak <= 3.5 * rho.comps.nbytes, (scheme.kind, peak)
