import numpy as np
import pytest

from hodgeflow import calculus, forms
from hodgeflow.calculus import OneForm
from hodgeflow.errors import DegenerateForm
from hodgeflow.grid import PeriodicGrid
from hodgeflow.scenarios import (CounterexampleScenario, counterexample_profiles,
                                 make_example_counterexample,
                                 make_random_near_omega, _antiderivative_1d,
                                 _band_limited_field, _sample_f0, _sample_h0)

from conftest import (band_limited_field_oracle, counterexample_profile_oracle,
                      counterexample_series, isotopy_min_u, isotopy_path,
                      min_u_direct, random_near_omega_oracle)


def test_random_near_omega_properties(grid8):
    rho = make_random_near_omega(grid8, 0.1, band=3, seed=4)
    pert = rho.comps - forms.omega(grid8).comps
    assert np.abs(pert).max() == pytest.approx(0.1, rel=1e-12)
    assert calculus.max_abs_three(calculus.d_two(rho)) < 1e-12
    assert forms.volume_potential_values(rho).min() > 0.5
    again = make_random_near_omega(grid8, 0.1, band=3, seed=4)
    assert np.abs(again.comps - rho.comps).max() == 0.0  # deterministic
    other = make_random_near_omega(grid8, 0.1, band=3, seed=5)
    assert np.abs(other.comps - rho.comps).max() > 1e-3


@pytest.mark.parametrize("dims,lengths,band,eps", [
    ((8,) * 4, (), 3, 0.05),
    ((16,) * 4, (), 1, 0.05),
    ((16,) * 4, (), 3, 3.0),
    ((8, 12, 8, 10), (1.0, 2.0, 3.0, 4.0), 3, 0.05),
], ids=["8-band3-widest", "16-band1", "16-band3-halved", "8x12x8x10-lengths"])
def test_random_near_omega_matches_the_full_grid_oracle(dims, lengths, band, eps):
    # the pruned build against full-grid fftn/ifftn and a d_one pass on the
    # values; band 3 is the widest an 8-point axis holds, and eps 3 makes
    # make_random_near_omega halve its scale
    grid = PeriodicGrid(dims, lengths)
    rho = make_random_near_omega(grid, eps, band=band, seed=42)
    want = random_near_omega_oracle(grid, eps, band, 42)
    assert np.abs(rho.comps - want.comps).max() <= 1e-14
    again = make_random_near_omega(grid, eps, band=band, seed=42)
    assert again.comps.tobytes() == rho.comps.tobytes()
    field = _band_limited_field(np.random.default_rng(7), grid, band)
    ref = band_limited_field_oracle(np.random.default_rng(7), grid, band)
    assert np.abs(field - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("dims,band", [((8,) * 4, 4), ((8, 12, 8, 10), 5),
                                       ((10,), 5), ((8, 12), 5), ((12, 8), 6)],
                         ids=["8-band4", "8x12x8x10-band5", "10-band5",
                              "8x12-band5", "12x8-band6"])
def test_band_limited_field_matches_the_oracle_with_nyquist_rows_in_the_band(
        dims, band):
    # the pruned pair also holds when an axis's Nyquist row falls inside the
    # band, which random data refuse: on the 8- and 10-point axes here, on
    # the last (rfft) axis of 8x12x8x10, 10 and 12x8, and on the first axis
    # of 8x12 and 12x8
    grid = PeriodicGrid(dims)
    field = _band_limited_field(np.random.default_rng(7), grid, band)
    ref = band_limited_field_oracle(np.random.default_rng(7), grid, band)
    assert np.abs(field - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("dims,band", [((8,) * 4, 4), ((8,) * 4, 10),
                                       ((8, 12, 8, 10), 5)],
                         ids=["8-band4", "8-band10", "8x12x8x10-band5"])
def test_random_near_omega_rejects_a_band_the_grid_cannot_hold(dims, band):
    # a band above n/2 - 1 on the shortest axis takes in the Nyquist rows:
    # band 10 on 8^4 was full-spectrum noise
    with pytest.raises(ValueError, match="band"):
        make_random_near_omega(PeriodicGrid(dims), 0.05, band=band, seed=1)


@pytest.mark.parametrize("eps,band", [(np.nan, 3), (np.inf, 3), (0.05, 0)],
                         ids=["eps-nan", "eps-inf", "band-0"])
def test_random_near_omega_rejects_a_non_finite_eps_or_an_empty_band(
        grid8, eps, band):
    # a NaN or infinite scale is halved forever, and band 0 leaves no mode
    # (band 3 is the widest 8^4 holds, so only eps is at fault in the others)
    with pytest.raises(ValueError, match="eps" if band else "band"):
        make_random_near_omega(grid8, eps, band=band)


def test_warm_random_data_make_no_transform(monkeypatch):
    # the band matrices and wavenumber tables are cached, so a second build
    # on the same grid and band reads no np.fft function at all
    grid = PeriodicGrid((16,) * 4)
    make_random_near_omega(grid, 0.05, band=4, seed=1)
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    rho = make_random_near_omega(grid, 0.05, band=4, seed=2)
    assert calls == []
    assert rho.comps.tobytes() == make_random_near_omega(
        grid, 0.05, band=4, seed=2).comps.tobytes()


def test_random_near_omega_spectral_gap(grid8):
    # perturbations carry no |k|^2 <= 1 content, so the linearized flows
    # contract them at rate at least 2
    rho = make_random_near_omega(grid8, 0.1, band=3, seed=1)
    pert = rho.comps - forms.omega(grid8).comps
    spec = np.fft.fftn(pert, axes=(1, 2, 3, 4))
    ksq = np.zeros(grid8.dims)
    for axis in range(4):
        k = np.fft.fftfreq(8, 1.0 / 8)
        shape = [1] * 4
        shape[axis] = 8
        ksq = ksq + (k ** 2).reshape(shape)
    assert np.abs(spec[:, ksq <= 1.0]).max() < 1e-10 * np.abs(spec).max()


def test_zero_amplitude_returns_reference(grid8):
    rho = make_random_near_omega(grid8, 0.0)
    assert np.abs(rho.comps - forms.omega(grid8).comps).max() == 0.0


def test_isotopy_path(grid8):
    x1 = grid8.coordinates()[0]
    theta = OneForm.zero(grid8)
    theta.comps[2] = 0.1 * np.sin(x1) * np.ones(grid8.dims)
    mid = isotopy_path(theta, 0.5)
    assert forms.volume_potential_values(mid).min() > 0.0
    with pytest.raises(ValueError):
        isotopy_path(theta, 1.5)
    mins = isotopy_min_u(theta, samples=5)
    assert len(mins) == 5 and mins[0] == pytest.approx(1.0)


def test_isotopy_path_raises_at_a_degenerate_s(grid8, monkeypatch):
    # d(theta) adds 2 cos x1 to rho_12, so u = 1 + 2 s cos x1 on the path
    x1 = grid8.coordinates()[0]
    theta = OneForm.zero(grid8)
    theta.comps[1] = 2.0 * np.sin(x1) * np.ones(grid8.dims)
    assert forms.volume_potential_values(isotopy_path(theta, 0.25)).min() \
        == pytest.approx(0.5)
    with pytest.raises(DegenerateForm):
        isotopy_path(theta, 1.0)
    monkeypatch.setattr(forms, "U_FLOOR", 0.6)
    with pytest.raises(DegenerateForm):  # the floor is read at call time
        isotopy_path(theta, 0.25)


# ---------------------------------------------------------------------------
# the degeneracy counterexample

GRID1D = PeriodicGrid((512,))


def test_profiles_have_disjoint_support():
    f0 = _sample_f0(GRID1D)
    h0 = _sample_h0(GRID1D)
    assert np.abs(f0 * h0).max() == 0.0
    x = GRID1D.axis_coordinates(0)
    inner = x >= np.pi
    assert np.abs(f0[inner] - np.sin(2 * x[inner])).max() < 1e-15
    assert np.abs(h0[inner]).max() == 0.0


def test_sampled_profile_has_no_mean_or_nyquist():
    # this is what makes the antiderivative embedding exact at the nodes
    for vals in (_sample_f0(GRID1D), _sample_h0(GRID1D)):
        spec = np.fft.fft(vals)
        assert abs(spec[0]) < 1e-12
        assert abs(spec[256]) < 1e-12


def test_antiderivative_roundtrip():
    from hodgeflow.grid import deriv_values
    f0 = _sample_f0(GRID1D)
    anti = _antiderivative_1d(f0, GRID1D)
    back = deriv_values(anti, GRID1D, 0)
    assert np.abs(back - f0).max() < 1e-11


def test_profiles_match_fourier_oracle():
    x = GRID1D.axis_coordinates(0)
    # exact at t = 0 up to series truncation
    f0 = counterexample_profile_oracle(x, 0.0, shifted=False, terms=4000)
    assert np.abs(f0 - _sample_f0(GRID1D)).max() < 1e-3
    # heat-marched profiles agree with the evolved series at t > 0 up to the
    # aliasing of the sampled interpolant's low-mode coefficients (~1e-5 at
    # 512 points; the series is the continuum object)
    f, h = counterexample_profiles(GRID1D, 0.3)
    assert np.abs(f.values
                  - counterexample_profile_oracle(x, 0.3, False)).max() < 5e-5
    assert np.abs(h.values
                  - counterexample_profile_oracle(x, 0.3, True)).max() < 5e-5


def _heat_kernel_1d(values: np.ndarray, grid1d: PeriodicGrid, t: float) -> np.ndarray:
    k = np.fft.fftfreq(grid1d.dims[0], 1.0 / grid1d.dims[0]) \
        * (2.0 * np.pi / grid1d.lengths[0])
    return np.fft.ifft(np.fft.fft(values) * np.exp(-k ** 2 * t)).real


def test_profiles_solver_vs_kernel():
    # the evolved profiles against the spectral heat kernel, which is exact
    # for the sampled interpolant: one exact step lands on it to rounding
    f, h = counterexample_profiles(GRID1D, 0.25)
    for marched, initial in ((f, _sample_f0(GRID1D)), (h, _sample_h0(GRID1D))):
        kernel = _heat_kernel_1d(initial, GRID1D, 0.25)
        assert np.abs(marched.values - kernel).max() < 1e-14


def test_series_weights():
    w2, ks, cs = counterexample_series(10)
    assert w2 == 0.5
    assert list(ks) == [1, 3, 5, 7, 9]
    assert cs[0] == pytest.approx(4.0 / (np.pi * (1 - 4.0)))


def test_scenario_construction_and_threshold():
    scen = make_example_counterexample(GRID1D)
    assert scen.threshold > 0
    assert scen.A0 == pytest.approx(2.0 * np.e * scen.threshold)
    with pytest.raises(ValueError):
        make_example_counterexample(PeriodicGrid((128,)))


def test_counterexample_set_up_takes_at_most_two_heat_steps_per_profile(
        monkeypatch):
    from hodgeflow import reduced
    steps = []
    step = reduced.step_rk4_reduced

    def counting(state, dt, *args, **kwargs):
        steps.append(dt)
        return step(state, dt, *args, **kwargs)

    monkeypatch.setattr(reduced, "step_rk4_reduced", counting)
    make_example_counterexample(PeriodicGrid((512,)))
    assert 0 < len(steps) <= 4, steps


def test_profiles_are_fresh_on_every_call():
    # nothing is memoized, so a caller may write to the fields it gets
    f, _ = counterexample_profiles(GRID1D, 0.3)
    f.values[:] = 0.0
    again, _ = counterexample_profiles(GRID1D, 0.3)
    assert np.abs(again.values).max() > 0.1


def test_two_form_initially_unit_potential():
    scen = CounterexampleScenario(GRID1D, A0=200.0, threshold=40.0)
    rho = scen.two_form(t=0.0, nx=64, ny=16)
    assert calculus.max_abs_three(calculus.d_two(rho)) < 1e-10
    u = forms.volume_potential_values(rho)
    assert np.abs(u - 1.0).max() < 1e-11
    per = calculus.periods(rho) - calculus.periods(forms.omega(rho.grid))
    assert np.abs(per).max() < 1e-10


def test_min_u_crosses_zero_at_threshold():
    scen = make_example_counterexample(GRID1D)
    over = CounterexampleScenario(GRID1D, 1.05 * np.e * scen.threshold,
                                  scen.threshold)
    under = CounterexampleScenario(GRID1D, 0.95 * np.e * scen.threshold,
                                   scen.threshold)
    assert min_u_direct(over, 1.0, ny=256) < 0.0
    assert min_u_direct(under, 1.0, ny=256) > 0.0


def test_zero_amplitude_scenario_stays_flat():
    scen = CounterexampleScenario(GRID1D, A0=0.0, threshold=40.0)
    rho = scen.two_form(t=0.4, nx=64, ny=8)
    u = forms.volume_potential_values(rho)
    assert np.abs(u - 1.0).max() < 1e-11
