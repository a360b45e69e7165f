"""Acceptance criteria, one test per criterion.

Each test prints a single [pass]/[FAIL] line with the measured values, then
asserts.  The expensive shared run (the 16^4 stability flow) is a
module-scoped fixture.
"""

import numpy as np
import pytest

import conftest

from hodgeflow import calculus, cli, diagnostics, flows, forms, reduced, scenarios, soliton
from hodgeflow.cli import _identity_probe
from hodgeflow.grid import PeriodicGrid, ScalarField, deriv_values, integrate

# the acceptance runs take most of the suite's time: `-m "not slow"` skips them
pytestmark = pytest.mark.slow

GRID16 = PeriodicGrid((16,) * 4)


def report(name, ok, detail):
    line = f"[{'pass' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. algebraic identity suite

def test_criterion_01_algebra_suite():
    worst = {"star": 0.0, "2u": 0.0, "eig": 0.0, "ab": 0.0}
    eye = np.eye(4).reshape(4, 4, 1, 1, 1, 1)
    for seed in range(200):
        rho = scenarios.make_random_near_omega(GRID16, 0.3, band=3, seed=seed)
        star = forms.hodge_star(rho)
        twice = forms.hodge_star(star)
        worst["star"] = max(worst["star"],
                            float(np.abs(twice.comps - rho.comps).max()))
        u = forms.volume_potential_values(rho)
        pair = np.einsum("c...,c...->...", rho.comps, star.comps)
        worst["2u"] = max(worst["2u"], float(np.abs(2 * u - pair).max()))
        lam1, lam2 = forms.eigenvalue_values(rho)
        nsq = forms.norm_sq_values(rho)
        scale = max(float(nsq.max()), 1.0)
        worst["eig"] = max(worst["eig"],
                           float(np.abs(lam1 * lam2 - u).max()) / scale,
                           float(np.abs(lam1 ** 2 + lam2 ** 2 - nsq).max()) / scale)
        a, b = forms.matrix_ab(rho)
        worst["ab"] = max(worst["ab"], float(
            np.abs(a + b - nsq * eye).max()))
    ok = (worst["star"] <= 1e-13 and worst["2u"] <= 1e-12
          and worst["eig"] <= 1e-11 and worst["ab"] <= 1e-12)
    report("criterion-01 algebra-suite", ok,
           f"star={worst['star']:.2e} 2u={worst['2u']:.2e} "
           f"eig={worst['eig']:.2e} a+b={worst['ab']:.2e} over 200 forms")


# ---------------------------------------------------------------------------
# 2. calculus suite

def test_criterion_02_calculus_suite():
    rng = np.random.default_rng(2)
    worst_dd = worst_adj = worst_per = 0.0
    ref = calculus.periods(forms.omega(GRID16))
    for _ in range(20):
        zeta = calculus.OneForm(GRID16, np.stack(
            [scenarios._band_limited_field(rng, GRID16, 3) for _ in range(4)]))
        worst_dd = max(worst_dd, calculus.max_abs_three(
            calculus.d_two(calculus.d_one(zeta))))
        rho = scenarios.make_random_near_omega(
            GRID16, 0.3, band=3, seed=int(rng.integers(1 << 30)))
        lhs = integrate(ScalarField(GRID16, np.einsum(
            "c...,c...->...", calculus.d_one(zeta).comps, rho.comps)))
        rhs = integrate(ScalarField(GRID16, np.einsum(
            "c...,c...->...", zeta.comps, calculus.codiff_two(rho).comps)))
        worst_adj = max(worst_adj,
                        abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
        worst_per = max(worst_per,
                        float(np.abs(calculus.periods(rho) - ref).max()))
    ok = worst_dd <= 1e-12 and worst_adj <= 1e-11 and worst_per <= 1e-11
    report("criterion-02 calculus-suite", ok,
           f"d.d={worst_dd:.2e} adjointness={worst_adj:.2e} "
           f"periods={worst_per:.2e} over 20 probes")


# ---------------------------------------------------------------------------
# 3 & 4. conformal stability run and Q1 decay

@pytest.fixture(scope="module")
def stability_run():
    rho0 = scenarios.make_random_near_omega(GRID16, 0.05, band=4, seed=42)
    return flows.run_flow(rho0, forms.CONFORMAL, 5.0, sample_every=0.1)


def test_criterion_03_conformal_stability(stability_run):
    traj, final, event = stability_run
    e0 = np.array([r.E0 for r in traj])
    monotone = bool(np.all(np.diff(e0) <= 1e-10 * e0[0]))
    pts = [(r.t, r.E0) for r in traj if r.E0 > 0]
    rate, r2 = diagnostics.decay_rate_fit(pts[len(pts) // 2:])
    norm_ratio = float(np.sqrt(e0[-1] / e0[0]))
    drho = max(r.dRhoResidual for r in traj)
    drift = max(r.periodDrift for r in traj)
    mean_u = max(abs(r.meanU - 1.0) for r in traj)
    ok = (event is None and monotone and rate > 0 and r2 > 0.99
          and norm_ratio < 1e-4 and drho < 1e-10 and drift < 1e-10
          and mean_u < 1e-10)
    report("criterion-03 conformal-stability", ok,
           f"monotone={monotone} rate={rate:.3f} r2={r2:.5f} "
           f"norm_ratio={norm_ratio:.2e} drho={drho:.1e} "
           f"periods={drift:.1e} meanU={mean_u:.1e}")


def test_criterion_04_q1_decay(stability_run):
    traj, final, event = stability_run
    q1 = np.array([r.Q1 for r in traj])
    monotone = bool(np.all(np.diff(q1) <= 1e-8 * q1[0]))
    rate, r2 = diagnostics.decay_rate_fit(
        [(r.t, r.Q1) for r in traj][len(traj) // 2:])
    ok = monotone and rate > 0
    report("criterion-04 q1-decay", ok,
           f"monotone={monotone} rate={rate:.3f} r2={r2:.5f} (A1=10)")


# ---------------------------------------------------------------------------
# 5. reduction cross-validation

def test_criterion_05_reduction_cross_validation():
    g2 = PeriodicGrid((16, 16))
    # (i) conformal flow of product data vs the fast-diffusion solver
    u2 = ScalarField.from_function(g2, lambda x1, x2: 1.0 + 0.3 * np.sin(x1))
    rho = reduced.embed_product(u2, dims34=(16, 16))
    _, f4, ev4 = flows.run_flow(rho, forms.CONFORMAL, 0.5, sample_every=0.5)
    _, f2, ev2 = reduced.run_reduced(
        reduced.ReducedState("fast_diffusion", (u2,)), 0.5)
    u4 = forms.volume_potential_values(f4.rho)[:, :, 0, 0]
    disc_i = float(np.abs(u4 - f2.fields[0].values).max() / np.abs(u4).max())

    # (ii) the b/u^2 weight on doubly-product data vs inverse diffusion
    v = ScalarField.from_function(g2, lambda x1, x2: 1.0 + 0.2 * np.sin(x1))
    w = ScalarField.from_function(g2, lambda x3, x4: 1.0 + 0.2 * np.sin(x3))
    rho = reduced.embed_product_vw(v, w)
    _, fb, evb = flows.run_flow(rho, forms.MATRIX_B2, 0.5, sample_every=0.5)
    _, fv, _ = reduced.run_reduced(
        reduced.ReducedState("inverse_diffusion", (v,)), 0.5)
    _, fw, _ = reduced.run_reduced(
        reduced.ReducedState("inverse_diffusion", (w,)), 0.5)
    disc_ii = max(
        float(np.abs(fb.rho.comps[0][:, :, 0, 0] - fv.fields[0].values).max()),
        float(np.abs(fb.rho.comps[5][0, 0, :, :] - fw.fields[0].values).max()))
    off = float(np.abs(fb.rho.comps[1:5]).max())

    # (iii) conformal flow of shear data vs the coupled (a, b) system
    a = ScalarField.from_function(g2, lambda x1, x2: 0.1 * np.sin(x1))
    b = ScalarField.from_function(g2, lambda x1, x2: 0.1 * np.sin(x2))
    rho = reduced.embed_ab(a, b, dims34=(16, 16))
    _, fs, evs = flows.run_flow(rho, forms.CONFORMAL, 0.5, sample_every=0.5)
    _, fab, _ = reduced.run_reduced(
        reduced.ReducedState("ab_system", (a, b)), 0.5)
    fa, fbb = fab.fields
    disc_iii = max(
        float(np.abs(fs.rho.comps[1][:, :, 0, 0]
                     - deriv_values(fa.values, g2, 0)).max()),
        float(np.abs(fs.rho.comps[3][:, :, 0, 0]
                     - deriv_values(fa.values, g2, 1)).max()),
        float(np.abs(fs.rho.comps[2][:, :, 0, 0]
                     - deriv_values(fbb.values, g2, 0)).max()),
        float(np.abs(fs.rho.comps[4][:, :, 0, 0]
                     - deriv_values(fbb.values, g2, 1)).max()))

    ok = (ev4 is None and ev2 is None and evb is None and evs is None
          and disc_i < 1e-6 and disc_ii < 1e-6 and off < 1e-9
          and disc_iii < 1e-6)
    report("criterion-05 reduction-cross-validation", ok,
           f"product={disc_i:.2e} inverse={disc_ii:.2e} off={off:.1e} "
           f"shear={disc_iii:.2e} at t=0.5")


# ---------------------------------------------------------------------------
# 6. finite-time degeneracy of the unweighted flow

def test_criterion_06_degeneracy_example():
    g1 = PeriodicGrid((512,))
    scen = scenarios.make_example_counterexample(g1)

    x = g1.axis_coordinates(0)
    f1 = conftest.counterexample_profile_oracle(x, 1.0, shifted=False)
    h1 = conftest.counterexample_profile_oracle(x, 1.0, shifted=True)
    a_oracle = 1.0 / float(np.abs(f1 * h1).max())
    oracle_rel = abs(a_oracle - scen.threshold) / scen.threshold

    min_u1 = conftest.min_u_direct(scen, 1.0, ny=256)

    rho = scen.two_form(t=0.0, nx=128, ny=16, dims34=(8, 8))
    u0_err = float(np.abs(forms.volume_potential_values(rho) - 1.0).max())
    traj, final, event = flows.run_flow(rho, forms.LINEAR, 1.0,
                                        sample_every=0.05)
    degenerated = event is not None and event.cause == "u_floor" and event.t < 1.0
    t_oracle = conftest.degeneracy_time_oracle(scen.A0, 128, 16)
    t_gap = abs(event.t - t_oracle) if degenerated else np.inf
    above_floor = degenerated and event.min_u >= forms.U_FLOOR

    flat = scenarios.CounterexampleScenario(g1, A0=0.0,
                                            threshold=scen.threshold)
    rho0 = flat.two_form(t=0.0, nx=64, ny=8, dims34=(8, 8))
    traj0, _, event0 = flows.run_flow(rho0, forms.LINEAR, 0.05,
                                      sample_every=0.01)
    stays_flat = event0 is None and all(
        abs(r.minU - 1.0) < 1e-8 and abs(r.maxU - 1.0) < 1e-8 for r in traj0)

    ok = (oracle_rel < 1e-4 and min_u1 < 0.0 and u0_err < 1e-10
          and degenerated and t_gap <= 1e-8 and above_floor and stays_flat)
    report("criterion-06 degeneracy-example", ok,
           f"A={scen.threshold:.4f} oracle_rel={oracle_rel:.2e} "
           f"min_u(1)={min_u1:.3f} u0_err={u0_err:.1e} "
           f"event_t={getattr(event, 't', None)} (oracle {t_oracle!r}, "
           f"gap {t_gap:.1e}) flat_at_zero={stays_flat}")


# ---------------------------------------------------------------------------
# 7. fast-diffusion properties

def _fast_diffusion_oracle_1d(u0, t_end):
    """u_t = 2 (sqrt u)_xx on the circle by Fourier collocation and an
    implicit Radau solve: shares neither stepper nor FFT with hodgeflow."""
    from scipy.integrate import solve_ivp

    d2 = conftest.fourier_d2_matrix(u0.size)
    sol = solve_ivp(lambda t, u: 2.0 * (d2 @ np.sqrt(u)), (0.0, t_end), u0,
                    method="Radau", rtol=1e-11, atol=1e-13,
                    jac=lambda t, u: d2 / np.sqrt(u)[None, :])
    assert sol.success, sol.message
    return sol.y[:, -1]


def test_criterion_07_fast_diffusion(monkeypatch):
    g = PeriodicGrid((128, 128))
    u0 = ScalarField.from_function(g, lambda x1, x2: 1.0 + 0.5 * np.sin(x1))

    def l2_dist_to_one(values):
        return np.sqrt(integrate(ScalarField(g, (values - 1.0) ** 2)))

    # ||u - 1||_2 at every sample: the records carry only mass and extrema,
    # so read the state as each record is made
    sampled = []
    make_record = reduced._record

    def spy(state):
        sampled.append((state.t, l2_dist_to_one(state.fields[0].values)))
        return make_record(state)

    monkeypatch.setattr(reduced, "_record", spy)
    traj, final, event = reduced.run_reduced(
        reduced.ReducedState("fast_diffusion", (u0,)), 2.0, sample_every=0.1)
    assert len(sampled) == len(traj)
    masses = [r.mass for r in traj]
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    mins = [r.minU for r in traj]
    maxs = [r.maxU for r in traj]
    min_up = all(b >= a - 1e-9 for a, b in zip(mins, mins[1:]))
    max_down = all(b <= a + 1e-9 for a, b in zip(maxs, maxs[1:]))
    u_final = final.fields[0].values
    sup = float(np.abs(u_final - 1.0).max())

    # energy decay: d/dt ||u-1||^2 = -2 int u^-1/2 |grad u|^2, the diffusivity
    # u^-1/2 stays >= (max u0)^-1/2 by the maximum principle, u - 1 keeps mean
    # zero (mass is conserved, mean u0 = 1), and the mean-zero Poincare
    # constant of the 2pi-torus is 1
    rate = 1.0 / np.sqrt(float(u0.values.max()))
    l2_0 = sampled[0][1]
    held = sum(l2 <= np.exp(-rate * t) * l2_0 for t, l2 in sampled)
    l2_ratio = sampled[-1][1] / l2_0
    l2_bound = float(np.exp(-rate * final.t))

    oracle = _fast_diffusion_oracle_1d(u0.values[:, 0], final.t)
    oracle_gap = float(np.abs(u_final - oracle[:, None]).max())

    ok = (event is None and drift < 1e-10 and min_up and max_down
          and held == len(sampled) and oracle_gap <= 1e-9)
    report("criterion-07 fast-diffusion", ok,
           f"mass_drift={drift:.1e} min_up={min_up} max_down={max_down} "
           f"sup|u-1|(2)={sup:.7f} (linearized 0.5e^-2={0.5 * np.exp(-2.0):.7f}) "
           f"L2_ratio(2)={l2_ratio:.4f} (bound {l2_bound:.4f}, held at "
           f"{held}/{len(sampled)} samples) oracle_gap={oracle_gap:.1e}")


# ---------------------------------------------------------------------------
# 8. evolution-identity residuals

def test_criterion_08_evolution_residuals():
    results = {}
    for n in (16, 24):
        rho = _identity_probe(PeriodicGrid((n,) * 4))
        for scheme in forms.ALL_SCHEMES:
            quantities = ["rho_sq", "u"]
            if scheme.kind in diagnostics._LAMBDA_SCHEMES:
                quantities += ["lambda1", "lambda2"]
            if scheme.kind in diagnostics._SPLIT_SCHEMES:
                quantities += ["rho_plus_sq", "rho_minus_sq"]
            for q in quantities:
                results[(scheme.kind, q, n)] = diagnostics.evolution_residual(
                    rho, scheme, q)
    worst_fine = 0.0
    worst_pair = None
    all_ok = True
    for (kind, q, n), fine in results.items():
        if n != 24:
            continue
        coarse = results[(kind, q, 16)]
        # shrink is meaningless once the coarse residual reaches rounding
        converged = fine < 1e-7 and (fine < 1e-11 or coarse / fine >= 8.0)
        all_ok = all_ok and converged
        if fine > worst_fine:
            worst_fine = fine
            worst_pair = (kind, q)
    report("criterion-08 evolution-residuals", all_ok,
           f"worst 24^4 residual {worst_fine:.2e} at {worst_pair}; "
           f"{len(results) // 2} scheme/quantity pairs")


# ---------------------------------------------------------------------------
# 9. Poincare ratios

def test_criterion_09_poincare():
    x1 = GRID16.coordinates()[0]
    ratios = {}
    for k in (1, 2):
        zeta = calculus.OneForm.zero(GRID16)
        zeta.comps[2] = 0.05 * np.sin(k * x1) * np.ones(GRID16.dims)
        rho = forms.omega(GRID16) + calculus.d_one(zeta)
        ratios[k] = diagnostics.poincare_ratio(rho)
    worst = 0.0
    for seed in range(50):
        rho = scenarios.make_random_near_omega(GRID16, 0.05, band=3, seed=seed)
        worst = max(worst, diagnostics.poincare_ratio(rho))
    ok = (abs(ratios[1] - 1.0) <= 1e-8 and abs(ratios[2] - 0.25) <= 1e-8
          and worst <= 1.0 + 1e-8)
    report("criterion-09 poincare", ok,
           f"mode1={ratios[1]:.10f} mode2={ratios[2]:.10f} "
           f"max_of_50={worst:.10f}")


# ---------------------------------------------------------------------------
# 10. soliton manufactured solution

def test_criterion_10_soliton():
    g = PeriodicGrid((128, 128))
    a_star = ScalarField.from_function(
        g, lambda x, y: 2.0 + 0.5 * np.cos(x) * np.cos(y))
    v = (1.0, 0.5)
    forcing = soliton.manufactured_forcing(a_star, v)
    start = ScalarField.constant(g, a_star.mean())
    a, res_norm = soliton.solve_soliton(
        soliton.SolitonProblem(start, v, forcing), tol=1e-7)
    err = float(np.abs(a.values - a_star.values).max())
    const_res = float(np.abs(soliton.soliton_residual(
        soliton.SolitonProblem(ScalarField.constant(g, 2.0), v)).values).max())
    ok = err < 1e-6 and const_res < 1e-14
    report("criterion-10 soliton", ok,
           f"recovery_err={err:.2e} residual={res_norm:.2e} "
           f"constant_residual={const_res:.1e}")


# ---------------------------------------------------------------------------
# 11. determinism and persistence

def test_criterion_11_determinism_and_persistence(tmp_path):
    ini = """
[grid]
dims = 8 8 8 8
[flow]
scheme = conformal
t_end = 0.05
sample_every = 0.01
[scenario]
kind = random_near_omega
eps = 0.05
seed = 11
[output]
dir = {out}
"""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.ini"
        cfg.write_text(ini.format(out=out))
        assert cli.main(["flow", str(cfg)]) == cli.EXIT_OK
        outs.append((out / "series.csv").read_bytes())
    identical = outs[0] == outs[1]

    # snapshot resume against the uninterrupted run (fixed step for alignment)
    grid = PeriodicGrid((8,) * 4)
    rho0 = scenarios.make_random_near_omega(grid, 0.1, band=2, seed=12)
    dt = 1e-3
    _, whole, _ = flows.run_flow(rho0, forms.CONFORMAL, 0.2,
                                 sample_every=0.05, fixed_dt=dt)
    _, half, _ = flows.run_flow(rho0, forms.CONFORMAL, 0.1,
                                sample_every=0.05, fixed_dt=dt)
    snap = tmp_path / "mid.nhf"
    cli.snapshot_write(half, snap, scheme_name="conformal")
    resumed_state = cli.snapshot_read(snap)
    _, resumed, _ = flows.run_flow(resumed_state.rho, forms.CONFORMAL, 0.1,
                                   sample_every=0.05, fixed_dt=dt)
    resume_err = float(np.abs(resumed.rho.comps - whole.rho.comps).max())
    ok = identical and resume_err < 1e-12
    report("criterion-11 determinism-persistence", ok,
           f"series_identical={identical} resume_err={resume_err:.1e}")
