import numpy as np
import pytest

from hodgeflow import calculus, diagnostics, flows, forms
from hodgeflow.diagnostics import (CSV_COLUMNS, TrajectoryRecord, decay_rate_fit,
                                   evolution_residual, make_record,
                                   normalized_energy, poincare_ratio)
from hodgeflow.errors import (BadSeries, CohomologyMismatch, DegenerateForm,
                             NumericalBlowup)
from hodgeflow.grid import (PeriodicGrid, ScalarField, gradient_values, integrate,
                            laplacian_values)

from conftest import (as_skew_matrix, energy, explicit_weight_h,
                      grad_log_u_sup, jk_quantities, norm_sq, q1_functional,
                      random_form, rel_err, sd_asd_split, shi_monitor,
                      sobolev_poincare_ratio, traced_peak)


def test_energy_of_reference(grid8):
    w = forms.omega(grid8)
    # |omega|^2 = 2 pointwise
    assert energy(w) == pytest.approx(2.0 * grid8.volume, rel=1e-13)


def test_normalized_energy_oracle(grid8):
    grid = grid8
    x1 = grid.coordinates()[0]
    zeta = calculus.OneForm.zero(grid)
    zeta.comps[2] = 0.2 * np.sin(x1) * np.ones(grid.dims)
    rho = forms.omega(grid) + calculus.d_one(zeta)
    # rho - omega has the single component 0.2 cos x1 on the (1,3) pair
    want = 0.04 * 0.5 * grid.volume
    assert normalized_energy(rho) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n,seed", [(8, 42), (12, 7)])
def test_normalized_energy_is_the_difference_oracle_exactly(n, seed):
    grid = PeriodicGrid((n,) * 4, (2 * np.pi, 3.0, 2 * np.pi, 5.0))
    rho = random_form(grid, 0.05, band=3, seed=seed)
    want = integrate(norm_sq(rho - forms.omega(grid)))
    assert normalized_energy(rho) == want


def test_normalized_energy_builds_no_omega():
    # two scalar fields, the sum and one term (0.33 forms); a copy of rho
    # peaked at 1.17, and omega with rho - omega at 2.0
    rho = random_form(PeriodicGrid((16,) * 4), 0.05, band=3, seed=10)
    assert traced_peak(lambda: normalized_energy(rho)) < 0.5 * rho.comps.nbytes


def test_normalized_energy_rejects_wrong_class(grid8):
    with pytest.raises(CohomologyMismatch):
        normalized_energy(1.2 * forms.omega(grid8))
    with pytest.raises(CohomologyMismatch):
        q1_functional(1.2 * forms.omega(grid8), 10.0)


def test_q1_functional_composition(grid8):
    rho = random_form(grid8, 0.2, seed=3)
    xi = calculus.codiff_two(rho)
    from hodgeflow.grid import ScalarField, integrate
    coexact = integrate(ScalarField(grid8, np.einsum(
        "c...,c...->...", xi.comps, xi.comps)))
    assert q1_functional(rho, 7.0) == pytest.approx(
        coexact + 7.0 * normalized_energy(rho), rel=1e-12)


def test_decay_rate_fit_recovers_synthetic_rate():
    t = np.linspace(0.0, 3.0, 40)
    series = list(zip(t, 2.5 * np.exp(-1.7 * t)))
    rate, r2 = decay_rate_fit(series)
    assert rate == pytest.approx(1.7, rel=1e-10)
    assert r2 > 1.0 - 1e-12


def test_decay_rate_fit_validation():
    with pytest.raises(BadSeries):
        decay_rate_fit([(0.0, 1.0)] * 5)
    t = np.linspace(0, 1, 12)
    with pytest.raises(BadSeries):
        decay_rate_fit(list(zip(t, np.linspace(1, -1, 12))))


def test_grad_log_u_sup_oracle():
    grid = PeriodicGrid((16, 8, 8, 8))
    x1 = grid.coordinates()[0]
    rho = forms.omega(grid)
    # closed perturbation: rho_12 += 0.3 cos x1 keeps d rho = 0 and
    # u = 1 + 0.3 cos x1
    rho.comps[0] = rho.comps[0] + 0.3 * np.cos(x1) * np.ones(grid.dims)
    u = 1.0 + 0.3 * np.cos(x1)
    want = float((0.3 * np.abs(np.sin(x1)) / u).max())
    assert grad_log_u_sup(rho) == pytest.approx(want, rel=1e-10)


def test_shi_monitor_floor(grid8):
    rho = random_form(grid8, 0.2, seed=4)
    f = shi_monitor(rho, 10.0, 100.0)
    assert f.min() >= 1.0 + 100.0 * 0.5  # |rho|^2 >= ~2 near the reference


def test_poincare_ratio_modes(grid12):
    grid = grid12
    x1 = grid.coordinates()[0]
    for k, want in ((1, 1.0), (2, 0.25), (3, 1.0 / 9.0)):
        zeta = calculus.OneForm.zero(grid)
        zeta.comps[2] = 0.05 * np.sin(k * x1) * np.ones(grid.dims)
        rho = forms.omega(grid) + calculus.d_one(zeta)
        assert poincare_ratio(rho) == pytest.approx(want, abs=1e-10)


def test_poincare_ratio_bounded_by_one(grid8):
    for seed in range(5):
        rho = random_form(grid8, 0.05, band=3, seed=seed)
        assert poincare_ratio(rho) <= 1.0 + 1e-8


def test_poincare_ratio_rejects_harmonic(grid8):
    with pytest.raises(BadSeries):
        poincare_ratio(forms.omega(grid8))


def test_sobolev_ratio_finite(grid8):
    rho = random_form(grid8, 0.05, seed=2)
    assert sobolev_poincare_ratio(rho) > 0.0


def test_make_record_fields(grid8):
    rho = random_form(grid8, 0.2, seed=5)
    ref = calculus.periods(forms.omega(grid8))
    rec = make_record(rho, 1.5, 0.01, ref)
    assert isinstance(rec, TrajectoryRecord)
    assert rec.t == 1.5 and rec.dt == 0.01
    assert rec.E > 0 and rec.E0 > 0 and rec.minU > 0
    assert rec.minLambda2 <= rec.maxLambda1
    assert CSV_COLUMNS[0] == "t" and len(CSV_COLUMNS) == 14


def test_make_record_nan_on_wrong_class(grid8):
    rho = 1.3 * forms.omega(grid8)
    rec = make_record(rho, 0.0, 0.0, calculus.periods(forms.omega(grid8)))
    assert np.isnan(rec.E0) and np.isnan(rec.Q1)
    assert rec.minU == pytest.approx(1.69)


@pytest.mark.parametrize("scale", [1.0, 1.3], ids=["class-omega", "wrong-class"])
def test_make_record_reads_the_periods_once(grid8, monkeypatch, scale):
    # the class check and periodDrift share one pass over the components
    rho = scale * random_form(grid8, 0.05, band=3, seed=42)
    ref = calculus.periods(forms.omega(grid8))
    want = make_record(rho, 0.0, 0.0, ref)
    calls = []
    periods = calculus.periods

    def counting(form):
        calls.append(form)
        return periods(form)

    monkeypatch.setattr(calculus, "periods", counting)
    rec = make_record(rho, 0.0, 0.0, ref)
    assert len(calls) == 1
    assert np.array([getattr(rec, c) for c in CSV_COLUMNS]).tobytes() == \
        np.array([getattr(want, c) for c in CSV_COLUMNS]).tobytes()


def test_jk_quantities_masking(grid8):
    # the reference form is self-dual, so K's denominator vanishes and the
    # mask must zero it rather than emit NaN
    j, k, valid = jk_quantities(forms.omega(grid8), mask_eps=1e-3)
    assert not valid.any()
    assert np.all(j.values == 0.0) and np.all(k.values == 0.0)


def test_evolution_residual_validation(grid8):
    rho = random_form(grid8, 0.2, seed=6)
    with pytest.raises(ValueError):
        evolution_residual(rho, forms.LINEAR, "nope")
    with pytest.raises(ValueError):
        evolution_residual(rho, forms.MATRIX_BHALF, "lambda1")
    with pytest.raises(ValueError):
        evolution_residual(rho, forms.MATRIX_A1, "rho_plus_sq")


def test_evolution_residual_small_on_probe():
    # full-precision checks at scale live in the acceptance suite; here a
    # coarse grid sanity check that the catalogued identities are wired up
    from hodgeflow.cli import _identity_probe
    rho = _identity_probe(PeriodicGrid((12,) * 4))
    for scheme in (forms.LINEAR, forms.CONFORMAL, forms.MATRIX_B1):
        for q in ("rho_sq", "u"):
            assert evolution_residual(rho, scheme, q) < 5e-3
    assert evolution_residual(rho, forms.LINEAR, "lambda1") < 5e-3
    assert evolution_residual(rho, forms.MATRIX_A2, "lambda2") < 5e-3


def test_evolution_residuals_share_one_geometry_and_one_rhs_per_scheme(
        monkeypatch):
    # the batch gives each single check's residual to the bit, from one
    # geometry of rho and one flow right-hand side per scheme
    from hodgeflow.cli import _identity_probe
    rho = _identity_probe(PeriodicGrid((8,) * 4))
    pairs = [(scheme, q) for scheme in (forms.LINEAR, forms.MATRIX_B2)
             for q in ("rho_sq", "u", "lambda1")] + [(forms.NORM_RATIO, "u")]
    singles = [evolution_residual(rho, scheme, q) for scheme, q in pairs]
    calls = {"geometry": 0, "flow_rhs": 0}
    geometry, flow_rhs = diagnostics._FlowGeometry, flows.flow_rhs

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(diagnostics, "_FlowGeometry",
                        counting("geometry", geometry))
    monkeypatch.setattr(flows, "flow_rhs", counting("flow_rhs", flow_rhs))
    assert diagnostics.evolution_residuals(rho, pairs) == singles
    assert calls == {"geometry": 1, "flow_rhs": 3}
    with pytest.raises(ValueError):
        diagnostics.evolution_residuals(rho, pairs + [(forms.MATRIX_BHALF,
                                                       "lambda1")])
    assert calls == {"geometry": 1, "flow_rhs": 3}  # refused before any work


def _old_record_fields(rho):
    """The record quantities, each from its test-side oracle: the full
    gradient bundle for grad u and |grad rho|^2, codiff_two for Q1."""
    try:
        e0, q1 = normalized_energy(rho), q1_functional(rho, 10.0)
    except CohomologyMismatch:
        e0 = q1 = float("nan")
    try:
        sup = grad_log_u_sup(rho)
    except DegenerateForm:
        sup = float("nan")
    return {"E0": e0, "Q1": q1, "supGradLogU": sup,
            "fMax": shi_monitor(rho, 10.0, 100.0).max(),
            "dRhoResidual": calculus.max_abs_three(calculus.d_two(rho))}


def _assert_record_matches_old(rec, old):
    for name, want in old.items():
        got = getattr(rec, name)
        if np.isnan(want):
            assert np.isnan(got), name
        elif name == "dRhoResidual":  # rounding noise of a closed form
            assert got == pytest.approx(want, abs=1e-14), name
        else:
            assert got == pytest.approx(want, rel=1e-12), name


def test_make_record_matches_old_composition(grid8):
    # criterion-03 initial data, at 8^4 with the widest band it holds (3)
    rho = random_form(grid8, 0.05, band=3, seed=42)
    ref = calculus.periods(rho)
    rec = make_record(rho, 0.0, 0.0, ref)
    _assert_record_matches_old(rec, _old_record_fields(rho))
    assert np.isfinite(rec.E0) and np.isfinite(rec.supGradLogU)


def test_make_record_matches_old_composition_on_nan_paths(grid8, monkeypatch):
    # wrong class: E0 and Q1 are NaN, the rest is still computed
    rho = 1.3 * random_form(grid8, 0.05, band=3, seed=42)
    rec = make_record(rho, 0.0, 0.0, calculus.periods(rho))
    assert np.isnan(rec.E0) and np.isnan(rec.Q1)
    _assert_record_matches_old(rec, _old_record_fields(rho))
    # u at or below the floor: supGradLogU is NaN
    rho = random_form(grid8, 0.05, band=3, seed=42)
    monkeypatch.setattr(forms, "U_FLOOR", 2.0)
    rec = make_record(rho, 0.0, 0.0, calculus.periods(rho))
    assert np.isnan(rec.supGradLogU) and np.isfinite(rec.fMax)
    _assert_record_matches_old(rec, _old_record_fields(rho))


def test_make_record_rejects_non_finite_form(grid8):
    rho = random_form(grid8, 0.05, seed=1)
    rho.comps[2, 1, 2, 3, 4] = np.nan
    with pytest.raises(NumericalBlowup):
        make_record(rho, 0.0, 0.0, calculus.periods(forms.omega(grid8)))


def d_two_stacked(D):
    """(d rho)_m = d_i rho_jk - d_j rho_ik + d_k rho_ij per omitted axis m,
    from the gradient bundle D[j] = d_j rho, stacked as one expression."""
    P = forms.PAIR_INDEX
    return np.stack([D[i, P[(j, k)]] - D[j, P[(i, k)]] + D[k, P[(i, j)]]
                     for (i, j, k) in ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))])


def bundle_make_record(rho, t, dt, ref_periods):
    """make_record as it was built on one (4, 6, *dims) gradient bundle: the
    oracle of the record streamed over the axes."""
    grid = rho.grid
    u = forms.volume_potential_values(rho)
    lam1, lam2 = forms.eigenvalue_values(rho)
    D = gradient_values(rho.comps, grid)
    grad_u = np.einsum("c...,jc...->j...", forms.hodge_star(rho).comps, D)
    try:
        e0 = normalized_energy(rho)
        xi = np.zeros((4,) + grid.dims)
        for a in range(4):
            calculus.add_axis_terms(xi, calculus._CODIFF_TERMS[a], D[a])
        q1 = integrate(ScalarField(grid, np.einsum("c...,c...->...", xi, xi))) \
            + 10.0 * e0
    except CohomologyMismatch:
        e0 = q1 = float("nan")
    grad_u_sq = np.einsum("j...,j...->...", grad_u, grad_u)
    sup = float((np.sqrt(grad_u_sq) / u).max()) if u.min() > forms.U_FLOOR \
        else float("nan")
    shi = (np.einsum("jc...,jc...->...", D, D) + 10.0 * grad_u_sq
           + 100.0 * forms.norm_sq_values(rho) + 1.0)
    per = calculus.periods(rho)
    return TrajectoryRecord(
        t=t, dt=dt, E=energy(rho), E0=e0,
        minU=float(u.min()), maxU=float(u.max()), meanU=float(u.mean()),
        minLambda2=float(lam2.min()), maxLambda1=float(lam1.max()),
        supGradLogU=sup, Q1=q1, fMax=float(shi.max()),
        dRhoResidual=float(np.abs(d_two_stacked(D)).max()),
        periodDrift=float(np.abs(per - ref_periods).max()
                          / max(1.0, float(np.abs(ref_periods).max()))))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("scheme", [forms.CONFORMAL, forms.MATRIX_B2],
                         ids=lambda s: s.kind)
def test_streamed_record_matches_bundle_oracle(n, scheme):
    grid = PeriodicGrid((n,) * 4)
    state = flows.FlowState(rho=random_form(grid, 0.05, band=3, seed=n))
    ref = calculus.periods(forms.omega(grid))
    dt = 0.5 * flows.cfl_dt(state.rho, scheme)
    for _ in range(3):  # the initial data and two RK4 steps of the trajectory
        got = make_record(state.rho, state.t, state.dt, ref)
        want = bundle_make_record(state.rho, state.t, state.dt, ref)
        for name in CSV_COLUMNS:
            g, w = getattr(got, name), getattr(want, name)
            if name in ("dRhoResidual", "periodDrift"):  # rounding residuals
                assert abs(g - w) <= 1e-15, name
            else:
                assert g == pytest.approx(w, rel=1e-13, abs=0.0), name
        state = flows.step_rk4(state, dt, scheme)


def test_d_two_by_axis_terms_is_the_stacked_formula(grid12):
    for seed in (1, 2):
        rho = random_form(grid12, 0.3, seed=seed)
        rho.comps[0] += np.sin(grid12.coordinates()[3]) * np.ones(grid12.dims)  # not closed
        want = d_two_stacked(gradient_values(rho.comps, grid12))
        assert np.abs(want).max() > 0.1
        assert np.array_equal(calculus.d_two(rho).comps, want)


def test_record_and_d_two_hold_no_gradient_bundle():
    # at 16^4: make_record peaks at 3.02 forms (4.19 while deriv_values
    # held a whole form of first-sample differences, grad u four fields and
    # normalized_energy a copy of rho; 5.3 while each D_a was held through
    # the next one's derivative call) and d_two at 1.02; the bundle alone is
    # 4 forms, and with it they peaked at 7.2 and 6.0
    grid = PeriodicGrid((16,) * 4)
    rho = random_form(grid, 0.05, band=3, seed=10)
    ref = calculus.periods(rho)
    form = rho.comps.nbytes
    assert traced_peak(lambda: make_record(rho, 0.0, 0.0, ref)) <= 3.25 * form
    assert traced_peak(lambda: calculus.d_two(rho)) <= 2.0 * form


def split_route_gradients(rho):
    """grad|rho+|, grad|rho-|, |grad rho+|^2 and |grad rho-|^2 from the SD/ASD
    split forms and the bundles d_j(*rho) and d_j rho+-: the oracle of the
    closed forms in the identity geometry."""
    plus, minus = sd_asd_split(rho)
    sp = np.sqrt(forms.norm_sq_values(plus))
    sm = np.sqrt(forms.norm_sq_values(minus))
    Drho = gradient_values(rho.comps, rho.grid)
    star_perm = np.array([5, 4, 3, 2, 1, 0])
    star_sign = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]).reshape((1, 6) + (1,) * 4)
    Dstar = Drho[:, star_perm] * star_sign
    Dplus, Dminus = 0.5 * (Drho + Dstar), 0.5 * (Drho - Dstar)
    return (np.einsum("c...,jc...->j...", plus.comps, Drho) / sp,
            np.einsum("c...,jc...->j...", minus.comps, Drho) / sm,
            np.einsum("jc...,jc...->...", Dplus, Dplus),
            np.einsum("jc...,jc...->...", Dminus, Dminus))


def test_dual_part_gradients_match_split_route_oracle():
    from hodgeflow.cli import _identity_probe
    rho = _identity_probe(PeriodicGrid((12,) * 4))
    geo = diagnostics._FlowGeometry(rho)
    got = (geo.grad_sp, geo.grad_sm, geo.grad_plus_sq, geo.grad_minus_sq)
    for name, g, w in zip(("grad_sp", "grad_sm", "grad_plus_sq", "grad_minus_sq"),
                          got, split_route_gradients(rho)):
        assert rel_err(g, w) < 1e-13, name
    plus, minus = sd_asd_split(rho)
    assert rel_err(geo.sp, np.sqrt(forms.norm_sq_values(plus))) < 1e-15
    assert rel_err(geo.sm, np.sqrt(forms.norm_sq_values(minus))) < 1e-15


def ab_route_weight_grad(geo, scheme):
    """d_j h for the matrix schemes from both a and b and both their 4x4x4
    derivative stacks, with one derivative rule per scheme: the oracle of
    the one power-p rule."""
    rho, u, gu = geo.rho, geo.u, geo.grad_u[:, None, None]
    R, S = as_skew_matrix(rho), as_skew_matrix(forms.hodge_star(rho))
    a, b = (np.einsum("ip...,jp...->ij...", X, X) for X in (R, S))
    D = gradient_values(rho.comps, rho.grid)
    DR = np.stack([as_skew_matrix(forms.TwoForm(rho.grid, Dj)) for Dj in D])
    DS = np.stack([as_skew_matrix(forms.hodge_star(forms.TwoForm(rho.grid, Dj)))
                   for Dj in D])
    Da = (np.einsum("jip...,kp...->jik...", DR, R)
          + np.einsum("ip...,jkp...->jik...", R, DR))
    Db = (np.einsum("jip...,kp...->jik...", DS, S)
          + np.einsum("ip...,jkp...->jik...", S, DS))
    if scheme.kind == "matrix_a1":
        return (Da * u - a[None] * gu) / u ** 2
    if scheme.kind == "matrix_a2":
        return Da / u ** 2 - 2.0 * a[None] * gu / u ** 3
    if scheme.kind == "matrix_b1":
        return (Db * u - b[None] * gu) / u ** 2
    if scheme.kind == "matrix_b2":
        return Db / u ** 2 - 2.0 * b[None] * gu / u ** 3
    eye = np.eye(4).reshape(4, 4, 1, 1, 1, 1)
    trace = geo.lam1 + geo.lam2
    gtrace = (geo.grad_lam1 + geo.grad_lam2)[:, None, None]
    sqrtb = (u * eye + b) / trace
    Dsqrtb = (gu * eye[None] + Db) / trace - sqrtb[None] * gtrace / trace
    return (Dsqrtb * u - sqrtb[None] * gu) / u ** 2


def explicit_weight_grad(geo, scheme):
    """d_j h as a (4, 4, 4, *dims) stack, derivative axis first."""
    if scheme.is_scalar:
        eye = np.eye(4).reshape((1, 4, 4) + (1,) * 4)
        return geo.scalar_weight_grad(scheme)[:, None, None] * eye
    return ab_route_weight_grad(geo, scheme)


@pytest.mark.parametrize("scheme", forms.ALL_SCHEMES, ids=lambda s: s.kind)
def test_matrix_weight_grad_matches_ab_route_oracle(scheme):
    # (d_j h) v applied axis by axis against the oracle stack contracted with v
    from hodgeflow.cli import _identity_probe
    rho = _identity_probe(PeriodicGrid((8,) * 4))
    geo = diagnostics._FlowGeometry(rho)
    v = np.random.default_rng(5).standard_normal((4,) + rho.grid.dims)
    for vec in (geo.xi, v):
        got = np.stack(list(geo.weight_grad_apply(scheme, vec)))
        want = np.einsum("jik...,k...->ji...", explicit_weight_grad(geo, scheme), vec)
        assert rel_err(got, want) < 1e-13


def explicit_rhs_general(geo, scheme, quantity):
    """The weight-matrix identity for |rho|^2 and u as full-matrix index sums
    over the explicit skew matrices, h and the d_j h stack: the oracle of the
    matrix-free route."""
    rho = geo.rho
    X = as_skew_matrix(rho if quantity == "rho_sq" else forms.hodge_star(rho))
    lapR = as_skew_matrix(
        forms.TwoForm(rho.grid, laplacian_values(rho.comps, rho.grid)))
    first = np.einsum("ij...,ik...,kj...->...", X, explicit_weight_h(rho, scheme), lapR)
    second = np.einsum("ij...,jik...,k...->...", X,
                       explicit_weight_grad(geo, scheme), geo.xi)
    if quantity == "rho_sq":
        return first + 2.0 * second
    return 0.5 * first + second


@pytest.mark.parametrize("quantity", ["rho_sq", "u"])
@pytest.mark.parametrize("scheme", forms.ALL_SCHEMES, ids=lambda s: s.kind)
def test_matrix_free_identity_matches_explicit_oracle(scheme, quantity):
    from hodgeflow.cli import _identity_probe
    rho = _identity_probe(PeriodicGrid((8,) * 4))
    geo = diagnostics._FlowGeometry(rho)
    got = diagnostics._rhs_general(geo, scheme, quantity)
    assert rel_err(got, explicit_rhs_general(geo, scheme, quantity)) < 1e-13


@pytest.mark.parametrize("scheme,quantity,forms_at_most", [
    # measured 12.0, 15.0 and 11.0 forms; with h and d_j h built as
    # (4, 4, *dims) and (4, 4, 4, *dims) stacks, R, S and lapR as skew
    # matrices and the (4, 6, *dims) gradient bundle they peaked at 33.2,
    # 48.8 and 23.0
    (forms.CONFORMAL, "rho_sq", 16.0),
    (forms.MATRIX_B2, "u", 20.0),
    (forms.MATRIX_A1, "lambda1", 15.0)], ids=lambda v: getattr(v, "kind", v))
def test_evolution_residual_memory(scheme, quantity, forms_at_most):
    from hodgeflow.cli import _identity_probe
    rho = _identity_probe(PeriodicGrid((16,) * 4))
    peak = traced_peak(lambda: evolution_residual(rho, scheme, quantity))
    assert peak <= forms_at_most * rho.comps.nbytes
