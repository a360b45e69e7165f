import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgeflow import forms
from hodgeflow.errors import DegenerateForm, NumericalBlowup
from hodgeflow.forms import (ALL_SCHEMES, CONFORMAL, FlowScheme, TwoForm,
                             eigenvalue_values, hodge_star, matrix_ab, norm_sq_values, omega, scheme_from_name,
                             volume_potential_values,
                             weight_h, weight_spectral_radius)
from hodgeflow.grid import PeriodicGrid

from conftest import (as_skew_matrix, explicit_gram, explicit_weight_h,
                      random_form, rel_err, sd_asd_split, skew_apply_zeros,
                      traced_peak, weight_apply_oracle)


def sample_points(grid, count, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, n, size=count) for n in grid.dims)


# ---------------------------------------------------------------------------
# dense linear-algebra oracles at sampled grid points

def test_eigenvalues_against_dense_eigensolver(grid8):
    rho = random_form(grid8, eps=0.6, band=2, seed=12)
    lam1, lam2 = eigenvalue_values(rho)
    A = as_skew_matrix(rho)
    idx = sample_points(grid8, 40, seed=1)
    for n in range(40):
        p = tuple(ax[n] for ax in idx)
        M = A[(slice(None), slice(None)) + p]
        imag = np.sort(np.abs(np.linalg.eigvals(M).imag))
        # eigenvalues come in +-i lambda pairs
        pair = np.sort([abs(lam1[p]), abs(lam2[p])])
        assert np.abs(np.sort(imag)[[1, 3]] - pair[[0, 1]]).max() < 1e-10


def test_u_is_pfaffian(grid8):
    rho = random_form(grid8, eps=0.6, band=2, seed=7)
    u = volume_potential_values(rho)
    A = as_skew_matrix(rho)
    idx = sample_points(grid8, 40, seed=2)
    for n in range(40):
        p = tuple(ax[n] for ax in idx)
        M = A[(slice(None), slice(None)) + p]
        det = np.linalg.det(M)
        assert det == pytest.approx(u[p] ** 2, rel=1e-9, abs=1e-12)


def _sqrt_b(rho):
    """sqrt(b) = u h for the matrix_bh weight h = sqrt(b) / u."""
    return volume_potential_values(rho) * weight_h(rho, forms.MATRIX_BHALF)


def test_sqrt_b_against_symmetric_eigensolver(grid8):
    rho = random_form(grid8, eps=0.5, band=2, seed=21)
    root = _sqrt_b(rho)
    b = explicit_gram(rho, star=True)
    idx = sample_points(grid8, 30, seed=3)
    for n in range(30):
        p = tuple(ax[n] for ax in idx)
        B = b[(slice(None), slice(None)) + p]
        w, v = np.linalg.eigh(B)
        oracle = v @ np.diag(np.sqrt(np.maximum(w, 0.0))) @ v.T
        assert np.abs(root[(slice(None), slice(None)) + p] - oracle).max() < 1e-9


def test_sqrt_b_squares_to_b(grid8):
    rho = random_form(grid8, eps=0.5, band=2, seed=22)
    root = _sqrt_b(rho)
    b = explicit_gram(rho, star=True)
    sq = np.einsum("ik...,kj...->ij...", root, root)
    assert np.abs(sq - b).max() < 1e-11


# ---------------------------------------------------------------------------
# pointwise identities

def test_star_involution_and_isometry(grid8):
    rho = random_form(grid8, 0.7, seed=5)
    twice = hodge_star(hodge_star(rho))
    assert np.abs(twice.comps - rho.comps).max() == 0.0
    assert np.abs(norm_sq_values(hodge_star(rho)) - norm_sq_values(rho)).max() < 1e-13


def test_reference_form_is_self_dual(grid8):
    w = omega(grid8)
    assert np.abs(hodge_star(w).comps - w.comps).max() == 0.0
    plus, minus = sd_asd_split(w)
    assert np.abs(minus.comps).max() == 0.0
    assert np.abs(plus.comps - w.comps).max() == 0.0


def test_two_u_is_rho_pairing(grid8):
    rho = random_form(grid8, 0.7, seed=6)
    pair = np.einsum("c...,c...->...", rho.comps, hodge_star(rho).comps)
    assert np.abs(2 * volume_potential_values(rho) - pair).max() < 1e-12


def test_eigenvalue_scalar_identities(grid8):
    rho = random_form(grid8, 0.7, seed=8)
    lam1, lam2 = eigenvalue_values(rho)
    u = volume_potential_values(rho)
    assert np.abs(lam1 * lam2 - u).max() < 1e-11
    assert np.abs(lam1 ** 2 + lam2 ** 2 - norm_sq_values(rho)).max() < 1e-11
    assert np.all(lam1 >= np.abs(lam2) - 1e-12)


def test_matrix_ab_equals_the_skew_matrix_products(grid8):
    # the column-by-column Gram matrices against R R^T and S S^T
    rho = random_form(grid8, 0.7, seed=9)
    a, b = matrix_ab(rho)
    assert np.abs(a - explicit_gram(rho)).max() < 1e-14
    assert np.abs(b - explicit_gram(rho, star=True)).max() < 1e-14


def test_a_plus_b_is_norm_identity(grid8):
    rho = random_form(grid8, 0.7, seed=9)
    a, b = matrix_ab(rho)
    total = a + b
    eye = np.eye(4).reshape(4, 4, 1, 1, 1, 1)
    assert np.abs(total - norm_sq_values(rho) * eye).max() < 1e-12


def test_ab_eigenvalues(grid8):
    # a and b both have spectrum {lam1^2 (x2), lam2^2 (x2)} pointwise
    rho = random_form(grid8, 0.5, seed=10)
    lam1, lam2 = eigenvalue_values(rho)
    a, b = matrix_ab(rho)
    idx = sample_points(grid8, 20, seed=4)
    for n in range(20):
        p = tuple(ax[n] for ax in idx)
        want = np.sort([lam2[p] ** 2, lam2[p] ** 2, lam1[p] ** 2, lam1[p] ** 2])
        for m in (a, b):
            got = np.sort(np.linalg.eigvalsh(m[(slice(None), slice(None)) + p]))
            assert np.abs(got - want).max() < 1e-10


# ---------------------------------------------------------------------------
# schemes and weights

def test_scheme_parsing():
    assert scheme_from_name("conformal") == CONFORMAL
    assert scheme_from_name("power_u:0.25") == FlowScheme("power_u", 0.25)
    assert scheme_from_name("power_u") == CONFORMAL
    assert scheme_from_name("matrix_b2").kind == "matrix_b2"
    for tag in ("nope", "power_u0.25", "power_u_2", "power_ufoo", "power_u:"):
        with pytest.raises(ValueError):
            scheme_from_name(tag)
    with pytest.raises(ValueError):
        FlowScheme("power_u", -1.0)
    with pytest.raises(ValueError):
        FlowScheme("linear", 0.5)


def test_weight_matrices_match_scalar_weights(grid8):
    rho = random_form(grid8, 0.3, seed=11)
    for scheme in ALL_SCHEMES:
        h = weight_h(rho, scheme)
        if scheme.is_scalar:
            f = forms.scalar_weight_values(rho, scheme)
            assert np.abs(explicit_weight_h(rho, scheme)[0, 0] - f).max() < 1e-13
            assert np.abs(h[0, 1]).max() == 0.0


def test_weight_spectral_radius_oracle(grid8):
    rho = random_form(grid8, 0.4, seed=13)
    idx = sample_points(grid8, 15, seed=5)
    for scheme in ALL_SCHEMES:
        radius = weight_spectral_radius(rho, scheme)
        h = explicit_weight_h(rho, scheme)
        for n in range(15):
            p = tuple(ax[n] for ax in idx)
            top = np.linalg.eigvalsh(h[(slice(None), slice(None)) + p]).max()
            assert radius[p] == pytest.approx(top, rel=1e-9, abs=1e-11)


def test_degenerate_form_raises(grid8):
    rho = TwoForm.zero(grid8)  # u = 0 everywhere
    with pytest.raises(DegenerateForm):
        forms.scalar_weight_values(rho, CONFORMAL)
    with pytest.raises(DegenerateForm):
        weight_h(rho, forms.MATRIX_A1)
    # the unweighted scheme needs no positivity
    assert forms.scalar_weight_values(rho, forms.LINEAR).max() == 1.0


def _flux_oracle_forms(grid):
    """Two random probes and an omega-like form whose eigenvalues meet,
    lambda1 = lambda2, where sin x1 = 0 (its anti-self-dual part vanishes)."""
    meeting = omega(grid)
    asd = 0.3 * np.sin(grid.coordinates()[0]) * np.ones(grid.dims)
    meeting.comps[0] += asd
    meeting.comps[5] -= asd
    lam1, lam2 = eigenvalue_values(meeting)
    assert (lam1 == lam2).any() and (lam1 != lam2).any()
    return [random_form(grid, 0.3, seed=14), random_form(grid, 0.6, seed=15),
            meeting]


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_weight_apply_matches_explicit_matrix(grid8, scheme):
    # the matrix-free flux against the einsum of the explicit weight matrix
    rng = np.random.default_rng(31)
    for rho in _flux_oracle_forms(grid8):
        xi = rng.standard_normal((4,) + grid8.dims)
        want = np.einsum("ik...,k...->i...", explicit_weight_h(rho, scheme), xi)
        got = forms.weight_apply(rho, scheme, xi)
        assert got.shape == xi.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_weight_apply_writes_over_xi_to_the_bit(grid8, scheme):
    # out= may be xi itself: each slab of xi is read before it is written
    xi = np.random.default_rng(32).standard_normal((4,) + grid8.dims)
    for rho in _flux_oracle_forms(grid8):
        want = forms.weight_apply(rho, scheme, xi)
        buf = xi.copy()
        assert forms.weight_apply(rho, scheme, buf, out=buf) is buf
        assert np.array_equal(buf, want)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_weight_apply_equals_the_sums_from_zero_to_the_bit(scheme):
    # each target's first term written straight into a buffer made once per
    # call, its sign carried instead of negated, is the slab-by-slab
    # composition of mat-vecs summed from zeros, byte for byte, into a new
    # array and over xi
    grid = PeriodicGrid((8, 12, 8, 10))
    xi = np.random.default_rng(33).standard_normal((4,) + grid.dims)
    for rho in _flux_oracle_forms(grid):
        want = weight_apply_oracle(rho, scheme, xi).tobytes()
        assert forms.weight_apply(rho, scheme, xi).tobytes() == want
        buf = xi.copy()
        assert forms.weight_apply(rho, scheme, buf, out=buf).tobytes() == want
    # where every product is +-0 (xi = 0 at a point, a unit vector's zero
    # components) only the sign of a zero may differ: == sees no other bit
    xi[:, :, :3] = 0.0
    xi[2] = 0.0
    for rho in _flux_oracle_forms(grid):
        want = weight_apply_oracle(rho, scheme, xi)
        assert np.array_equal(forms.weight_apply(rho, scheme, xi), want)
        buf = xi.copy()
        assert np.array_equal(forms.weight_apply(rho, scheme, buf, out=buf), want)


def test_skew_apply_equals_the_sums_from_zero_to_the_bit(grid8):
    # the mat-vec that the identity checks and matrix_ab read: each output's
    # first product written as it comes, and an output held negated then
    # negated once
    rng = np.random.default_rng(34)
    comps = rng.standard_normal((6,) + grid8.dims)
    v = rng.standard_normal((4,) + grid8.dims)
    unit = np.zeros_like(v)
    unit[1] = 1.0
    unit[:, :, :2] = 0.0
    for terms in (forms._SKEW_TERMS, forms._STAR_SKEW_TERMS):
        assert forms._skew_apply(comps, v, terms).tobytes() == \
            skew_apply_zeros(comps, v, terms).tobytes()
        # a unit vector, and v = 0 at some points: the same values, but a
        # zero result may carry the other sign (== sees no other bit)
        assert np.array_equal(forms._skew_apply(comps, unit, terms),
                              skew_apply_zeros(comps, unit, terms))


def test_floor_check_calls_a_non_finite_minimum_a_blowup():
    # a NaN minimum compares False with the floor: it used to pass
    for bad in (np.nan, -np.inf):
        values = np.ones(8)
        values[3] = bad
        with pytest.raises(NumericalBlowup):
            forms.require_above_floor(values)
    for low in (forms.U_FLOOR, -5.0):
        with pytest.raises(DegenerateForm):
            forms.require_above_floor(np.array([1.0, low, np.inf]))
    forms.require_above_floor(np.array([1.0, np.inf]))


@pytest.mark.parametrize("scheme", [s for s in ALL_SCHEMES if not s.is_scalar],
                         ids=lambda s: s.kind)
def test_weight_apply_raises_at_the_floor(grid8, scheme, monkeypatch):
    xi = np.ones((4,) + grid8.dims)
    with pytest.raises(DegenerateForm):
        forms.weight_apply(TwoForm.zero(grid8), scheme, xi)
    half = omega(grid8) * 0.5  # u = 0.25 everywhere
    monkeypatch.setattr(forms, "U_FLOOR", 0.25)
    with pytest.raises(DegenerateForm):
        forms.weight_apply(half, scheme, xi)
    monkeypatch.setattr(forms, "U_FLOOR", 0.2)
    assert np.isfinite(forms.weight_apply(half, scheme, xi)).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_pointwise_identities_on_random_constant_forms(seed):
    # single-point oracle: constant forms with arbitrary six components
    grid = PeriodicGrid((8,) * 4)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(6)
    rho = TwoForm(grid, np.tile(c.reshape(6, 1, 1, 1, 1), (1,) + grid.dims))
    u = volume_potential_values(rho)
    assert u.flat[0] == pytest.approx(c[0] * c[5] - c[1] * c[4] + c[2] * c[3])
    lam1, lam2 = eigenvalue_values(rho)
    assert np.abs(lam1 * lam2 - u).max() < 1e-10
    A = as_skew_matrix(rho)[:, :, 0, 0, 0, 0]
    assert np.linalg.det(A) == pytest.approx(float(u.flat[0]) ** 2,
                                             rel=1e-8, abs=1e-10)


def _eigenvalues_from_split(rho):
    """lambda1, lambda2 as (|rho+| +- |rho-|)/sqrt2 from the built SD/ASD
    forms: the route `eigenvalue_values` took before its closed form."""
    plus, minus = sd_asd_split(rho)
    sp = np.sqrt(norm_sq_values(plus))
    sm = np.sqrt(norm_sq_values(minus))
    return (sp + sm) / forms.SQRT2, (sp - sm) / forms.SQRT2


def test_eigenvalues_closed_form_matches_split(grid8):
    # random data, omega itself (lambda1 = lambda2 = 1, rho- = 0) and data
    # with u < 0 somewhere (lambda2 < 0 there)
    negative = random_form(grid8, 0.3, seed=3)
    negative.comps[0] -= 1.3 * np.cos(grid8.coordinates()[1]) * np.ones(grid8.dims)
    assert volume_potential_values(negative).min() < 0.0
    for rho in (random_form(grid8, 0.6, seed=21), omega(grid8), negative):
        want1, want2 = _eigenvalues_from_split(rho)
        got1, got2 = eigenvalue_values(rho)
        scale = np.abs(want1).max()
        ulp = np.spacing(scale)
        assert np.abs(got1 - want1).max() <= 4 * ulp
        assert np.abs(got2 - want2).max() <= 4 * ulp
    lam1, lam2 = eigenvalue_values(omega(grid8))
    assert np.array_equal(lam1, np.ones(grid8.dims)) and np.array_equal(lam1, lam2)


def test_eigenvalues_hold_no_whole_form_temporaries():
    # at 16^4 the closed form peaks at two thirds of a form (four scalar
    # fields); the SD/ASD split held three forms
    grid = PeriodicGrid((16,) * 4)
    rho = random_form(grid, 0.05, band=3, seed=10)
    assert traced_peak(lambda: eigenvalue_values(rho)) <= rho.comps.nbytes


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.kind)
def test_weight_h_equals_the_matrix_ab_route(grid8, scheme):
    # the columns h e_j of `weight_apply` against h built from the explicit
    # a = R R^T and b = S S^T
    for rho in _flux_oracle_forms(grid8):
        assert rel_err(weight_h(rho, scheme), explicit_weight_h(rho, scheme)) < 1e-13


def test_matrix_weight_builds_one_gram_matrix():
    # at 16^4 a 4x4 field is 8/3 forms: the four columns and their stack keep
    # the matrix_b2 weight under 6 forms (5.3), where building a and b
    # peaked at 10.8
    grid = PeriodicGrid((16,) * 4)
    rho = random_form(grid, 0.05, band=3, seed=10)
    assert traced_peak(lambda: weight_h(rho, forms.MATRIX_B2)) \
        <= 6 * rho.comps.nbytes
