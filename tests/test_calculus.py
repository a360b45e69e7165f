import numpy as np
import pytest

from hodgeflow import calculus, forms
from hodgeflow.calculus import (OneForm, codiff_two, d_one, d_two,
                                grad_norm_sq, max_abs_three, periods)
from hodgeflow.grid import DENSE_MAX, PeriodicGrid, ScalarField, integrate

from conftest import bundle_axis_sums, component, random_form


def analytic_one_form(grid):
    """Smooth 1-form with known exterior derivative."""
    x1, x2, x3, x4 = grid.coordinates()
    ones = np.ones(grid.dims)
    comps = np.stack([
        np.sin(x2) * ones,
        np.cos(x3) * ones,
        np.sin(x1) * np.cos(x4) * ones,
        np.cos(2 * x1) * ones,
    ])
    return OneForm(grid, comps)


def test_d_one_against_hand_derivative(grid12):
    grid = grid12
    zeta = analytic_one_form(grid)
    rho = d_one(zeta)
    x1, x2, x3, x4 = grid.coordinates()
    ones = np.ones(grid.dims)
    # (d zeta)_ij = d_i zeta_j - d_j zeta_i, components in lexicographic order
    expected = {
        (0, 1): -np.cos(x2) * ones,
        (0, 2): np.cos(x1) * np.cos(x4) * ones,
        (0, 3): -2 * np.sin(2 * x1) * ones,
        (1, 2): np.sin(x3) * ones,
        (1, 3): 0.0 * ones,
        (2, 3): np.sin(x1) * np.sin(x4) * ones,
    }
    for (i, j), want in expected.items():
        got = component(rho, i, j)
        assert np.abs(got - want).max() < 1e-11, (i, j)


def test_d_two_of_d_one_vanishes(grid12):
    zeta = analytic_one_form(grid12)
    assert max_abs_three(d_two(d_one(zeta))) < 1e-12


def test_d_two_of_random_closed_form(grid8):
    rho = random_form(grid8, eps=0.5, band=2, seed=3)
    assert max_abs_three(d_two(rho)) < 1e-12


def test_codiff_finite_difference_oracle():
    # central differences on a fine grid converge to the spectral codifferential
    grid = PeriodicGrid((32, 8, 8, 8))
    x1 = grid.coordinates()[0]
    rho = forms.omega(grid)
    rho.comps[1] += 0.3 * np.sin(x1) * np.ones(grid.dims)  # rho_13 bump
    xi = codiff_two(rho)
    h = grid.spacings[0]
    comp13 = component(rho, 0, 2)
    fd = (np.roll(comp13, -1, axis=0) - np.roll(comp13, 1, axis=0)) / (2 * h)
    # (d* rho)_3 includes d_1 rho_31 = -d_1 rho_13
    assert np.abs(xi.comps[2] + fd).max() < 0.3 * h ** 2 * 2
    # and the spectral value is exact for the single mode
    assert np.abs(xi.comps[2] + 0.3 * np.cos(x1) * np.ones(grid.dims)).max() < 1e-12


def test_codiff_adjoint_to_d(grid8):
    grid = grid8
    rng = np.random.default_rng(1)
    from hodgeflow.scenarios import _band_limited_field
    zeta = OneForm(grid, np.stack([_band_limited_field(rng, grid, 2)
                                   for _ in range(4)]))
    rho = random_form(grid, eps=0.4, band=2, seed=9)
    lhs = integrate(ScalarField(grid, forms.dot(d_one(zeta).comps, rho.comps)))
    rhs = integrate(ScalarField(grid, forms.dot(zeta.comps, codiff_two(rho).comps)))
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1.0)


def test_codiff_of_reference_form_vanishes(grid8):
    xi = codiff_two(forms.omega(grid8))
    assert np.abs(xi.comps).max() == 0.0


def test_periods_of_reference_and_invariance(grid8):
    w = forms.omega(grid8)
    p = periods(w)
    area = (2 * np.pi) ** 2
    assert p == pytest.approx([area, 0, 0, 0, 0, area])
    zeta = analytic_one_form(grid8)
    shifted = w + d_one(zeta)
    assert np.abs(periods(shifted) - p).max() < 1e-12


def test_periods_detect_class_change(grid8):
    w = forms.omega(grid8)
    assert np.abs(periods(1.5 * w) - periods(w)).max() > 1.0


def test_grad_norm_sq_oracle():
    grid = PeriodicGrid((16, 8, 8, 8))
    x1 = grid.coordinates()[0]
    rho = forms.TwoForm.zero(grid)
    rho.comps[0] = np.sin(x1) * np.ones(grid.dims)
    g = grad_norm_sq(rho)
    assert np.abs(g.values - np.cos(x1) ** 2 * np.ones(grid.dims)).max() < 1e-12


def test_oneform_shape_validation(grid8):
    with pytest.raises(ValueError):
        OneForm(grid8, np.zeros((3,) + grid8.dims))


@pytest.mark.parametrize("grid", [
    PeriodicGrid((8,) * 4),
    PeriodicGrid((12,) * 4),
    PeriodicGrid((8, 12, 8, 10), (1.0, 2.0, 3.0, 4.0)),
    # one axis on the rfft/irfft branch, written through out= as well
    PeriodicGrid((8, DENSE_MAX + 2, 8, 8), (2 * np.pi, 3.0, 1.0, 5.5)),
], ids=["8^4", "12^4", "8x12x8x10", "fft-axis"])
def test_streamed_assembly_equals_the_bundle_route(grid):
    # one deriv_values call per term, first terms written straight into
    # their targets (minus terms by the negated matrix), is the per-axis
    # bundle route to the bit: the same products, summed in the same order
    rng = np.random.default_rng(sum(grid.dims))
    zeta = OneForm(grid, rng.standard_normal((4,) + grid.dims))
    rho = forms.TwoForm(grid, rng.standard_normal((6,) + grid.dims))
    cases = ((d_one(zeta).comps, 6, calculus._D_ONE_TERMS, zeta.comps),
             (d_two(rho).comps, 4, calculus._D_TWO_TERMS, rho.comps),
             (codiff_two(rho).comps, 4, calculus._CODIFF_TERMS, rho.comps))
    for got, count, terms, comps in cases:
        assert np.array_equal(got, bundle_axis_sums(count, terms, comps, grid))
    out = np.full((6,) + grid.dims, np.nan)
    assert d_one(zeta, out).comps is out
    assert np.array_equal(out, cases[0][0])
    # minus=True (flow_rhs's sign) flips each term: the bytes of -d(zeta)
    # and of d(-zeta), into a new array and through out=
    want = (-cases[0][0]).tobytes()
    assert d_one(OneForm(grid, -zeta.comps)).comps.tobytes() == want
    assert d_one(zeta, minus=True).comps.tobytes() == want
    assert d_one(zeta, out, minus=True).comps is out
    assert out.tobytes() == want

