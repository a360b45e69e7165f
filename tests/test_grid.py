import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from hodgeflow.grid import (DENSE_MAX, PeriodicGrid, ScalarField, _diff_matrix,
                            _laplacian_symbol, deriv_values, exp_values,
                            from_half_spectrum, gradient_values, half_spectrum,
                            integrate, laplacian_values)

from conftest import fourier_d2_matrix, traced_peak


# ---------------------------------------------------------------------------
# complex-FFT oracles: the kernel as it was before the real-FFT rewrite

def complex_deriv_oracle(values, grid, axis):
    """fft/ifft along one axis times i*k, Nyquist weight zeroed."""
    arr_axis = values.ndim - grid.rank + axis
    n, length = grid.dims[axis], grid.lengths[axis]
    k = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * np.pi / length)
    k[n // 2] = 0.0
    shape = [1] * values.ndim
    shape[arr_axis] = n
    spec = np.fft.fft(values, axis=arr_axis)
    spec *= (1j * k).reshape(shape)
    return np.fft.ifft(spec, axis=arr_axis).real


def complex_laplacian_oracle(values, grid):
    """One fftn round trip times the full -|k|^2 symbol, Nyquist kept."""
    offset = values.ndim - grid.rank
    grid_axes = tuple(range(offset, values.ndim))
    total = np.zeros(grid.dims)
    for axis, (n, length) in enumerate(zip(grid.dims, grid.lengths)):
        k = np.fft.fftfreq(n, 1.0 / n) * (2.0 * np.pi / length)
        shape = [1] * grid.rank
        shape[axis] = n
        total = total - (k ** 2).reshape(shape)
    spec = np.fft.fftn(values, axes=grid_axes) * total
    return np.fft.ifftn(spec, axes=grid_axes).real


ORACLE_GRIDS = [
    (PeriodicGrid((8,)), (3, 2)),
    (PeriodicGrid((512,)), (3,)),
    (PeriodicGrid((16, 8), (2 * np.pi, 3.0)), (2, 3)),
    (PeriodicGrid((8, 8, 8, 8), (2 * np.pi, 3.0, 1.0, 5.5)), (6,)),
    # one axis on each side of DENSE_MAX: matrix product and rfft/irfft pair
    (PeriodicGrid((DENSE_MAX, DENSE_MAX + 2), (2 * np.pi, 3.0)), (2,)),
]


@pytest.mark.parametrize("grid,lead", ORACLE_GRIDS,
                         ids=["8", "512", "16x8", "8^4-mixed", "dense-max-pm"])
def test_real_fft_kernel_matches_complex_oracle(grid, lead):
    vals = np.random.default_rng(sum(grid.dims)).standard_normal(lead + grid.dims)
    for axis in range(grid.rank):
        want = complex_deriv_oracle(vals, grid, axis)
        got = deriv_values(vals, grid, axis)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    want = complex_laplacian_oracle(vals, grid)
    got = laplacian_values(vals, grid)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [8, DENSE_MAX, DENSE_MAX + 2, 512])
def test_rfft_nyquist_convention(n):
    # d/dx cos(N/2 x) = 0 (Nyquist weight zeroed) and
    # Lap cos(N/2 x) = -(N/2)^2 cos(N/2 x) (Nyquist kept), in 1D and along
    # the leading axis of a 2D grid, whose last axis is the halved rfft axis
    alternating = (-1.0) ** np.arange(n)  # cos(N/2 x) at the grid points
    for g, nyq in ((PeriodicGrid((n,)), alternating),
                   (PeriodicGrid((n, 8)), np.outer(alternating, np.ones(8)))):
        assert np.abs(deriv_values(nyq, g, 0)).max() < 1e-12
        lap = laplacian_values(nyq, g)
        assert np.abs(lap + (n // 2) ** 2 * nyq).max() < 1e-12 * (n // 2) ** 2
    g = PeriodicGrid((8, n))
    nyq = np.outer(np.ones(8), alternating)
    assert np.abs(deriv_values(nyq, g, 1)).max() < 1e-12
    assert np.abs(laplacian_values(nyq, g) + (n // 2) ** 2 * nyq).max() \
        < 1e-12 * (n // 2) ** 2


@pytest.mark.parametrize("n", [8, 64, 512])
@pytest.mark.parametrize("lead", [(), (1,), (3, 2)])
def test_rank1_multiplier_equals_the_rfftn_round_trip(n, lead):
    # the rank-1 rfft/irfft halves are the rfftn/irfftn ones, bit for bit
    grid = PeriodicGrid((n,), (3.0,))
    vals = np.random.default_rng(n).standard_normal(lead + grid.dims)
    symbol = _laplacian_symbol(grid.dims, grid.lengths)
    axes = (vals.ndim - 1,)
    spec = np.fft.rfftn(vals, axes=axes)
    assert np.array_equal(half_spectrum(vals, grid), spec)
    assert np.array_equal(from_half_spectrum(spec, grid),
                          np.fft.irfftn(spec, s=grid.dims, axes=axes))
    want = np.fft.irfftn(spec * symbol, s=grid.dims, axes=axes)
    assert np.array_equal(laplacian_values(vals, grid), want)


@pytest.mark.parametrize("grid", [
    PeriodicGrid((16,)),
    PeriodicGrid((16, 8), (2 * np.pi, 3.0)),
    PeriodicGrid((8, 12, 8, 10), (1.0, 2.0, 3.0, 4.0)),
    PeriodicGrid((DENSE_MAX, 8)),
], ids=["16", "16x8", "8x12x8x10", "dense-max-x8"])
def test_dense_axes_map_constants_to_exactly_zero(grid):
    rng = np.random.default_rng(3)
    const = np.full((3,) + grid.dims, 3.7)
    out = np.full((3,) + grid.dims, np.nan)
    for axis in range(grid.rank):
        assert not deriv_values(const, grid, axis).any()
        assert not deriv_values(const, grid, axis, out, minus=True).any()
        # random across the other axes, constant along this one
        shape = list((3,) + grid.dims)
        shape[1 + axis] = 1
        along = np.broadcast_to(rng.standard_normal(shape), (3,) + grid.dims)
        assert not deriv_values(along, grid, axis).any()
        assert not deriv_values(along[1], grid, axis, out[1]).any()


@pytest.mark.parametrize("n", [8, 16, 24, 32, DENSE_MAX])
@pytest.mark.parametrize("length", [2 * np.pi, 3.0])
def test_diff_matrix_is_exactly_antisymmetric(n, length):
    D = _diff_matrix(n, length)
    assert D.shape == (n, n)
    assert np.array_equal(D.T, -D)
    assert not np.diag(D).any()


@pytest.mark.parametrize("grid", [PeriodicGrid((16, 8, 8, 24)),
                                  PeriodicGrid((8, DENSE_MAX + 2))],
                         ids=["dense", "dense-and-fft"])
def test_out_and_minus_match_the_plain_derivative(grid):
    # out= is written and returned, and minus= is the negation, to the bit,
    # for the whole array and for one component written into a slice
    vals = np.random.default_rng(4).standard_normal((6,) + grid.dims)
    out = np.full(vals.shape, np.nan)
    row = out[1]
    for axis in range(grid.rank):
        want = deriv_values(vals, grid, axis)
        assert deriv_values(vals, grid, axis, out) is out
        assert np.array_equal(out, want)
        assert deriv_values(vals[4], grid, axis, row, minus=True) is row
        assert np.array_equal(row, -want[4])
        assert np.array_equal(deriv_values(vals, grid, axis, minus=True), -want)


def _single_product(values, grid, axis):
    """The dense derivative as one wide product per leading component: its
    lines minus their first sample, reshaped to (n, rest), times the matrix
    (rows times the transpose when the axis is the last)."""
    n = grid.dims[axis]
    D = _diff_matrix(n, grid.lengths[axis])
    out = np.empty(values.shape)
    for c in np.ndindex(values.shape[:values.ndim - grid.rank]):
        lines = values[c] - values[c][(slice(None),) * axis + (slice(0, 1),)]
        trail = lines[(0,) * (axis + 1)].size
        if trail == 1:
            out[c] = np.matmul(lines.reshape(-1, n), D.T).reshape(lines.shape)
        else:
            out[c] = np.matmul(D, lines.reshape(-1, n, trail)).reshape(lines.shape)
    return out


def _product_shapes(monkeypatch, values, grid, axis):
    """The shapes of the second operand of each np.matmul that one
    deriv_values call makes."""
    shapes, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        shapes.append(b.shape)
        return matmul(a, b, **kwargs)
    monkeypatch.setattr(np, "matmul", spy)
    try:
        deriv_values(values, grid, axis)
    finally:
        monkeypatch.undo()
    return shapes


@pytest.mark.parametrize("dims,batched", [
    ((16,) * 4, True), ((24,) * 4, True), ((8, 12, 8, 10), True),
    ((128, 16, 8, 8), True), ((16, 12), False), ((16,), False)],
    ids=["16^4", "24^4", "8x12x8x10", "128x16x8x8", "rank-2", "rank-1"])
def test_first_axis_product_is_batched_on_rank_4_and_same_bits(
        dims, batched, monkeypatch):
    # on a rank-4 grid's first axis, one (n0 x n0)(n0 x n2 n3) product per
    # slab of the second axis; on ranks 1 and 2, one wide product.  Each
    # output element is the same dot product in the same order: same bits
    grid = PeriodicGrid(dims)
    vals = np.random.default_rng(6).standard_normal((2,) + dims)
    shapes = _product_shapes(monkeypatch, vals, grid, 0)
    n, rest = dims[0], int(np.prod(dims[1:]))
    if batched:
        want_shape = (dims[1], n, rest // dims[1])
    else:
        want_shape = (1, n, rest) if rest > 1 else (n, n)
    assert shapes == [want_shape] * 2
    for minus in (False, True):
        want = _single_product(vals, grid, 0) * (-1.0 if minus else 1.0)
        got = deriv_values(vals, grid, 0, minus=minus)
        assert got.tobytes() == want.tobytes()
        out = np.full(vals.shape, np.nan)
        deriv_values(vals[1], grid, 0, out[1], minus=minus)
        assert out[1].tobytes() == want[1].tobytes()


def test_dense_kernel_holds_one_component_of_scratch():
    # at 16^4 the first-sample differences of a (6, *dims) input go through
    # one component's scratch (1.13 components with numpy's own buffer); the
    # whole difference array held six (1.02 forms)
    grid = PeriodicGrid((16,) * 4)
    comps = np.random.default_rng(5).standard_normal((6,) + grid.dims)
    out = np.empty_like(comps)
    for axis in range(grid.rank):
        peak = traced_peak(lambda: deriv_values(comps, grid, axis, out))
        assert peak <= 1.25 * comps[0].nbytes, (axis, peak)


def test_gradient_values_shape_and_axis_order():
    g = PeriodicGrid((16, 8), (2 * np.pi, 3.0))
    vals = np.random.default_rng(1).standard_normal((2, 3) + g.dims)
    grad = gradient_values(vals, g)
    assert grad.shape == (2, 2, 3) + g.dims
    for axis in range(2):
        assert np.array_equal(grad[axis], deriv_values(vals, g, axis))


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid((8, 8, 8))  # rank 3 unsupported
    with pytest.raises(ValueError):
        PeriodicGrid((7,))  # odd
    with pytest.raises(ValueError):
        PeriodicGrid((4,))  # too small
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            PeriodicGrid((8,), (bad,))
    with pytest.raises(ValueError):
        PeriodicGrid((8, 8), (1.0,))


def test_grid_geometry():
    g = PeriodicGrid((16, 8), (2 * np.pi, 4.0))
    assert g.rank == 2
    assert g.volume == pytest.approx(8 * np.pi)
    assert g.spacings == pytest.approx((2 * np.pi / 16, 0.5))
    x0 = g.axis_coordinates(0)
    assert x0[0] == 0.0 and len(x0) == 16
    assert x0[1] == pytest.approx(2 * np.pi / 16)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_derivative_exact_on_modes(k):
    # the spectral derivative is exact on resolved trigonometric modes
    g = PeriodicGrid((32,))
    x = g.axis_coordinates(0)
    f = ScalarField(g, np.sin(k * x) + 0.5 * np.cos(k * x))
    df = deriv_values(f.values, g, 0)
    expect = k * np.cos(k * x) - 0.5 * k * np.sin(k * x)
    assert np.abs(df - expect).max() < 1e-12 * k


def test_derivative_nonunit_period():
    L = 3.7
    g = PeriodicGrid((64,), (L,))
    x = g.axis_coordinates(0)
    w = 2 * np.pi / L
    f = ScalarField(g, np.cos(2 * w * x))
    df = deriv_values(f.values, g, 0)
    assert np.abs(df + 2 * w * np.sin(2 * w * x)).max() < 1e-11


def test_derivative_smooth_function_spectral_accuracy():
    # resolvable analytic data: error should be near rounding already at n=32
    g = PeriodicGrid((32,))
    x = g.axis_coordinates(0)
    f = ScalarField(g, np.exp(np.sin(x)))
    df = deriv_values(f.values, g, 0)
    expect = np.cos(x) * np.exp(np.sin(x))
    assert np.abs(df - expect).max() < 1e-10


def test_derivative_axis_selection_and_component_axes():
    g = PeriodicGrid((16, 16))
    x1, x2 = g.coordinates()
    vals = np.stack([np.sin(x1) * np.ones(g.dims),
                     np.cos(2 * x2) * np.ones(g.dims)])
    d0 = deriv_values(vals, g, 0)
    d1 = deriv_values(vals, g, 1)
    assert np.abs(d0[0] - np.cos(x1)).max() < 1e-12
    assert np.abs(d0[1]).max() < 1e-12
    assert np.abs(d1[0]).max() < 1e-12
    assert np.abs(d1[1] + 2 * np.sin(2 * x2)).max() < 1e-12


def test_nyquist_mode_derivative_is_zero():
    g = PeriodicGrid((8,))
    x = g.axis_coordinates(0)
    f = ScalarField(g, np.cos(4 * x))  # pure Nyquist mode
    df = deriv_values(f.values, g, 0)
    assert np.abs(df).max() < 1e-13


def test_laplacian_matches_second_derivatives():
    g = PeriodicGrid((16, 16))
    x1, x2 = g.coordinates()
    f = ScalarField(g, np.sin(x1) * np.cos(3 * x2) * np.ones(g.dims))
    lap = laplacian_values(f.values, g)
    expect = -(1 + 9) * np.sin(x1) * np.cos(3 * x2)
    assert np.abs(lap - expect).max() < 1e-11


def test_laplacian_keeps_nyquist():
    # unlike the first derivative, the -k^2 symbol keeps the Nyquist mode
    g = PeriodicGrid((8,))
    x = g.axis_coordinates(0)
    vals = np.cos(4 * x)
    lap = laplacian_values(vals, g)
    assert np.abs(lap + 16 * vals).max() < 1e-12


# s |k_max|^2 reaches 180 at 128 points on a period of 3: expm's own
# rounding stays below 1e-14 there
EXP_STEPS = (1e-4, 1e-3, 1e-2)


@pytest.mark.parametrize("n", [16, 24, DENSE_MAX])
@pytest.mark.parametrize("length", [2 * np.pi, 3.0])
def test_exp_values_is_expm_of_the_axis_operators(n, length):
    # e^{s D^2} with D the Nyquist-zeroed derivative matrix, and e^{s D2} with
    # D2 the closed-form Laplacian matrix: the kernel applied to the identity
    # (rows as components) against scipy's expm
    grid = PeriodicGrid((n,), (length,))
    D = _diff_matrix(n, length)
    for s in EXP_STEPS:
        dd = exp_values(np.eye(n), grid, s, nyquist=False)
        lap = exp_values(np.eye(n), grid, s, nyquist=True)
        assert np.abs(dd - expm(s * D @ D)).max() <= 1e-14, s
        assert np.abs(lap - expm(s * fourier_d2_matrix(n, length))).max() \
            <= 1e-14, s
        # the two differ by the factor on the Nyquist mode only
        diff = np.fft.rfft(lap - dd, axis=0)
        assert np.abs(np.delete(diff, n // 2, axis=0)).max() <= 1e-14, s
        assert np.abs(diff[n // 2]).max() > 1e-3, s


@pytest.mark.parametrize("grid", [
    PeriodicGrid((16, 8, 24, 10), (1.0, 2.0, 2 * np.pi, 4.0)),
    PeriodicGrid((12, 2 * DENSE_MAX), (3.0, 2 * np.pi)),
], ids=["16x8x24x10-mixed", "dense-and-fft"])
@pytest.mark.parametrize("nyquist", [False, True])
def test_exp_values_is_one_factor_per_axis(grid, nyquist):
    # several axes (the batched rank-4 first axis, and an FFT axis) against
    # the per-axis expm applied with tensordot; constants map to themselves
    # to the bit on dense axes
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((3,) + grid.dims)
    s = 1e-3
    want = vals
    for axis, (n, length) in enumerate(zip(grid.dims, grid.lengths)):
        D = _diff_matrix(n, length)
        L = fourier_d2_matrix(n, length) if nyquist else D @ D
        want = np.moveaxis(np.tensordot(expm(s * L), want, axes=(1, axis + 1)),
                           0, axis + 1)
    got = exp_values(vals, grid, s, nyquist=nyquist)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(vals).max()
    if max(grid.dims) <= DENSE_MAX:
        const = np.broadcast_to(rng.standard_normal((3,) + (1,) * grid.rank),
                                vals.shape)
        assert np.array_equal(exp_values(const, grid, s, nyquist=nyquist), const)


def test_integrate_is_mean_times_volume():
    g = PeriodicGrid((16, 8), (2 * np.pi, 1.0))
    x1, _ = g.coordinates()
    f = ScalarField(g, 2.0 + np.sin(x1) * np.ones(g.dims))
    assert integrate(f) == pytest.approx(2.0 * g.volume, rel=1e-13)


def test_scalar_field_shape_mismatch():
    g = PeriodicGrid((8, 8))
    with pytest.raises(ValueError):
        ScalarField(g, np.zeros((8, 10)))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_derivative_kills_constants_and_is_linear(seed):
    g = PeriodicGrid((16,))
    rng = np.random.default_rng(seed)
    spec = np.zeros(16, dtype=complex)
    modes = rng.integers(1, 7, size=3)
    for k in modes:
        spec[k] = rng.standard_normal() + 1j * rng.standard_normal()
        spec[-k] = np.conj(spec[k])
    vals = np.fft.ifft(spec).real
    f = ScalarField(g, vals + 5.0)
    h = ScalarField(g, vals)
    df = deriv_values(f.values, g, 0)
    dh = deriv_values(h.values, g, 0)
    assert np.abs(df - dh).max() < 1e-12  # constant part drops out
    two = deriv_values(2.0 * vals, g, 0)
    assert np.abs(two - 2.0 * dh).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=100))
def test_integration_by_parts(seed):
    # int f g' = -int f' g for the trigonometric interpolants
    g = PeriodicGrid((32,))
    rng = np.random.default_rng(seed)
    x = g.axis_coordinates(0)
    f = ScalarField(g, sum(rng.standard_normal() * np.sin((k + 1) * x)
                           for k in range(4)))
    h = ScalarField(g, sum(rng.standard_normal() * np.cos((k + 1) * x)
                           for k in range(4)))
    lhs = integrate(ScalarField(g, f.values * deriv_values(h.values, g, 0)))
    rhs = -integrate(ScalarField(g, deriv_values(f.values, g, 0) * h.values))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))
