"""Periodic uniform grids and pseudo-spectral differentiation.

All differential operators in the package go through this module.  A first
derivative multiplies the discrete Fourier series by i*k, with the Nyquist
mode's weight zeroed (symmetric convention) so real fields map to real
fields; the Laplacian's -|k|^2 symbol keeps it.  d∘d = 0 and adjointness of d
and its formal adjoint hold to machine precision.

Along an axis of at most DENSE_MAX points the i*k symbol is applied as one
matrix product with the dense spectral differentiation matrix of that axis
(Trefethen, Spectral Methods in MATLAB, ch. 3): on the short axes of the 4D
flow, handling thousands of 16- to 32-point FFT lines costs more than the
arithmetic; on a 4D grid's first axis it is batched, one product per slab of
the second axis.  Longer axes use one rfft/irfft pair.  The linear models
step exactly with `exp_values`: e^{sL} for L the Laplacian (Nyquist kept) or
sum_a D_a^2 (Nyquist zeroed, -dd* on closed forms), one factor per axis, on
the same dense products or FFT pairs.  Only `deriv_values` and `exp_values`
read the matrices, both through one loop.  A Fourier multiplier over all
grid axes goes forward with `half_spectrum` and back with
`from_half_spectrum`; the Laplacian is one such round trip.  Band-limited data
(|k_a| <= band) take the pair `band_spectrum`/`from_band_spectrum`: per axis,
one real product with a cached partial-DFT matrix (the transform of the
identity, cut to the band's modes), so only the band is ever computed;
complex data go through the products as their interleaved float view.  Only
those two read the band matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBlowup

TWO_PI = 2.0 * np.pi

# Longest axis that takes a dense matrix, for a derivative and for e^{sL}.
# On one core, per axis of three components, the derivative product beats the
# rfft/irfft pair by 1.3-6x at 16 to 32 points (the 4D flow), costs about the
# same at 128 (the 128^2 soliton and fast-diffusion grids) and about twice as
# much at 256; 512-point axes stay on the FFT.  e^{sL} on one 16^4 form takes
# 2.0 ms as four per-axis products against 9.3 ms for rfftn, the multiplier
# and irfftn.
DENSE_MAX = 128

@functools.lru_cache(maxsize=None)
def _ik_symbol(n: int, length: float, trailing: int) -> np.ndarray:
    """Half-spectrum i*2*pi*k/L, Nyquist zeroed, for an axis before `trailing` axes."""
    ik = 1j * (np.fft.rfftfreq(n, 1.0 / n) * (TWO_PI / length))
    ik[n // 2] = 0.0
    ik = ik.reshape((-1,) + (1,) * trailing)
    ik.setflags(write=False)
    return ik


@functools.lru_cache(maxsize=None)
def _diff_matrix(n: int, length: float, minus: bool = False) -> np.ndarray:
    """The n x n matrix of the i*k symbol above: column j is the derivative of
    the j-th unit vector.  Made exactly antisymmetric (zero diagonal); with
    `minus`, its negation."""
    if minus:
        D = -_diff_matrix(n, length, False)  # the cache key deriv_values uses
    else:
        cols = np.fft.irfft(np.fft.rfft(np.eye(n), axis=0)
                            * _ik_symbol(n, length, 1), n=n, axis=0)
        D = 0.5 * (cols - cols.T)
    D.setflags(write=False)
    return D


@functools.lru_cache(maxsize=None)
def _laplacian_symbol(dims: tuple, lengths: tuple) -> np.ndarray:
    """-|k|^2 on the rfftn half spectrum (last axis halved), Nyquist kept: the
    Laplacian."""
    ks = []
    for a, (n, L) in enumerate(zip(dims, lengths)):
        freq = np.fft.rfftfreq if a == len(dims) - 1 else np.fft.fftfreq
        ks.append(freq(n, 1.0 / n) * (TWO_PI / L))
    total = -sum(k ** 2 for k in np.meshgrid(*ks, indexing="ij", sparse=True))
    total.setflags(write=False)
    return total


@functools.lru_cache(maxsize=None)
def _axis_symbol(n: int, length: float, nyquist: bool) -> np.ndarray:
    """-k^2 on one axis's half spectrum, its Nyquist wavenumber kept (the
    Laplacian's factor) or zeroed (that of D^2, D as in `_ik_symbol`)."""
    k = np.fft.rfftfreq(n, 1.0 / n) * (TWO_PI / length)
    if not nyquist:
        k[n // 2] = 0.0
    symbol = -(k ** 2)
    symbol.setflags(write=False)
    return symbol


# Eight matrices hold two step sizes (the bound and the remainder to a sample
# time) on four distinct axes; a bisection's many step sizes pass through
# without growing the cache.
@functools.lru_cache(maxsize=8)
def _exp_matrix(n: int, length: float, s: float, nyquist: bool) -> np.ndarray:
    """The n x n matrix of e^{s * `_axis_symbol`}: column j is the image of
    the j-th unit vector.  Made exactly symmetric."""
    factor = np.exp(s * _axis_symbol(n, length, nyquist))[:, None]
    cols = np.fft.irfft(np.fft.rfft(np.eye(n), axis=0) * factor, n=n, axis=0)
    M = 0.5 * (cols + cols.T)
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic lattice in 1, 2, or 4 dimensions.

    dims are per-axis point counts (even, >= 8); lengths are the periods
    (default 2*pi on every axis).
    """

    dims: tuple[int, ...]
    lengths: tuple[float, ...] = field(default=())

    def __post_init__(self):
        dims = tuple(int(n) for n in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) not in (1, 2, 4):
            raise ValueError(f"grid rank must be 1, 2, or 4, got {len(dims)}")
        for n in dims:
            if n < 8 or n % 2 != 0:
                raise ValueError(f"each axis needs an even point count >= 8, got {n}")
        lengths = tuple(float(L) for L in self.lengths) or (TWO_PI,) * len(dims)
        if len(lengths) != len(dims):
            raise ValueError("lengths and dims must have the same rank")
        if not all(0.0 < L < np.inf for L in lengths):
            raise ValueError("periods must be positive and finite")
        object.__setattr__(self, "lengths", lengths)

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.lengths, self.dims))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        n, L = self.dims[axis], self.lengths[axis]
        return np.arange(n) * (L / n)

    def coordinates(self):
        """Sparse broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*(self.axis_coordinates(a) for a in range(self.rank)),
                           indexing="ij", sparse=True)


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise NumericalBlowup if any entry is NaN or infinite."""
    if not np.isfinite(values).all():
        raise NumericalBlowup(f"non-finite values in {what}")


def _axis_products(values: np.ndarray, grid: PeriodicGrid, axis: int,
                   M: np.ndarray, out: np.ndarray, keep_first: bool) -> np.ndarray:
    """The n x n matrix M applied along grid `axis` of `values` (component
    axes leading) into `out`, which may be `values`: one matrix product per
    component (on a rank-4 grid's first axis, one per slab of the second
    axis), on each line minus its first sample, which `keep_first` adds back.
    The lines of one component at a time go through one scratch field."""
    lead = values.ndim - grid.rank
    n = grid.dims[axis]
    shape = values.shape[lead:]
    first = (slice(None),) * axis + (slice(0, 1),)
    trail = math.prod(shape[axis + 1:])
    batch, order = (-1, n, trail), (0, 1, 2)  # (batches, n, columns), axis order
    if axis == 0 and grid.rank == 4:  # one (n0, n2 n3) per slab: same bits
        batch, order = (n, shape[1], -1), (1, 0, 2)
    lines = np.empty(shape)
    for c in np.ndindex(values.shape[:lead]):
        # kept apart from values, which the product may write over
        base = values[c][first].copy() if keep_first else values[c][first]
        np.subtract(values[c], base, out=lines)
        if trail == 1:
            np.matmul(lines.reshape(-1, n), M.T, out=out[c].reshape(-1, n))
        else:
            np.matmul(M, lines.reshape(batch).transpose(order),
                      out=out[c].reshape(batch).transpose(order))
        if keep_first:
            out[c] += base
    return out


def deriv_values(values: np.ndarray, grid: PeriodicGrid, axis: int,
                 out: np.ndarray = None, minus: bool = False) -> np.ndarray:
    """Spectral partial derivative along a grid axis, negated with `minus`
    (exactly), into `out` (C-contiguous, shaped as `values`) if given.

    `values` may carry leading component axes; the grid axes are the trailing
    `grid.rank` axes of the array.  An axis of at most DENSE_MAX points takes
    the cached differentiation matrix through `_axis_products`, whose
    first-sample differences map constants to exactly 0.  A longer axis
    takes one rfft/irfft pair.
    """
    lead = values.ndim - grid.rank
    n, length = grid.dims[axis], grid.lengths[axis]
    if n > DENSE_MAX:
        spec = np.fft.rfft(values, axis=lead + axis)
        spec *= _ik_symbol(n, length, grid.rank - axis - 1) * (-1.0 if minus else 1.0)
        return np.fft.irfft(spec, n=n, axis=lead + axis, out=out)
    out = np.empty(values.shape) if out is None else out
    return _axis_products(values, grid, axis, _diff_matrix(n, length, minus),
                          out, False)


def exp_values(values: np.ndarray, grid: PeriodicGrid, s: float, *,
               nyquist: bool) -> np.ndarray:
    """e^{sL} on `values` (component axes leading, grid axes trailing), one
    factor per grid axis: L is the Laplacian if `nyquist` (each axis's
    Nyquist mode kept), else sum_a D_a^2 with D_a as in `deriv_values`
    (Nyquist zeroed), which is -dd* on closed forms, componentwise.

    An axis of at most DENSE_MAX points takes a cached matrix through
    `_axis_products`, with the first sample of each line added back, so that
    a constant maps to itself exactly.  A longer axis takes one rfft, the
    factor e^{s * symbol} and one irfft.
    """
    lead = values.ndim - grid.rank
    out = np.empty(values.shape)
    for axis, (n, length) in enumerate(zip(grid.dims, grid.lengths)):
        if n > DENSE_MAX:
            spec = np.fft.rfft(values, axis=lead + axis)
            spec *= np.exp(s * _axis_symbol(n, length, nyquist)).reshape(
                (-1,) + (1,) * (grid.rank - axis - 1))
            np.fft.irfft(spec, n=n, axis=lead + axis, out=out)
        else:
            _axis_products(values, grid, axis,
                           _exp_matrix(n, length, s, nyquist), out, True)
        values = out
    return out


def gradient_values(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """All first partials, shape (rank, *values.shape): out[j] = d_j values."""
    out = np.empty((grid.rank,) + values.shape)
    for axis in range(grid.rank):
        out[axis] = deriv_values(values, grid, axis)
    return out


def half_spectrum(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Forward real transform over the grid axes of `values` (its trailing
    `grid.rank` axes): the half spectrum in rfftn layout, last grid axis
    halved."""
    return np.fft.rfftn(values, axes=tuple(range(values.ndim - grid.rank,
                                                 values.ndim)))


def from_half_spectrum(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The inverse of `half_spectrum`: real values on the grid."""
    return np.fft.irfftn(spec, s=grid.dims,
                         axes=tuple(range(spec.ndim - grid.rank, spec.ndim)))


def _axis_band_modes(n: int, band: int, last: bool) -> np.ndarray:
    """One axis's integer k with |k| <= band, in fft order (k >= 0 on the
    `last`, rfft axis)."""
    k = np.arange(n // 2 + 1) if last else (np.arange(n) + n // 2) % n - n // 2
    return k[np.abs(k) <= band]


def _band_modes(dims: tuple, band: int) -> list:
    """Per grid axis, the band cube's integer k (fft order, k >= 0 on the last)."""
    return np.meshgrid(*(_axis_band_modes(n, band, a == len(dims) - 1)
                         for a, n in enumerate(dims)), indexing="ij", sparse=True)


@functools.lru_cache(maxsize=None)
def _band_matrices(n: int, band: int, last: bool) -> tuple:
    """(forward, inverse) real matrices of one axis's partial DFT onto its
    band modes, each the transform of the identity.  `last` (rfft) axis:
    (n, 2m) with cos and -sin columns interleaved, and (2m, n) whose rows are
    irfft of each mode's 1 and 1j (irfft drops Im at k = 0 and Nyquist).
    Other axes: the fft rows G and ifft columns G' as [Re G; Im G] (2m, n)
    and [Re G'; Im G'] (2n, m), for `_complex_products`."""
    k = _axis_band_modes(n, band, last)
    eye = np.eye(n)
    if last:
        fwd = np.ascontiguousarray(np.fft.rfft(eye)[:, k]).view(float)
        inv = np.fft.irfft(np.eye(2 * k.size).view(complex), n=n)
    else:
        fwd, inv = np.fft.fft(eye, axis=0)[k], np.fft.ifft(eye, axis=0)[:, k]
        fwd, inv = (np.concatenate([M.real, M.imag]) for M in (fwd, inv))
    for M in (fwd, inv):
        M.setflags(write=False)
    return fwd, inv


def _complex_products(spec: np.ndarray, axis: int, M: np.ndarray) -> np.ndarray:
    """The complex matrix G = A + iB given as M = [A; B] (2p, q), applied
    along `axis` (negative, not the last) of the C-contiguous complex `spec`:
    one real product on its interleaved float view gives AZ and BZ, and
    GZ = AZ + i BZ."""
    shape = spec.shape
    p = M.shape[0] // 2
    parts = np.matmul(M, spec.view(float).reshape(
        math.prod(shape[:axis]), shape[axis], -1)).view(complex)
    out = parts[:, p:] * 1j
    out += parts[:, :p]
    return out.reshape(shape[:axis] + (p,) + shape[axis + 1:])


def band_spectrum(values: np.ndarray, grid: PeriodicGrid, band: int) -> np.ndarray:
    """Forward transform over the trailing grid axes, pruned to |k_a| <= band:
    one real product per axis with `_band_matrices`, the last axis first and
    then the others outermost first, so each product runs few batches."""
    n = grid.dims[-1]
    fwd, _ = _band_matrices(n, band, True)
    spec = np.matmul(values.reshape(-1, n), fwd).view(complex).reshape(
        values.shape[:-1] + (-1,))
    for a in range(-grid.rank, -1):
        spec = _complex_products(spec, a, _band_matrices(grid.dims[a], band,
                                                         False)[0])
    return spec


def from_band_spectrum(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The inverse of `band_spectrum`: one real product per axis with
    `_band_matrices` (the band read off the shape), innermost first and the
    last axis last, so each product runs few batches."""
    spec = np.ascontiguousarray(spec)
    for a in range(-2, -grid.rank - 1, -1):
        spec = _complex_products(spec, a, _band_matrices(
            grid.dims[a], spec.shape[a] // 2, False)[1])
    _, inv = _band_matrices(grid.dims[-1], spec.shape[-1] - 1, True)
    return np.matmul(spec.view(float), inv)


def laplacian_values(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Sum of repeated spectral partials over all axes: one real-FFT round
    trip with the cached -|k|^2 symbol."""
    spec = half_spectrum(values, grid)
    spec *= _laplacian_symbol(grid.dims, grid.lengths)
    return from_half_spectrum(spec, grid)


@dataclass
class ScalarField:
    """Real values sampled on a PeriodicGrid (axis-last-fastest layout)."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.dims:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid dims {self.grid.dims}")

    @classmethod
    def constant(cls, grid: PeriodicGrid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.dims, float(value)))

    @classmethod
    def from_function(cls, grid: PeriodicGrid, func) -> "ScalarField":
        return cls(grid, np.asarray(func(*grid.coordinates()), dtype=float)
                   * np.ones(grid.dims))

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def mean(self) -> float:
        return float(self.values.mean())


def integrate(f: ScalarField) -> float:
    """Integral over the torus: mean value times the total volume."""
    return float(f.values.mean() * f.grid.volume)
