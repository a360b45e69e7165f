"""Periodic uniform grids and pseudo-spectral differentiation.

All differential operators in the package go through this module.  A first
derivative multiplies the discrete Fourier series by i*k, with the Nyquist
mode's weight zeroed (symmetric convention) so real fields map to real
fields; the Laplacian's -|k|^2 symbol keeps it.  d∘d = 0 and adjointness of d
and its formal adjoint hold to machine precision.

The derivative `deriv_values`, the Laplacian `laplacian_values` (a sum over
axes) and the exponential `exp_values` are three uses of one per-axis
operator: a factor on one axis's half spectrum, i*k, -k^2 or e^{-s k^2}, from
one cached wavenumber table.  Along an axis of at most DENSE_MAX points the
factor is applied as one matrix product with its dense matrix, the transform
of the identity (Trefethen, Spectral Methods in MATLAB, ch. 3): on the short
axes of the 4D flow, handling thousands of 16- to 32-point FFT lines costs
more than the arithmetic; on a 4D grid's first axis it is batched, one
product per slab of the second axis.  It acts on each line minus its first
sample, so constants map to exactly 0.  Longer axes use one rfft/irfft pair.
The linear models step exactly with `exp_values`: e^{sL} for L the Laplacian
(Nyquist kept) or sum_a D_a^2 (Nyquist zeroed, -dd* on closed forms), one
factor per axis.  Only that per-axis apply reads the differentiation (D, -D,
Laplacian) and exponential matrices, whose caches stay apart (the
exponential's is bounded).  The soliton's (c0 (1 - Lap))^{-1}, which does not
factor by axis, is the one n-D transform (`helmholtz_solve`).  Band-limited
data (|k_a| <= band) take the pair `band_spectrum`/`from_band_spectrum`: per
axis, one real product with a cached partial-DFT matrix (the transform of the
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

# Longest axis that takes a dense matrix, for every per-axis factor.
# On one core, per axis of three components, the derivative product beats the
# rfft/irfft pair by 1.3-6x at 16 to 32 points (the 4D flow), costs about the
# same at 128 (the 128^2 soliton and fast-diffusion grids) and about twice as
# much at 256; 512-point axes stay on the FFT.  e^{sL} on one 16^4 form takes
# 2.0 ms as four per-axis products against 9.3 ms for rfftn, the multiplier
# and irfftn.
DENSE_MAX = 128

@functools.lru_cache(maxsize=None)
def _wavenumbers(n: int, length: float, nyquist: bool) -> np.ndarray:
    """One axis's half-spectrum wavenumbers 2*pi*k/L, the Nyquist one kept or
    zeroed (for D, whose i*k must map real fields to real fields)."""
    k = np.fft.rfftfreq(n, 1.0 / n) * (TWO_PI / length)
    if not nyquist:
        k[n // 2] = 0.0
    k.setflags(write=False)
    return k


def _axis_factor(n: int, length: float, op) -> np.ndarray:
    """One axis's Fourier factor on its half spectrum, by `op`: "d" or "-d",
    +-i*k of D (Nyquist zeroed); "lap", -k^2 (Nyquist kept); (s, nyquist),
    e^{-s k^2} with the Nyquist k kept or zeroed."""
    if op == "lap":
        return -_wavenumbers(n, length, True) ** 2
    if isinstance(op, tuple):  # (s, nyquist)
        return np.exp(-op[0] * _wavenumbers(n, length, op[1]) ** 2)
    ik = 1j * _wavenumbers(n, length, False)
    return -ik if op == "-d" else ik


def _identity_matrix(n: int, factor: np.ndarray, sign: float) -> np.ndarray:
    """The n x n matrix of a half-spectrum factor (column j is the image of
    the j-th unit vector), made exactly symmetric (`sign` 1) or antisymmetric
    (-1) and read-only."""
    cols = np.fft.irfft(np.fft.rfft(np.eye(n), axis=0) * factor[:, None],
                        n=n, axis=0)
    M = 0.5 * (cols + sign * cols.T)
    M.setflags(write=False)
    return M


@functools.lru_cache(maxsize=None)
def _diff_matrix(n: int, length: float, op: str) -> np.ndarray:
    """The differentiation matrix of `op` ("d", "-d" or "lap"): D (zero
    diagonal), its negation, or the Laplacian's -k^2."""
    if op == "-d":
        D = -_diff_matrix(n, length, "d")  # the cache key deriv_values uses
        D.setflags(write=False)
        return D
    return _identity_matrix(n, _axis_factor(n, length, op),
                            -1.0 if op == "d" else 1.0)


# Not one cache with _diff_matrix: eight matrices hold two step sizes (the
# bound and the remainder to a sample time) on four distinct axes, and a
# bisection's many step sizes pass through without evicting a derivative.
@functools.lru_cache(maxsize=8)
def _exp_matrix(n: int, length: float, s: float, nyquist: bool) -> np.ndarray:
    """The matrix of e^{-s k^2}."""
    return _identity_matrix(n, _axis_factor(n, length, (s, nyquist)), 1.0)


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


def _axis_apply(values: np.ndarray, grid: PeriodicGrid, axis: int,
                out: np.ndarray, op) -> np.ndarray:
    """The factor `_axis_factor(op)` along grid `axis` of `values`, into
    `out`: up to DENSE_MAX points its cached matrix through `_axis_products`
    (e^{-s k^2} adds each line's first sample back), else rfft, the factor
    and irfft."""
    n, length = grid.dims[axis], grid.lengths[axis]
    if n <= DENSE_MAX:
        exp = isinstance(op, tuple)
        M = _exp_matrix(n, length, *op) if exp else _diff_matrix(n, length, op)
        return _axis_products(values, grid, axis, M, out, exp)
    lead = values.ndim - grid.rank
    spec = np.fft.rfft(values, axis=lead + axis)
    spec *= _axis_factor(n, length, op).reshape(
        (-1,) + (1,) * (grid.rank - axis - 1))
    return np.fft.irfft(spec, n=n, axis=lead + axis, out=out)


def deriv_values(values: np.ndarray, grid: PeriodicGrid, axis: int,
                 out: np.ndarray = None, minus: bool = False) -> np.ndarray:
    """Spectral partial derivative along a grid axis, negated with `minus`
    (exactly), into `out` (C-contiguous, shaped as `values`) if given.

    `values` may carry leading component axes; the grid axes are the trailing
    `grid.rank` axes of the array.  On a dense axis the first-sample
    differences of `_axis_products` map constants to exactly 0.
    """
    out = np.empty(values.shape) if out is None else out
    return _axis_apply(values, grid, axis, out, "-d" if minus else "d")


def exp_values(values: np.ndarray, grid: PeriodicGrid, s: float, *,
               nyquist: bool) -> np.ndarray:
    """e^{sL} on `values` (component axes leading, grid axes trailing), one
    factor per grid axis: L is the Laplacian if `nyquist` (each axis's
    Nyquist mode kept), else sum_a D_a^2 with D_a as in `deriv_values`
    (Nyquist zeroed), which is -dd* on closed forms, componentwise.  On a
    dense axis the first sample of each line is added back, so that a
    constant maps to itself exactly.
    """
    out = np.empty(values.shape)
    for axis in range(grid.rank):
        values = _axis_apply(values, grid, axis, out, (s, nyquist))
    return out


def gradient_values(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """All first partials, shape (rank, *values.shape): out[j] = d_j values."""
    out = np.empty((grid.rank,) + values.shape)
    for axis in range(grid.rank):
        out[axis] = deriv_values(values, grid, axis)
    return out


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
    """Sum of repeated spectral partials over all axes, -k^2 (Nyquist kept)
    on each in turn, summed through one scratch buffer; a dense axis maps
    lines constant along it to exactly 0."""
    out = _axis_apply(values, grid, 0, np.empty(values.shape), "lap")
    buf = np.empty(values.shape)
    for axis in range(1, grid.rank):
        out += _axis_apply(values, grid, axis, buf, "lap")
    return out


@functools.lru_cache(maxsize=None)
def _helmholtz_symbol(dims: tuple, lengths: tuple) -> np.ndarray:
    """1 + |k|^2, the symbol of 1 - Lap, on the rfftn half spectrum (the last
    axis's `_wavenumbers`, Nyquist kept)."""
    ks = [np.fft.fftfreq(n, 1.0 / n) * (TWO_PI / L)
          for n, L in zip(dims[:-1], lengths[:-1])]
    ks.append(_wavenumbers(dims[-1], lengths[-1], True))
    total = 1.0 + sum(k ** 2 for k in np.meshgrid(*ks, indexing="ij", sparse=True))
    total.setflags(write=False)
    return total


def helmholtz_solve(values: np.ndarray, grid: PeriodicGrid, c0: float) -> np.ndarray:
    """(c0 (1 - Lap))^{-1} on `values` (grid axes only), which does not
    factor by axis: one rfftn/irfftn round trip with the cached symbol."""
    axes = tuple(range(grid.rank))
    spec = np.fft.rfftn(values, axes=axes)
    spec /= c0 * _helmholtz_symbol(grid.dims, grid.lengths)
    return np.fft.irfftn(spec, s=grid.dims, axes=axes)


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
