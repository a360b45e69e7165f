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
the second axis.  Longer axes use one rfft/irfft pair.  Only `deriv_values`,
the one derivative kernel, reads the matrices.  A Fourier multiplier over
all grid axes goes forward with `half_spectrum` and back with
`from_half_spectrum`; the Laplacian is one such round trip.  Band-limited data
(|k_a| <= band) take the pruned pair `band_spectrum`/`from_band_spectrum`
(Markel, "FFT pruning", 1971): an rfft, then an fft per axis, each axis cut to
its band before the next; back, the zeros go in before each ifft, then an
irfft.  The linear models step exactly: `propagate` multiplies a carried half
spectrum by e^{dt*symbol}, for the Laplacian's symbol or for that of -dd*
(Nyquist zeroed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalBlowup

TWO_PI = 2.0 * np.pi

# Longest axis differentiated by the dense matrix.  On one core, per axis of
# three components, the product beats the rfft/irfft pair by 1.3-6x at 16 to
# 32 points (the 4D flow), costs about the same at 128 (the 128^2 soliton and
# fast-diffusion grids) and about twice as much at 256; 512-point axes stay on
# the FFT.
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


def _half_symbol(dims: tuple, lengths: tuple, nyquist: bool) -> np.ndarray:
    """-sum_j k_j^2 on the rfftn half spectrum (last axis halved), with each
    axis's Nyquist wavenumber kept or zeroed."""
    ks = []
    for a, (n, L) in enumerate(zip(dims, lengths)):
        freq = np.fft.rfftfreq if a == len(dims) - 1 else np.fft.fftfreq
        k = freq(n, 1.0 / n) * (TWO_PI / L)
        if not nyquist:
            k[n // 2] = 0.0
        ks.append(k)
    total = -sum(k ** 2 for k in np.meshgrid(*ks, indexing="ij", sparse=True))
    total.setflags(write=False)
    return total


@functools.lru_cache(maxsize=None)
def _laplacian_symbol(dims: tuple, lengths: tuple) -> np.ndarray:
    """-|k|^2 on the half spectrum, Nyquist kept: the Laplacian."""
    return _half_symbol(dims, lengths, True)


@functools.lru_cache(maxsize=None)
def _dd_symbol(dims: tuple, lengths: tuple) -> np.ndarray:
    """-sum_j k'_j^2 with k' the Nyquist-zeroed wavenumber of `_ik_symbol`:
    the symbol of -dd* on closed forms, sum_j D_j^2 componentwise.  Not the
    Laplacian's: it leaves each axis's Nyquist mode undamped on that axis."""
    return _half_symbol(dims, lengths, False)


@functools.lru_cache(maxsize=8)
def _propagator(symbol, dims: tuple, lengths: tuple, dt: float) -> np.ndarray:
    """e^{dt * symbol} on the half spectrum: the exact step of s' = symbol * s."""
    factor = np.exp(dt * symbol(dims, lengths))
    factor.setflags(write=False)
    return factor


def propagate(spec: np.ndarray, symbol, grid: PeriodicGrid,
              dt: float) -> np.ndarray:
    """The half spectrum `spec` advanced by dt under the cached `_propagator`
    of `symbol`; raises NumericalBlowup if it is not finite."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    out = spec * _propagator(symbol, grid.dims, grid.lengths, dt)
    # twice the sum of |Re| + |Im| bounds every partial sum of the inverse
    # transform: while it is finite, so are the values rebuilt from out
    check_finite(2.0 * np.abs(out.view(float)).sum(), "exact step")
    return out


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


def deriv_values(values: np.ndarray, grid: PeriodicGrid, axis: int,
                 out: np.ndarray = None, minus: bool = False) -> np.ndarray:
    """Spectral partial derivative along a grid axis, negated with `minus`
    (exactly), into `out` (C-contiguous, shaped as `values`) if given.

    `values` may carry leading component axes; the grid axes are the trailing
    `grid.rank` axes of the array.  An axis of at most DENSE_MAX points takes
    one matrix product per component with the cached differentiation matrix
    (on a rank-4 grid's first axis, one per slab of the second axis),
    applied to each line minus its first sample, so that constants map to
    exactly 0; the lines of one component at a time go through one scratch
    field.  A longer axis takes one rfft/irfft pair.
    """
    lead = values.ndim - grid.rank
    n, length = grid.dims[axis], grid.lengths[axis]
    if n > DENSE_MAX:
        spec = np.fft.rfft(values, axis=lead + axis)
        spec *= _ik_symbol(n, length, grid.rank - axis - 1) * (-1.0 if minus else 1.0)
        return np.fft.irfft(spec, n=n, axis=lead + axis, out=out)
    out = np.empty(values.shape) if out is None else out
    D = _diff_matrix(n, length, minus)
    shape = values.shape[lead:]
    first = (slice(None),) * axis + (slice(0, 1),)
    trail = math.prod(shape[axis + 1:])
    batch, order = (-1, n, trail), (0, 1, 2)  # (batches, n, columns), axis order
    if axis == 0 and grid.rank == 4:  # one (n0, n2 n3) per slab: same bits
        batch, order = (n, shape[1], -1), (1, 0, 2)
    lines = np.empty(shape)
    for c in np.ndindex(values.shape[:lead]):
        np.subtract(values[c], values[c][first], out=lines)
        if trail == 1:
            np.matmul(lines.reshape(-1, n), D.T, out=out[c].reshape(-1, n))
        else:
            np.matmul(D, lines.reshape(batch).transpose(order),
                      out=out[c].reshape(batch).transpose(order))
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


def _band_modes(dims: tuple, band: int) -> list:
    """Per grid axis, the band cube's integer k (fft order, k >= 0 on the last)."""
    ks = [np.fft.ifftshift(np.arange(-(n // 2), n - n // 2)) for n in dims[:-1]]
    ks.append(np.arange(dims[-1] // 2 + 1))
    return np.meshgrid(*(k[np.abs(k) <= band] for k in ks), indexing="ij", sparse=True)


def band_spectrum(values: np.ndarray, grid: PeriodicGrid, band: int) -> np.ndarray:
    """Forward transform over the trailing grid axes, pruned to |k_a| <= band."""
    modes = _band_modes(grid.dims, band)
    spec = np.fft.rfft(values)[..., :modes[-1].size]
    for a in range(-2, -grid.rank - 1, -1):
        spec = np.fft.fft(spec, axis=a).take(modes[a].ravel(), axis=a)
    return spec


def from_band_spectrum(spec: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """The inverse of `band_spectrum`: zeros put back and an ifft per axis."""
    for a in range(-grid.rank, -1):
        m = spec.shape[a]
        spec = np.fft.ifft(np.insert(spec, [(m + 1) // 2] * (grid.dims[a] - m),
                                     0, axis=a), axis=a)
    return np.fft.irfft(spec, n=grid.dims[-1])


class SpectralValues:
    """Values on `grid` (its axes trailing) and their `half_spectrum`: two
    views of one state of a model that steps the spectrum.  Built from
    either one; the other is made on first read, with one real transform,
    and kept."""

    def __init__(self, grid: PeriodicGrid, values=None, spectrum=None):
        if grid is None or values is None and spectrum is None:
            raise ValueError("a state needs values, or a grid and a spectrum")
        self.grid, self._values, self._spectrum = grid, values, spectrum

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = from_half_spectrum(self._spectrum, self.grid)
        return self._values

    @property
    def spectrum(self) -> np.ndarray:
        if self._spectrum is None:
            self._spectrum = half_spectrum(self._values, self.grid)
        return self._spectrum


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
