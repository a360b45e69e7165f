"""Constructors for initial data and scripted experiments.

Everything returned here is closed to machine precision, with exact
perturbations of omega (d of a potential, in Fourier space for the random
data; the counterexample adds f dx1^dx3 as well, f a mean-free function of x1
alone) and, except for the degeneracy counterexample run past its breakdown
time, nondegenerate.  The counterexample's heat-evolved profiles take one
exact step, `grid.exp_values`, together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import forms
from .forms import COMPONENT_PAIRS, PAIR_INDEX, TwoForm
from .grid import (TWO_PI, PeriodicGrid, ScalarField, _band_modes, _wavenumbers,
                   band_spectrum, deriv_values, exp_values, from_band_spectrum)

# Fewest points of the 1D grid on which the counterexample's profiles are built.
MIN_N1D = 512


def _band_cube(draw: np.ndarray, grid: PeriodicGrid, band: int) -> np.ndarray:
    """The `band_spectrum` of one standard normal `draw`, |k|^2 <= 1 zeroed
    too: inside the spectral gap, so linearized flows damp it like e^{-2t} or
    faster."""
    spec = band_spectrum(draw, grid, band)
    return spec * (sum(k ** 2 for k in _band_modes(grid.dims, band)) > 1)


def _band_limited_field(rng, grid: PeriodicGrid, band: int) -> np.ndarray:
    """Seeded random real field: one `_band_cube` sent through the inverse."""
    return from_band_spectrum(
        _band_cube(rng.standard_normal(grid.dims), grid, band), grid)


def make_random_near_omega(grid: PeriodicGrid, eps: float, band: int = 4,
                           seed: int = 0) -> TwoForm:
    """omega + d(zeta) for a seeded band-limited 1-form, scaled so the
    perturbation has sup norm eps; re-scaled down if u would dip below 1/2.
    zeta is four `_band_cube`s, drawn in turn into one buffer;
    (d zeta)_ij = ik_i zeta_j - ik_j zeta_i, with `grid`'s Nyquist-zeroed ik,
    is formed on them and synthesized at once.  rho is built in one buffer.
    The band is 1 to n/2 - 1 on the shortest axis (no Nyquist row)."""
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps!r}")
    if eps == 0.0:  # no field is drawn, so the band goes unread
        return forms.omega(grid)
    top = min(grid.dims) // 2 - 1
    if not 1 <= band <= top:
        raise ValueError(f"band must lie in 1 .. {top} on this grid, got {band!r}")
    rng = np.random.default_rng(seed)
    draw = np.empty(grid.dims)
    zeta = [_band_cube(rng.standard_normal(out=draw), grid, band)
            for _ in range(4)]
    ik = [1j * np.sign(k) * _wavenumbers(n, L, False)[np.abs(k)] for k, n, L
          in zip(_band_modes(grid.dims, band), grid.dims, grid.lengths)]
    dzeta = from_band_spectrum(np.stack([ik[i] * zeta[j] - ik[j] * zeta[i]
                                         for i, j in COMPONENT_PAIRS]), grid)
    scale = eps / max(float(dzeta.max()), -float(dzeta.min()))
    comps = np.empty_like(dzeta)
    while True:
        np.multiply(dzeta, scale, out=comps)
        comps[PAIR_INDEX[(0, 1)]] += 1.0  # omega
        comps[PAIR_INDEX[(2, 3)]] += 1.0
        rho = TwoForm(grid, comps)
        if float(forms.volume_potential_values(rho).min()) > 0.5:
            return rho
        scale *= 0.5


# ---------------------------------------------------------------------------
# the degeneracy counterexample for the unweighted flow


def _sample_f0(grid1d: PeriodicGrid) -> np.ndarray:
    """Profile vanishing on the first half circle, sin(2x) on the second."""
    x = grid1d.axis_coordinates(0)
    return np.where(x >= np.pi, np.sin(2.0 * x), 0.0)


def _sample_h0(grid1d: PeriodicGrid) -> np.ndarray:
    """The complementary profile: sin(2x) on [0, pi), zero after."""
    x = grid1d.axis_coordinates(0)
    return np.where(x < np.pi, np.sin(2.0 * x), 0.0)


def counterexample_profiles(grid1d: PeriodicGrid, t: float):
    """The two profiles evolved by the heat equation to time t >= 0: one
    exact step e^{t Lap} (`grid.exp_values`) on both at once."""
    if not t >= 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    profiles = np.stack([_sample_f0(grid1d), _sample_h0(grid1d)])
    if t > 0.0:
        profiles = exp_values(profiles, grid1d, t, nyquist=True)
    return tuple(ScalarField(grid1d, v) for v in profiles)


@dataclass
class CounterexampleScenario:
    """Shear data whose unweighted flow drives u negative in finite time.

    u(x, y, t) = 1 - f(x,t) h(x,t) c(y,t) with f, h heat-evolved profiles of
    disjoint support (so u = 1 exactly at t = 0) and c(y,t) = A0 e^{-t} sin y.
    The threshold amplitude is 1 / max_x |f(x,1) h(x,1)|: u(., ., 1) dips
    below zero exactly when A0 exceeds e times that.
    """

    grid1d: PeriodicGrid
    A0: float
    threshold: float

    def two_form(self, t: float = 0.0, nx: Optional[int] = None, ny: int = 16,
                 dims34=(8, 8)) -> TwoForm:
        """The shear 2-form at time t on an (nx, ny, 8, 8) grid.

        Built as omega + f dx1^dx3 + d(h e dx4), with e' = c: f dx1^dx3 is
        closed (f depends on x1 alone) and exact (f is mean-free), so the
        form is closed to rounding and in [omega].  h e depends on x1, x2
        alone, so d(h e dx4) takes only its d_1 and d_2.  u = 1 - f h c takes
        f as sampled, so u(t=0) = 1 exactly at the nodes, where f h = 0.
        """
        nx = nx or self.grid1d.dims[0]
        f, h = counterexample_profiles(PeriodicGrid((nx,)), t)
        grid4 = PeriodicGrid((nx, ny) + tuple(dims34))
        y = np.arange(ny) * TWO_PI / ny
        e_vals = -self.A0 * np.exp(-t) * np.cos(y)  # antiderivative of c
        theta4 = np.broadcast_to(
            (h.values[:, None] * e_vals[None, :])[:, :, None, None], grid4.dims)
        comps = forms.omega(grid4).comps
        for a in (0, 1):
            comps[PAIR_INDEX[(a, 3)]] += deriv_values(theta4, grid4, a)
        comps[PAIR_INDEX[(0, 2)]] += f.values[:, None, None, None]
        return TwoForm(grid4, comps)


def make_example_counterexample(grid1d: PeriodicGrid,
                                A0="auto") -> CounterexampleScenario:
    """Build the scenario; A0 = "auto" picks twice the degeneracy threshold."""
    if grid1d.rank != 1 or grid1d.dims[0] < MIN_N1D:
        raise ValueError(f"the counterexample needs a rank-1 grid with >= "
                         f"{MIN_N1D} points")
    f1, h1 = counterexample_profiles(grid1d, 1.0)
    peak = float(np.abs(f1.values * h1.values).max())
    threshold = 1.0 / peak
    if A0 == "auto":
        A0 = 2.0 * threshold * np.e
    return CounterexampleScenario(grid1d=grid1d, A0=float(A0), threshold=threshold)
