"""Dimension-reduced models on the 2-torus and circle, with embedding maps
into the full 4D flow for cross-validation.

Product data reduce the conformal flow to the fast diffusion equation
du/dt = 2 Lap(sqrt(u)); shear data (a, b) reduce it to a coupled system;
the u^-2 b weight reduces to inverse diffusion dv/dt = Lap(-1/v) on each
factor; the sqrt(b)/u weight reduces to log diffusion dv/dt = Lap(log v).
Each model is an adapter onto `flows.march`, the nonlinear ones through
`flows.rk4`.  The heat model is linear with constant coefficients, so it is
stepped exactly: each mode is multiplied by e^{-dt |k|^2}, with no step
bound, so a march steps from sample to sample.  It stays in Fourier space:
one forward transform when it starts, and one inverse transform for each
state whose values are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import forms
from .errors import CohomologyMismatch
from .flows import march, parabolic_dt, rk4
from .forms import PAIR_INDEX, TwoForm
from .grid import (PeriodicGrid, ScalarField, SpectralValues,
                   _laplacian_symbol, deriv_values, gradient_values, integrate,
                   laplacian_values, propagate)

MODELS = ("fast_diffusion", "ab_system", "inverse_diffusion",
          "log_diffusion", "heat")


class ReducedState(SpectralValues):
    """A reduced model's fields at time t: `values` stacks them, shape
    (fields, *dims), and `spectrum` is their half spectrum (see
    `grid.SpectralValues`).  Built from `fields`, or from `grid` and
    `spectrum`.  The heat march steps the spectrum, so it reads the values
    only where something uses them.
    """

    def __init__(self, model: str, fields: Optional[tuple] = None,
                 t: float = 0.0, step: int = 0, dt: float = 0.0, *,
                 grid: Optional[PeriodicGrid] = None,
                 spectrum: Optional[np.ndarray] = None):
        if model not in MODELS:
            raise ValueError(f"unknown reduced model {model!r}")
        n = 2 if model == "ab_system" else 1
        given = tuple(fields) if fields is not None else spectrum
        if given is None or len(given) != n:
            raise ValueError(f"model {model!r} needs {n} field(s), or a grid "
                             f"and their stacked spectrum")
        values = None
        if fields is not None:
            grid, values = given[0].grid, np.stack([f.values for f in given])
        super().__init__(grid, values, spectrum)
        self.model, self.t, self.step, self.dt = model, t, step, dt
        self._fields = None

    @property
    def fields(self) -> tuple:
        """One ScalarField, or (a, b) for the shear system: rows of `values`."""
        if self._fields is None:
            self._fields = tuple(ScalarField(self.grid, v) for v in self.values)
        return self._fields


@dataclass
class ReducedRecord:
    t: float
    dt: float
    mass: float
    minU: float
    maxU: float


def _shear_u(y: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """u = 1 - a_x1 b_x2 + a_x2 b_x1 from the stacked values y = (a, b)."""
    (ax1, bx1), (ax2, bx2) = gradient_values(y, grid)
    return 1.0 - ax1 * bx2 + ax2 * bx1


def rhs_values(model: str, y: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Right-hand side of a nonlinear `model` on stacked field values y,
    (fields, *dims).

    fast_diffusion: du/dt = 2 Lap(sqrt(u)) = div(u^-1/2 grad u), so the
    diffusivity is u^-1/2.  About u = 1 it linearizes to the heat equation
    v_t = Lap(v): a mode e^{ik.x} decays like e^{-|k|^2 t}.
    """
    if model == "ab_system":
        u = _shear_u(y, grid)
        forms.require_above_floor(u)
        return laplacian_values(y, grid) / np.sqrt(u)
    forms.require_above_floor(y, "u" if model == "fast_diffusion" else "v")
    if model == "fast_diffusion":
        return 2.0 * laplacian_values(np.sqrt(y), grid)
    if model == "inverse_diffusion":
        return laplacian_values(-1.0 / y, grid)
    return laplacian_values(np.log(y), grid)  # log_diffusion


def _positivity_field(state: ReducedState) -> np.ndarray:
    """The field each model keeps above the floor (the data itself for heat)."""
    if state.model == "ab_system":
        return _shear_u(state.values, state.grid)
    return state.fields[0].values


def _diffusivity_max(state: ReducedState) -> float:
    """Largest pointwise diffusion coefficient, for the parabolic step bound."""
    v = _positivity_field(state)
    forms.require_above_floor(v)
    if state.model in ("fast_diffusion", "ab_system"):
        return float((1.0 / np.sqrt(v)).max())
    if state.model == "inverse_diffusion":
        return float((1.0 / v ** 2).max())
    return float((1.0 / v).max())  # log_diffusion


def reduced_cfl_dt(state: ReducedState) -> float:
    """`parabolic_dt` for the largest diffusivity; inf for heat, whose step
    is exact."""
    if state.model == "heat":
        return np.inf
    return parabolic_dt(state.grid, _diffusivity_max(state))


def _record(state: ReducedState) -> ReducedRecord:
    vals = _positivity_field(state)
    return ReducedRecord(t=state.t, dt=state.dt,
                         mass=integrate(ScalarField(state.grid, vals)),
                         minU=float(vals.min()), maxU=float(vals.max()))


def step_rk4_reduced(state: ReducedState, dt: float,
                     stats: Optional[dict] = None) -> ReducedState:
    """One RK4 step of the model on its stacked fields; re-checks positivity.
    A given `stats` counts the right-hand sides in `rhs_evals`.

    Heat takes the exact step instead: the half spectrum times e^{dt*lambda},
    lambda = -|k|^2, checked by `propagate`; the new state's values are left
    to be rebuilt by one inverse transform if something reads them.
    """
    grid = state.grid
    if state.model == "heat":
        spec = propagate(state.spectrum, _laplacian_symbol, grid, dt)
        return ReducedState("heat", t=state.t + dt, step=state.step + 1, dt=dt,
                            grid=grid, spectrum=spec)

    def stage(v: np.ndarray) -> np.ndarray:
        if stats is not None:
            stats["rhs_evals"] += 1
        return rhs_values(state.model, v, grid)
    y = rk4(state.values, stage, dt)
    new = ReducedState(state.model, tuple(ScalarField(grid, v) for v in y),
                       t=state.t + dt, step=state.step + 1, dt=dt)
    forms.require_above_floor(_positivity_field(new))
    return new


def run_reduced(state: ReducedState, t_end: float,
                sample_every: Optional[float] = None,
                fixed_dt: Optional[float] = None, stats: Optional[dict] = None):
    """March a reduced model to t_end; returns (trajectory, final, event), and
    fills `stats` as `march` does."""
    if sample_every is None:
        sample_every = max(t_end / 20.0, 1e-12)
    return march(state, lambda st, dt: step_rk4_reduced(st, dt, stats),
                 reduced_cfl_dt, t_end, sample_every,
                 _record, _positivity_field, fixed_dt, stats,
                 state.model == "heat")


# ---------------------------------------------------------------------------
# embeddings into the full four-dimensional flow


def _lifted_grid(grid2: PeriodicGrid, dims34=(8, 8)) -> PeriodicGrid:
    if grid2.rank != 2:
        raise ValueError("embedding expects a rank-2 grid")
    return PeriodicGrid(grid2.dims + tuple(dims34),
                        grid2.lengths + (2.0 * np.pi, 2.0 * np.pi))


def _lift(values: np.ndarray, grid4: PeriodicGrid) -> np.ndarray:
    return np.broadcast_to(values[:, :, None, None], grid4.dims).copy()


def embed_product(u2: ScalarField, dims34=(8, 8)) -> TwoForm:
    """rho = u2(x1,x2) dx1^dx2 + dx3^dx4, lifted constantly along axes 3, 4."""
    return embed_product_vw(u2, ScalarField.constant(PeriodicGrid(dims34), 1.0))


def embed_ab(a: ScalarField, b: ScalarField, dims34=(8, 8)) -> TwoForm:
    """rho = omega + d(a dx3 + b dx4) for shear potentials a, b on (x1, x2)."""
    if a.grid != b.grid:
        raise ValueError("a and b must share a grid")
    grid4 = _lifted_grid(a.grid, dims34)
    rho = forms.omega(grid4)
    rho.comps[PAIR_INDEX[(0, 2)]] = _lift(deriv_values(a.values, a.grid, 0), grid4)
    rho.comps[PAIR_INDEX[(1, 2)]] = _lift(deriv_values(a.values, a.grid, 1), grid4)
    rho.comps[PAIR_INDEX[(0, 3)]] = _lift(deriv_values(b.values, b.grid, 0), grid4)
    rho.comps[PAIR_INDEX[(1, 3)]] = _lift(deriv_values(b.values, b.grid, 1), grid4)
    forms.require_above_floor(forms.volume_potential_values(rho))
    return rho


def embed_product_vw(v: ScalarField, w: ScalarField) -> TwoForm:
    """rho = v(x1,x2) dx1^dx2 + w(x3,x4) dx3^dx4 on the combined grid."""
    for f, name in ((v, "v"), (w, "w")):
        if f.grid.rank != 2:
            raise ValueError("embedding expects a rank-2 grid")
        area = f.grid.volume
        if abs(integrate(f) - area) > 1e-8 * max(1.0, area):
            raise CohomologyMismatch(
                f"mean of {name} is {integrate(f) / area:.12g}, expected 1")
    grid4 = PeriodicGrid(v.grid.dims + w.grid.dims, v.grid.lengths + w.grid.lengths)
    rho = TwoForm.zero(grid4)
    rho.comps[PAIR_INDEX[(0, 1)]] = _lift(v.values, grid4)
    rho.comps[PAIR_INDEX[(2, 3)]] = np.broadcast_to(
        w.values[None, None, :, :], grid4.dims).copy()
    return rho
