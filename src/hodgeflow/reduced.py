"""Dimension-reduced models on the 2-torus and circle, with embedding maps
into the full 4D flow for cross-validation.

Product data reduce the conformal flow to the fast diffusion equation
du/dt = 2 Lap(sqrt(u)); shear data (a, b) reduce it to a coupled system;
the u^-2 b weight reduces to inverse diffusion dv/dt = Lap(-1/v) on each
factor; the sqrt(b)/u weight reduces to log diffusion dv/dt = Lap(log v).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import calculus, forms
from .errors import DegenerateForm, NumericalBlowup, CohomologyMismatch
from .forms import DEFAULT_U_FLOOR, PAIR_INDEX, TwoForm
from .grid import (PeriodicGrid, ScalarField, check_finite, deriv_values,
                   integrate, laplacian_values)

MODELS = ("fast_diffusion", "ab_system", "inverse_diffusion",
          "log_diffusion", "heat")

# Models whose unknown must stay positive (checked against u_floor).
_POSITIVE_MODELS = ("fast_diffusion", "inverse_diffusion", "log_diffusion")


@dataclass
class ReducedState:
    model: str
    fields: tuple  # one ScalarField, or (a, b) for the shear system
    t: float = 0.0
    step: int = 0
    dt: float = 0.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown reduced model {self.model!r}")
        self.fields = tuple(self.fields)
        n = 2 if self.model == "ab_system" else 1
        if len(self.fields) != n:
            raise ValueError(f"model {self.model!r} needs {n} field(s)")


@dataclass
class ReducedRecord:
    t: float
    dt: float
    mass: float
    minU: float
    maxU: float


def _check_positive(values: np.ndarray, u_floor: float, what: str) -> None:
    m = float(values.min())
    if m <= u_floor:
        raise DegenerateForm(f"min {what} = {m:.6g} at/below floor {u_floor:.3g}")


def fast_diffusion_rhs(u: ScalarField,
                       u_floor: float = DEFAULT_U_FLOOR) -> ScalarField:
    """du/dt = 2 Lap(sqrt(u)); mass-conserving.

    2 Lap(sqrt(u)) = div(u^-1/2 grad u), so the diffusivity is u^-1/2.  About
    u = 1 the equation linearizes to the heat equation v_t = Lap(v): a mode
    e^{ik.x} decays like e^{-|k|^2 t}.
    """
    _check_positive(u.values, u_floor, "u")
    return ScalarField(u.grid, 2.0 * laplacian_values(np.sqrt(u.values), u.grid))


def shear_potential_values(a: ScalarField, b: ScalarField) -> np.ndarray:
    """u = 1 - a_x1 b_x2 + a_x2 b_x1 for the shear pair on T^2."""
    ax1 = deriv_values(a.values, a.grid, 0)
    ax2 = deriv_values(a.values, a.grid, 1)
    bx1 = deriv_values(b.values, b.grid, 0)
    bx2 = deriv_values(b.values, b.grid, 1)
    return 1.0 - ax1 * bx2 + ax2 * bx1


def ab_system_rhs(a: ScalarField, b: ScalarField,
                  u_floor: float = DEFAULT_U_FLOOR):
    """da/dt = Lap(a)/sqrt(u), db/dt = Lap(b)/sqrt(u)."""
    u = shear_potential_values(a, b)
    _check_positive(u, u_floor, "u")
    root = np.sqrt(u)
    return (ScalarField(a.grid, laplacian_values(a.values, a.grid) / root),
            ScalarField(b.grid, laplacian_values(b.values, b.grid) / root))


def inverse_diffusion_rhs(v: ScalarField,
                          u_floor: float = DEFAULT_U_FLOOR) -> ScalarField:
    """dv/dt = Lap(-1/v); mass-conserving."""
    _check_positive(v.values, u_floor, "v")
    return ScalarField(v.grid, laplacian_values(-1.0 / v.values, v.grid))


def log_diffusion_rhs(v: ScalarField,
                      u_floor: float = DEFAULT_U_FLOOR) -> ScalarField:
    """dv/dt = Lap(log v); mass-conserving."""
    _check_positive(v.values, u_floor, "v")
    return ScalarField(v.grid, laplacian_values(np.log(v.values), v.grid))


def heat_rhs(f: ScalarField) -> ScalarField:
    return ScalarField(f.grid, laplacian_values(f.values, f.grid))


def _rhs(state: ReducedState, u_floor: float):
    if state.model == "fast_diffusion":
        return (fast_diffusion_rhs(state.fields[0], u_floor),)
    if state.model == "ab_system":
        return ab_system_rhs(state.fields[0], state.fields[1], u_floor)
    if state.model == "inverse_diffusion":
        return (inverse_diffusion_rhs(state.fields[0], u_floor),)
    if state.model == "log_diffusion":
        return (log_diffusion_rhs(state.fields[0], u_floor),)
    return (heat_rhs(state.fields[0]),)


def _diffusivity_max(state: ReducedState, u_floor: float) -> float:
    """Largest pointwise diffusion coefficient, for the parabolic step bound."""
    if state.model == "heat":
        return 1.0
    if state.model == "ab_system":
        u = shear_potential_values(*state.fields)
        _check_positive(u, u_floor, "u")
        return float((1.0 / np.sqrt(u)).max())
    v = state.fields[0].values
    _check_positive(v, u_floor, state.model[0])
    if state.model == "fast_diffusion":
        return float((1.0 / np.sqrt(v)).max())
    if state.model == "inverse_diffusion":
        return float((1.0 / v ** 2).max())
    return float((1.0 / v).max())  # log_diffusion


def reduced_cfl_dt(state: ReducedState, safety: float = 0.25,
                   u_floor: float = DEFAULT_U_FLOOR) -> float:
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must be in (0, 1]")
    grid = state.fields[0].grid
    h_min = min(grid.spacings)
    return safety * h_min ** 2 / (2.0 * grid.rank * _diffusivity_max(state, u_floor))


def _positivity_field(state: ReducedState) -> np.ndarray:
    if state.model == "ab_system":
        return shear_potential_values(*state.fields)
    return state.fields[0].values


def _record(state: ReducedState) -> ReducedRecord:
    vals = _positivity_field(state)
    grid = state.fields[0].grid
    return ReducedRecord(t=state.t, dt=state.dt,
                         mass=integrate(ScalarField(grid, vals)),
                         minU=float(vals.min()), maxU=float(vals.max()))


def step_rk4_reduced(state: ReducedState, dt: float,
                     u_floor: float = DEFAULT_U_FLOOR) -> ReducedState:
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = state.fields[0].grid

    def offset(base, ks, factor):
        moved = tuple(ScalarField(grid, f.values + factor * k.values)
                      for f, k in zip(base.fields, ks))
        return ReducedState(state.model, moved, t=state.t, step=state.step)

    k1 = _rhs(state, u_floor)
    k2 = _rhs(offset(state, k1, 0.5 * dt), u_floor)
    k3 = _rhs(offset(state, k2, 0.5 * dt), u_floor)
    k4 = _rhs(offset(state, k3, dt), u_floor)
    new_fields = []
    for f, a, b, c, d in zip(state.fields, k1, k2, k3, k4):
        vals = f.values + (dt / 6.0) * (a.values + 2 * b.values
                                        + 2 * c.values + d.values)
        check_finite(vals, "reduced step")
        new_fields.append(ScalarField(grid, vals))
    new = ReducedState(state.model, tuple(new_fields),
                       t=state.t + dt, step=state.step + 1, dt=dt)
    if state.model in _POSITIVE_MODELS:
        _check_positive(new.fields[0].values, u_floor, "field")
    elif state.model == "ab_system":
        _check_positive(shear_potential_values(*new.fields), u_floor, "u")
    return new


def run_reduced(state: ReducedState, t_end: float,
                sample_every: Optional[float] = None, safety: float = 0.25,
                u_floor: float = DEFAULT_U_FLOOR,
                fixed_dt: Optional[float] = None):
    """March a reduced model to t_end; returns (trajectory, final, event)."""
    from .flows import DegeneracyEvent

    if sample_every is None:
        sample_every = max(t_end / 20.0, 1e-12)
    trajectory = [_record(state)]
    next_sample = sample_every
    event = None
    while state.t < t_end - 1e-14:
        try:
            dt = fixed_dt if fixed_dt is not None else \
                reduced_cfl_dt(state, safety, u_floor)
            dt = min(dt, t_end - state.t)
            state = step_rk4_reduced(state, dt, u_floor)
        except DegenerateForm:
            vals = _positivity_field(state)
            loc = np.unravel_index(int(np.argmin(vals)), vals.shape)
            event = DegeneracyEvent(t=state.t, location=tuple(int(i) for i in loc),
                                    min_u=float(vals.min()), cause="u_floor")
            break
        except NumericalBlowup:
            vals = _positivity_field(state)
            loc = np.unravel_index(int(np.argmin(vals)), vals.shape)
            event = DegeneracyEvent(t=state.t, location=tuple(int(i) for i in loc),
                                    min_u=float(vals.min()), cause="blowup")
            break
        if state.t >= next_sample - 1e-12 or state.t >= t_end - 1e-14:
            trajectory.append(_record(state))
            while next_sample <= state.t + 1e-12:
                next_sample += sample_every
    return trajectory, state, event


# ---------------------------------------------------------------------------
# embeddings into the full four-dimensional flow


def _lifted_grid(grid2: PeriodicGrid, dims34=(8, 8), lengths34=None) -> PeriodicGrid:
    if grid2.rank != 2:
        raise ValueError("embedding expects a rank-2 grid")
    lengths34 = lengths34 or (2.0 * np.pi, 2.0 * np.pi)
    return PeriodicGrid(grid2.dims + tuple(dims34),
                        grid2.lengths + tuple(lengths34))


def _lift(values: np.ndarray, grid4: PeriodicGrid) -> np.ndarray:
    return np.broadcast_to(values[:, :, None, None], grid4.dims).copy()


def embed_product(u2: ScalarField, dims34=(8, 8)) -> TwoForm:
    """rho = u2(x1,x2) dx1^dx2 + dx3^dx4, lifted constantly along axes 3, 4."""
    area = u2.grid.volume
    if abs(integrate(u2) - area) > 1e-8 * max(1.0, area):
        raise CohomologyMismatch(
            f"mean of u2 is {integrate(u2) / area:.12g}, expected 1")
    grid4 = _lifted_grid(u2.grid, dims34)
    rho = TwoForm.zero(grid4)
    rho.comps[PAIR_INDEX[(0, 1)]] = _lift(u2.values, grid4)
    rho.comps[PAIR_INDEX[(2, 3)]] = 1.0
    return rho


def embed_ab(a: ScalarField, b: ScalarField, dims34=(8, 8),
             u_floor: float = DEFAULT_U_FLOOR) -> TwoForm:
    """rho = omega + d(a dx3 + b dx4) for shear potentials a, b on (x1, x2)."""
    if a.grid != b.grid:
        raise ValueError("a and b must share a grid")
    grid4 = _lifted_grid(a.grid, dims34)
    rho = forms.omega(grid4)
    rho.comps[PAIR_INDEX[(0, 2)]] = _lift(deriv_values(a.values, a.grid, 0), grid4)
    rho.comps[PAIR_INDEX[(1, 2)]] = _lift(deriv_values(a.values, a.grid, 1), grid4)
    rho.comps[PAIR_INDEX[(0, 3)]] = _lift(deriv_values(b.values, b.grid, 0), grid4)
    rho.comps[PAIR_INDEX[(1, 3)]] = _lift(deriv_values(b.values, b.grid, 1), grid4)
    _check_positive(forms.volume_potential_values(rho), u_floor, "u")
    return rho


def embed_product_vw(v: ScalarField, w: ScalarField) -> TwoForm:
    """rho = v(x1,x2) dx1^dx2 + w(x3,x4) dx3^dx4 on the combined grid."""
    for f, name in ((v, "v"), (w, "w")):
        area = f.grid.volume
        if abs(integrate(f) - area) > 1e-8 * max(1.0, area):
            raise CohomologyMismatch(f"mean of {name} must be 1")
    grid4 = PeriodicGrid(v.grid.dims + w.grid.dims, v.grid.lengths + w.grid.lengths)
    rho = TwoForm.zero(grid4)
    rho.comps[PAIR_INDEX[(0, 1)]] = np.broadcast_to(
        v.values[:, :, None, None], grid4.dims).copy()
    rho.comps[PAIR_INDEX[(2, 3)]] = np.broadcast_to(
        w.values[None, None, :, :], grid4.dims).copy()
    return rho
