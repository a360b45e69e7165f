"""Right-hand sides and time integration for the nonlinear Hodge flows.

The update is always assembled as d(sigma) for the 1-form
sigma_i = -h_ik (d* rho)_k, so every step changes rho by an exact form and
the cohomology class is preserved structurally.  The componentwise form
of the equation is kept in the diagnostics module as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import calculus, forms
from .errors import DegenerateForm, NumericalBlowup
from .forms import DEFAULT_U_FLOOR, FlowScheme, TwoForm
from .grid import PeriodicGrid, check_finite


@dataclass
class FlowState:
    rho: TwoForm
    t: float = 0.0
    step: int = 0
    dt: float = 0.0


@dataclass
class DegeneracyEvent:
    """Terminal record: the volume potential hit the floor (or blew up)."""

    t: float
    location: tuple
    min_u: float
    cause: str  # "u_floor" or "blowup"


def _check_u(rho: TwoForm, u_floor: float) -> np.ndarray:
    u = forms.volume_potential_values(rho)
    m = float(u.min())
    if m <= u_floor:
        raise DegenerateForm(f"min u = {m:.6g} hit floor {u_floor:.3g}")
    return u


def flow_rhs(rho: TwoForm, scheme: FlowScheme,
             u_floor: float = DEFAULT_U_FLOOR) -> TwoForm:
    """d(sigma) with sigma = -h (d* rho); dissipates the Hodge energy."""
    xi = calculus.codiff_two(rho)
    if scheme.is_scalar:
        factor = forms.scalar_weight_values(rho, scheme, u_floor)
        sigma = calculus.OneForm(rho.grid, -factor * xi.comps)
    else:
        h = forms.weight_h(rho, scheme, u_floor)
        sigma = calculus.OneForm(
            rho.grid, -np.einsum("ik...,k...->i...", h.entries, xi.comps))
    return calculus.d_one(sigma)


def conformal_rhs(rho: TwoForm, u_floor: float = DEFAULT_U_FLOOR) -> TwoForm:
    """-d(d* rho / sqrt(u)), written out directly.

    Algebraically identical to flow_rhs with the power_u(1/2) scheme; kept
    as a separate code path for cross-validation.
    """
    u = _check_u(rho, u_floor)
    xi = calculus.codiff_two(rho)
    sigma = calculus.OneForm(rho.grid, -xi.comps / np.sqrt(u))
    return calculus.d_one(sigma)


def parabolic1_rhs(rho: TwoForm, scheme: FlowScheme,
                   u_floor: float = DEFAULT_U_FLOOR) -> TwoForm:
    """Strictly parabolic regularization: flow_rhs plus a d(rho) term.

    The second term *d(h (*d rho)) vanishes (to rounding) on closed forms,
    so on the flows of interest this coincides with flow_rhs.
    """
    first = flow_rhs(rho, scheme, u_floor)
    star_drho = calculus.star_three(calculus.d_two(rho))
    if scheme.is_scalar:
        factor = forms.scalar_weight_values(rho, scheme, u_floor)
        weighted = calculus.OneForm(rho.grid, factor * star_drho.comps)
    else:
        h = forms.weight_h(rho, scheme, u_floor)
        weighted = calculus.OneForm(
            rho.grid, np.einsum("ik...,k...->i...", h.entries, star_drho.comps))
    second = forms.hodge_star(calculus.d_one(weighted))
    return TwoForm(rho.grid, first.comps + second.comps)


def cfl_dt(rho: TwoForm, scheme: FlowScheme, safety: float = 0.25,
           u_floor: float = DEFAULT_U_FLOOR) -> float:
    """Parabolic step bound: safety * h_min^2 / (2 * rank * max spec radius of h)."""
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety must be in (0, 1]")
    radius = float(forms.weight_spectral_radius(rho, scheme, u_floor).max())
    h_min = min(rho.grid.spacings)
    return safety * h_min ** 2 / (2.0 * rho.grid.rank * radius)


def step_rk4(state: FlowState, dt: float, scheme: FlowScheme,
             u_floor: float = DEFAULT_U_FLOOR,
             rhs: Optional[Callable[[TwoForm], TwoForm]] = None) -> FlowState:
    """Classical four-stage explicit update; every stage re-checks u > floor."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if rhs is None:
        rhs = lambda r: flow_rhs(r, scheme, u_floor)
    r0 = state.rho

    def stage(r: TwoForm) -> TwoForm:
        _check_u(r, u_floor)
        return rhs(r)

    k1 = stage(r0)
    k2 = stage(TwoForm(r0.grid, r0.comps + 0.5 * dt * k1.comps))
    k3 = stage(TwoForm(r0.grid, r0.comps + 0.5 * dt * k2.comps))
    k4 = stage(TwoForm(r0.grid, r0.comps + dt * k3.comps))
    new = TwoForm(r0.grid, r0.comps + (dt / 6.0)
                  * (k1.comps + 2.0 * k2.comps + 2.0 * k3.comps + k4.comps))
    check_finite(new.comps, "TwoForm")
    _check_u(new, u_floor)
    return FlowState(rho=new, t=state.t + dt, step=state.step + 1, dt=dt)


def _degeneracy_event(state: FlowState, cause: str) -> DegeneracyEvent:
    u = forms.volume_potential_values(state.rho)
    loc = np.unravel_index(int(np.argmin(u)), u.shape)
    return DegeneracyEvent(t=state.t, location=tuple(int(i) for i in loc),
                           min_u=float(u.min()), cause=cause)


def run_flow(initial: TwoForm, scheme: FlowScheme, t_end: float,
             sample_every: float, safety: float = 0.25,
             u_floor: float = DEFAULT_U_FLOOR, q1_weight: float = 10.0,
             monitor_a: float = 10.0, monitor_b: float = 100.0,
             fixed_dt: Optional[float] = None,
             rhs: Optional[Callable[[TwoForm], TwoForm]] = None):
    """Integrate the flow, sampling diagnostics at the requested cadence.

    Returns (trajectory, final_state, event); `event` is None on a clean run
    and a DegeneracyEvent when the volume potential hits the floor or the
    fields blow up.  Never raises for those terminal conditions.
    """
    from . import diagnostics

    closedness = calculus.max_abs_three(calculus.d_two(initial))
    if closedness > 1e-8:
        raise ValueError(f"initial form is not closed: max |d rho| = {closedness:.3g}")
    _check_u(initial, u_floor)

    ref_periods = calculus.periods(initial)
    state = FlowState(rho=initial.copy(), t=0.0, step=0, dt=0.0)

    def record(st: FlowState) -> diagnostics.TrajectoryRecord:
        return diagnostics.make_record(st.rho, st.t, st.dt, ref_periods,
                                       q1_weight=q1_weight, monitor_a=monitor_a,
                                       monitor_b=monitor_b, u_floor=u_floor)

    trajectory = [record(state)]
    next_sample = sample_every
    event = None
    while state.t < t_end - 1e-14:
        dt = fixed_dt if fixed_dt is not None else cfl_dt(state.rho, scheme, safety, u_floor)
        dt = min(dt, t_end - state.t)
        try:
            state = step_rk4(state, dt, scheme, u_floor, rhs=rhs)
        except DegenerateForm:
            event = _degeneracy_event(state, "u_floor")
            break
        except NumericalBlowup:
            event = _degeneracy_event(state, "blowup")
            break
        if state.t >= next_sample - 1e-12 or state.t >= t_end - 1e-14:
            trajectory.append(record(state))
            while next_sample <= state.t + 1e-12:
                next_sample += sample_every
    return trajectory, state, event
