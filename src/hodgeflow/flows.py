"""Right-hand sides and time integration for the nonlinear Hodge flows.

The update is always assembled as d(sigma) for the 1-form
sigma_i = -h_ik (d* rho)_k, so every step changes rho by an exact form and
the cohomology class is preserved structurally.  The componentwise form
of the equation is kept in the diagnostics module as an independent oracle.
`rk4` and `march` are the one integrator and the one time loop; the reduced
models in `reduced` use them too.  The LINEAR scheme is stepped exactly
instead: on closed forms -dd* rho = sum_j D_j^2 rho componentwise, so a step
is `grid.exp_values` on the components, one factor per axis.  The step is kept
to `cfl_dt`, so that the floor check cannot step over a dip of u; `march`
clips it to the sample times, and bisects the time at which u reaches the
floor.

An RK4 state keeps the `u` of the floor check that accepted it, for its
record, `cfl_dt` and its step, whose first stage reads it and whose end
writes the next state's u over it, and the `xi` = d* rho its record folds,
which that first stage takes off it and writes h xi over.  A LINEAR
state keeps neither.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import calculus, forms
from .errors import DegenerateForm, NumericalBlowup
from .forms import FlowScheme, TwoForm
from .grid import check_finite, exp_values

# Fraction of the parabolic stability bound taken as the step; `fixed_dt`
# takes a smaller one.
CFL_SAFETY = 0.25


@dataclass
class FlowState:
    """The 2-form at time t, with the `u` and `xi` above."""

    rho: TwoForm
    t: float = 0.0
    step: int = 0
    dt: float = 0.0
    u: Optional[np.ndarray] = None
    xi: Optional[np.ndarray] = None


@dataclass
class DegeneracyEvent:
    """Terminal record: the volume potential hit the floor (or blew up).

    `t` is that of the last state that passed the floor check.  On an RK4
    path that is the last accepted step, up to one dt before the crossing; on
    an exact path the failing step is bisected, so `t` lies within 1e-10
    before a crossing inside that step.
    """

    t: float
    location: tuple
    min_u: float
    cause: str  # "u_floor" or "blowup"


def _check_u(rho: TwoForm) -> np.ndarray:
    u = forms.volume_potential_values(rho)
    forms.require_above_floor(u)
    return u


def flow_rhs(rho: TwoForm, scheme: FlowScheme, u: Optional[np.ndarray] = None,
             xi: Optional[np.ndarray] = None, out=None) -> TwoForm:
    """d(sigma), sigma = -h (d* rho), into `out` (rho.comps may be it) if given;
    dissipates the Hodge energy.  `u` and `xi` are u and d* rho, if at hand:
    h xi is written over xi, and d applies the minus sign (exactly)."""
    xi = calculus.codiff_two(rho).comps if xi is None else xi
    h_xi = forms.weight_apply(rho, scheme, xi, u, out=xi)
    return calculus.d_one(calculus.OneForm(rho.grid, h_xi), out, minus=True)


def parabolic_dt(grid, radius: float) -> float:
    """The explicit step of every march: CFL_SAFETY * h_min^2 / (2 * rank *
    radius), for `radius` the largest diffusion coefficient.  Raises
    NumericalBlowup when `radius` is not finite: the weight overflowed."""
    if not np.isfinite(radius):
        raise NumericalBlowup(f"diffusion coefficient {radius} in the step bound")
    return CFL_SAFETY * min(grid.spacings) ** 2 / (2.0 * grid.rank * radius)


def cfl_dt(rho: TwoForm, scheme: FlowScheme,
           u: Optional[np.ndarray] = None) -> float:
    """`parabolic_dt` for h's largest spectral radius; `u` as in `flow_rhs`."""
    return parabolic_dt(
        rho.grid, float(forms.weight_spectral_radius(rho, scheme, u).max()))


def rk4(y: np.ndarray, f: Callable[[np.ndarray], np.ndarray],
        dt: float) -> np.ndarray:
    """The classical four-stage explicit update of y' = f(y), for any model.

    Low storage: one accumulator takes k1 + 2 k2 + 2 k3 + k4 in that order,
    so the sum is the textbook one to the bit.  Each k is doubled, added,
    scaled by c dt / 2 (the products of c dt k) and y added in place, as the
    next stage input: f may write over any argument but y, and a k that
    shares memory with y or the sum is copied.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    acc = f(y)  # k1, then the running sum
    if np.may_share_memory(acc, y):
        acc = acc.copy()  # it is written in place below
    k = acc * (0.5 * dt)  # k1 stays in the sum: its stage input is a new array
    for c in (0.5, 1.0, None):  # the c of the stage input after this k
        k += y  # y + c dt k: the addition commutes, so the same bits
        k = f(k)  # k2, k3, k4
        if np.may_share_memory(k, y) or np.may_share_memory(k, acc):
            k = k.copy()
        if c is not None:
            k *= 2.0
            acc += k
            k *= 0.5 * c * dt
    acc += k
    acc *= dt / 6.0
    acc += y  # y + (dt/6) * sum: the addition commutes, so the same bits
    check_finite(acc, "RK4 step")
    return acc


def march(state, step, cfl, t_end: float, sample_every: float, record,
          positivity, fixed_dt: Optional[float] = None,
          stats: Optional[dict] = None, exact: bool = False):
    """The one time-marching loop, shared by the 4D flow and the reduced models.

    `state` carries t, step and dt; `step(state, dt)` returns the next state,
    `cfl(state)` the stable step used unless `fixed_dt` is given, `record(state)`
    one trajectory row, and `positivity(state)` the field kept above the floor.
    Returns (trajectory, final_state, event); `event` is None on a clean run and
    a DegeneracyEvent at the last accepted state when a step raises
    DegenerateForm (cause "u_floor") or NumericalBlowup ("blowup").  `exact`
    marks a step that is exact for any dt: it goes to the next sample time or
    t_end, unless `cfl` (inf where nothing is checked) or `fixed_dt` bounds
    it first, and one that meets the floor is bisected (`_last_above_floor`).
    A given `stats` dict receives `rhs_evals`, counted by `step`, `wall_s`, the
    loop's time, and `dt_min` and `dt_max` of the accepted steps (or None).
    """
    if not sample_every > 0:
        raise ValueError("sample_every must be positive")  # else it never ends
    if stats is not None:
        stats["rhs_evals"] = 0
    started = time.perf_counter()
    trajectory = [record(state)]
    next_sample = sample_every
    while next_sample <= state.t + 1e-12:
        next_sample += sample_every
    event = None
    dt_min, dt_max = np.inf, 0.0
    while state.t < t_end - 1e-14:
        try:
            dt = fixed_dt if fixed_dt is not None else cfl(state)
            if exact and fixed_dt is None and next_sample < t_end - 1e-12:
                dt = min(dt, next_sample - state.t)
            dt = min(dt, t_end - state.t)
            state = step(state, dt)
        except (DegenerateForm, NumericalBlowup) as exc:
            if exact and isinstance(exc, DegenerateForm):
                last = _last_above_floor(state, step, dt)
                if last is not state:
                    state = last
                    dt_min, dt_max = min(dt_min, last.dt), max(dt_max, last.dt)
            vals = positivity(state)
            loc = np.unravel_index(int(np.argmin(vals)), vals.shape)
            event = DegeneracyEvent(
                t=state.t, location=tuple(int(i) for i in loc),
                min_u=float(vals.min()),
                cause="u_floor" if isinstance(exc, DegenerateForm) else "blowup")
            break
        if dt < dt_min:
            dt_min = dt
        if dt > dt_max:
            dt_max = dt
        if state.t >= next_sample - 1e-12 or state.t >= t_end - 1e-14:
            trajectory.append(record(state))
            while next_sample <= state.t + 1e-12:
                next_sample += sample_every
    if stats is not None:
        stats.update(wall_s=time.perf_counter() - started,
                     dt_min=dt_min if dt_max > 0 else None,
                     dt_max=dt_max if dt_max > 0 else None)
    return trajectory, state, event


def _last_above_floor(state, step, dt: float):
    """step(state, s) for an s in (0, dt) that passes the floor check while
    s + 1e-10 fails, found by bisection (with several crossings inside the
    step, any one of them); `state` itself if none passes."""
    lo, hi, last = 0.0, dt, state
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        try:
            last, lo = step(state, mid), mid
        except (DegenerateForm, NumericalBlowup):
            hi = mid
    return last


def step_linear(state: FlowState, dt: float) -> FlowState:
    """The exact step of the LINEAR scheme on a closed form: e^{dt L} on the
    components, L = sum_j D_j^2 (`grid.exp_values`, Nyquist zeroed); checks
    u > floor."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    grid = state.rho.grid
    rho = TwoForm(grid, exp_values(state.rho.comps, grid, dt, nyquist=False))
    check_finite(rho.comps, "exact step")
    _check_u(rho)
    return FlowState(rho=rho, t=state.t + dt, step=state.step + 1, dt=dt)


def step_rk4(state: FlowState, dt: float, scheme: FlowScheme,
             stats: Optional[dict] = None) -> FlowState:
    """One RK4 step of the flow; every stage checks u > floor, the first by
    taking the state's `u`, which the new state's u then overwrites, and its
    `xi`.  A given `stats` counts the right-hand sides in `rhs_evals`."""
    grid = state.rho.grid
    u = _check_u(state.rho) if state.u is None else state.u
    # the first stage pops both, so that xi is not held through the others
    handed = [state.xi, u]
    state.u = state.xi = None

    def stage(comps: np.ndarray) -> np.ndarray:
        r = TwoForm(grid, comps)
        u_r = handed.pop() if handed else _check_u(r)
        if stats is not None:
            stats["rhs_evals"] += 1
        # a stage input is dead once the weight has read it: d writes over it
        return flow_rhs(r, scheme, u_r, handed.pop() if handed else None,
                        None if comps is state.rho.comps else comps).comps

    new = TwoForm(grid, rk4(state.rho.comps, stage, dt))
    u[...] = _check_u(new)  # in place: a new array per step fragmented the heap
    return FlowState(rho=new, t=state.t + dt, step=state.step + 1, dt=dt, u=u)


def run_flow(initial: TwoForm, scheme: FlowScheme, t_end: float,
             sample_every: float, fixed_dt: Optional[float] = None,
             stats: Optional[dict] = None):
    """Integrate the flow, sampling diagnostics at the requested cadence.

    Returns (trajectory, final_state, event) from `march`, which also fills
    `stats`; never raises for the terminal conditions (u at the floor, blowup).
    `initial` is not written, but it is not copied either: the run frees it
    after the first step when the caller holds it no longer.  A form that is
    not closed raises ValueError before any step: its first record's
    dRhoResidual is max |d rho|.
    """
    from . import diagnostics

    u = _check_u(initial)
    ref_periods = calculus.periods(initial)
    # a LINEAR step is exact at any dt, but u only dips for a while under
    # it: the step is still bounded by cfl_dt, so the floor check sees u as
    # often as on the RK4 path, and a dip between samples is not stepped over
    exact = scheme.kind == "linear"

    def record(st: FlowState) -> diagnostics.TrajectoryRecord:
        st.xi = None if exact else np.empty((4,) + st.rho.grid.dims)
        row = diagnostics.make_record(st.rho, st.t, st.dt, ref_periods, st.u,
                                      st.xi)
        if st.step == 0 and row.dRhoResidual > 1e-8:
            raise ValueError(f"initial form is not closed: max |d rho| = "
                             f"{row.dRhoResidual:.3g}")
        return row

    # the first state reaches march unbound: once replaced, nothing holds it
    first = [FlowState(rho=initial, u=None if exact else u)]
    del initial
    trajectory, final, event = march(
        first.pop(),
        lambda st, dt: (step_linear(st, dt) if exact
                        else step_rk4(st, dt, scheme, stats)),
        lambda st: cfl_dt(st.rho, scheme, st.u),
        t_end, sample_every, record,
        lambda st: forms.volume_potential_values(st.rho), fixed_dt, stats,
        exact)
    final.xi = None  # the last record's handover: no step follows it
    return trajectory, final, event
