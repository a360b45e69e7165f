"""Energies, decay fits, monitors, inequality ratios, and residual checks
of the pointwise evolution identities satisfied by |rho|^2, u, |rho+|^2,
|rho-|^2 and the eigenvalue fields along each flow scheme.

The identity checks compare a Gateaux derivative (chain rule on the discrete
fields, no time stepping) against the closed-form right-hand side for the
scheme.  First derivatives of derived quantities (u, |rho|^2, lambda_1, ...)
are assembled pointwise from the exact spectral derivatives of rho itself, so
the only discretization error left in the residuals is aliasing of the
non-polynomial factors, which vanishes at spectral rate under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from . import calculus, flows, forms
from .errors import BadSeries, CohomologyMismatch, DegenerateForm
from .forms import SQRT2, FlowScheme, TwoForm, dot
from .grid import (ScalarField, check_finite, deriv_values, integrate,
                   laplacian_values)

_TINY = 1e-300

# The records' constants: Q1 = int |d* rho|^2 + Q1_WEIGHT int |rho - omega|^2,
# and Shi's monitor f = |grad rho|^2 + MONITOR_A |grad u|^2 + MONITOR_B |rho|^2 + 1.
Q1_WEIGHT, MONITOR_A, MONITOR_B = 10.0, 10.0, 100.0


@dataclass
class TrajectoryRecord:
    """One diagnostics row; the CSV column order is the field order here."""

    t: float
    dt: float
    E: float
    E0: float
    minU: float
    maxU: float
    meanU: float
    minLambda2: float
    maxLambda1: float
    supGradLogU: float
    Q1: float
    fMax: float
    dRhoResidual: float
    periodDrift: float


CSV_COLUMNS = tuple(f.name for f in dataclass_fields(TrajectoryRecord))


# ---------------------------------------------------------------------------
# energies and scalar diagnostics


def _require_class_omega(rho: TwoForm, per: np.ndarray) -> None:
    """Raise CohomologyMismatch unless rho's `per`iods are omega's."""
    L = rho.grid.lengths
    omega_periods = np.array([L[0] * L[1], 0.0, 0.0, 0.0, 0.0, L[2] * L[3]])
    worst = float(np.abs(per - omega_periods).max())
    if worst > 1e-8:
        raise CohomologyMismatch(
            f"periods differ from the reference class by {worst:.3g}")


def normalized_energy(rho: TwoForm) -> float:
    """Integral of |rho - omega|^2 for forms in the class of omega, the
    squares summed over the components in order, with no copy of rho."""
    _require_class_omega(rho, calculus.periods(rho))
    return _omega_energy(rho)


def _omega_energy(rho: TwoForm) -> float:
    """`normalized_energy` without the class check."""
    total, term = np.zeros(rho.grid.dims), np.empty(rho.grid.dims)
    for n, comp in enumerate(rho.comps):
        if n in (0, 5):  # omega is 1 on rho_12 and rho_34, 0 elsewhere
            comp = np.subtract(comp, 1.0, out=term)
        total += np.multiply(comp, comp, out=term)
    return integrate(ScalarField(rho.grid, total))


def _coexact_energy(xi: calculus.OneForm) -> float:
    """int |d* rho|^2 given xi = d* rho."""
    return integrate(ScalarField(xi.grid, dot(xi.comps, xi.comps)))


def decay_rate_fit(series) -> tuple:
    """Least-squares exponential rate of a positive (t, value) series.

    Returns (rate, r_squared) with rate = -slope of log(value) against t.
    """
    pts = list(series)
    if len(pts) < 10:
        raise BadSeries(f"need at least 10 samples, got {len(pts)}")
    t = np.array([p[0] for p in pts], dtype=float)
    v = np.array([p[1] for p in pts], dtype=float)
    if np.any(v <= 0):
        raise BadSeries("series values must all be positive for a log fit")
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    fit = slope * t + intercept
    ss_res = float(np.sum((logv - fit) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_squared = 1.0 if ss_tot < 1e-28 else max(0.0, 1.0 - ss_res / ss_tot)
    return -float(slope), r_squared


def _derivative_fields(rho: TwoForm, xi: np.ndarray):
    """(max |d rho|, |grad u|^2, |grad rho|^2), and d* rho written into `xi`,
    streamed over the axes: each D_a = d_a rho comes from one deriv_values
    call into one buffer and is folded into all of them before the next, so
    no (4, 6, *dims) gradient bundle and no grad u is held, and d rho is
    dropped once its max is read.  With D_a's components 1 and 4 negated,
    u_a = <*rho, D_a> is one contraction with the view rho.comps[::-1]."""
    grid, c = rho.grid, rho.comps
    drho = np.empty((4,) + grid.dims)
    grad_u_sq, grad_sq = np.zeros((2,) + grid.dims)
    term = np.empty(grid.dims)
    xi_filled, drho_filled, Da = set(), set(), None
    for a in range(4):
        Da = deriv_values(c, grid, a, Da)
        calculus.add_axis_terms(xi, calculus._CODIFF_TERMS[a], Da, xi_filled)
        calculus.add_axis_terms(drho, calculus._D_TWO_TERMS[a], Da, drho_filled)
        np.negative(Da[1::3], out=Da[1::3])
        dot(c[::-1], Da, out=term)
        grad_u_sq += np.multiply(term, term, out=term)
        grad_sq += dot(Da, Da, out=term)
    return float(np.abs(drho, out=drho).max()), grad_u_sq, grad_sq


def poincare_ratio(rho: TwoForm) -> float:
    """int |rho - omega|^2 / int |d* rho|^2; at most 1 on the side-2pi torus."""
    num = normalized_energy(rho)
    den = _coexact_energy(calculus.codiff_two(rho))
    if den < 1e-14:
        raise BadSeries(f"coexact energy {den:.3g} too small for a ratio")
    return num / den


def make_record(rho: TwoForm, t: float, dt: float, ref_periods: np.ndarray,
                u: np.ndarray = None, xi_out: np.ndarray = None) -> TrajectoryRecord:
    """One diagnostics row; every derivative comes from one pass over the
    axes.  `u` is the volume potential of rho, if at hand; a given `xi_out`
    (4, *dims) receives d* rho, which the pass folds anyway."""
    check_finite(rho.comps, "make_record input")
    xi = np.empty((4,) + rho.grid.dims) if xi_out is None else xi_out
    d_rho_residual, grad_u_sq, grad_sq = _derivative_fields(rho, xi)
    u = forms.volume_potential_values(rho) if u is None else u
    rho_sq = forms.norm_sq_values(rho)
    per = calculus.periods(rho)
    try:
        _require_class_omega(rho, per)
        e0 = _omega_energy(rho)
        q1 = _coexact_energy(calculus.OneForm(rho.grid, xi)) + Q1_WEIGHT * e0
    except CohomologyMismatch:
        e0 = q1 = float("nan")
    try:  # sup |grad u| / u
        forms.require_above_floor(u)
        sup_grad_log_u = float((np.sqrt(grad_u_sq) / u).max())
    except DegenerateForm:
        sup_grad_log_u = float("nan")
    # Shi's monitor f >= 1
    f_max = float((grad_sq + MONITOR_A * grad_u_sq + MONITOR_B * rho_sq
                   + 1.0).max())
    lam1, lam2 = forms.eigenvalue_values(rho)
    drift = float(np.abs(per - ref_periods).max()
                  / max(1.0, float(np.abs(ref_periods).max())))
    return TrajectoryRecord(
        t=t, dt=dt, E=integrate(ScalarField(rho.grid, rho_sq)), E0=e0,
        minU=float(u.min()), maxU=float(u.max()), meanU=float(u.mean()),
        minLambda2=float(lam2.min()), maxLambda1=float(lam1.max()),
        supGradLogU=sup_grad_log_u, Q1=q1, fMax=f_max,
        dRhoResidual=d_rho_residual, periodDrift=drift)


# ---------------------------------------------------------------------------
# Kato-type quantities and evolution-identity residuals


class _FlowGeometry:
    """Shared pointwise data for the identity checks of one form.

    The pointwise fields come from their definitions in `forms`; all first
    derivatives of derived scalars are chain-ruled from the exact spectral
    derivatives d_j rho, streamed one axis at a time.  Laplacians of derived
    fields are spectral (and carry the aliasing error the residual measures).
    No matrix is built: R, S, h and d_j h are only applied to vectors.
    """

    def __init__(self, rho: TwoForm):
        grid = rho.grid
        self.rho = rho
        self.grid = grid
        self.star = forms.hodge_star(rho)
        self.u = forms.volume_potential_values(rho)
        self.rho_sq = forms.norm_sq_values(rho)
        self.sp, self.sm = forms.dual_part_norms(rho)   # |rho+|, |rho-|
        self.lam1 = (self.sp + self.sm) / SQRT2
        self.lam2 = (self.sp - self.sm) / SQRT2

        # One pass over the axes: D = d_j rho gives xi_k = rho_kl,l, the
        # chain-ruled gradients of |rho|^2 and u, |grad rho|^2 and, from
        # <d_j rho, *d_j rho> = 2 u(d_j rho), sum_j u(d_j rho).
        self.xi = np.zeros((4,) + grid.dims)
        self.grad_rho_sq = np.empty((4,) + grid.dims)
        self.grad_u = np.empty((4,) + grid.dims)
        grad_sq = np.zeros(grid.dims)
        star_pair = np.zeros(grid.dims)
        for j in range(4):
            D = deriv_values(rho.comps, grid, j)
            calculus.add_axis_terms(self.xi, calculus._CODIFF_TERMS[j], D)
            self.grad_rho_sq[j] = 2.0 * dot(rho.comps, D)
            self.grad_u[j] = dot(self.star.comps, D)
            grad_sq += dot(D, D)
            star_pair += forms.volume_potential_values(TwoForm(grid, D))

        # |rho+-|^2 = (|rho|^2 +- 2u) / 2 gives grad |rho+-| = (grad|rho|^2 / 4
        # +- grad u / 2) / |rho+-|, and |grad rho+-|^2 = (|grad rho|^2
        # +- 2 sum_j u(d_j rho)) / 2.
        with np.errstate(divide="ignore", invalid="ignore"):
            self.grad_sp = (0.25 * self.grad_rho_sq + 0.5 * self.grad_u) \
                / np.where(self.sp > 0, self.sp, 1.0)
            self.grad_sm = (0.25 * self.grad_rho_sq - 0.5 * self.grad_u) \
                / np.where(self.sm > 0, self.sm, 1.0)
        self.grad_lam1 = (self.grad_sp + self.grad_sm) / SQRT2
        self.grad_lam2 = (self.grad_sp - self.grad_sm) / SQRT2
        self.grad_plus_sq = 0.5 * (grad_sq + 2.0 * star_pair)
        self.grad_minus_sq = 0.5 * (grad_sq - 2.0 * star_pair)

    def lap(self, values: np.ndarray) -> np.ndarray:
        return laplacian_values(values, self.grid)

    # R v, or S v with star, for the skew matrix R of `comps` (default rho)
    # and S of its Hodge star; R^T v = -R v.
    def skew(self, v: np.ndarray, star: bool = False,
             comps: np.ndarray = None) -> np.ndarray:
        return forms._skew_apply(self.rho.comps if comps is None else comps, v,
                                 forms._STAR_SKEW_TERMS if star else forms._SKEW_TERMS)

    def jk(self):
        """Kato gap quantities J (from rho+) and K (from rho-), unguarded."""
        with np.errstate(divide="ignore", invalid="ignore"):
            j = ((self.grad_plus_sq - dot(self.grad_sp, self.grad_sp))
                 / (SQRT2 * self.sp))
            k = ((self.grad_minus_sq - dot(self.grad_sm, self.grad_sm))
                 / (SQRT2 * self.sm))
        return j, k

    def scalar_weight_grad(self, scheme: FlowScheme) -> np.ndarray:
        """grad f of the scalar weight f = 1, u^-r or |rho|^2 / u."""
        u, gu = self.u, self.grad_u
        if scheme.kind == "linear":
            return np.zeros((4,) + self.grid.dims)
        if scheme.kind == "power_u":
            return -scheme.r * u ** (-scheme.r - 1.0) * gu
        return (self.grad_rho_sq * u - self.rho_sq * gu) / u ** 2

    # Scalar weights give (d_j f) v.  For h = M / u^p with M = a = R R^T or
    # b = S S^T, or M = sqrt(b) = (u I + b) / (lambda1 + lambda2) with p = 1,
    # (d_j h) v = (d_j M) v / u^p - p (h v) d_j u / u, and X X^T = -X^2 gives
    # (d_j X X^T) v = -(d_j X)(X v) - X((d_j X) v).
    def weight_grad_apply(self, scheme: FlowScheme, v: np.ndarray):
        """Yield (d_j h) v for j = 0..3, taking d_j rho one axis at a time."""
        if scheme.is_scalar:
            grad_f = self.scalar_weight_grad(scheme)
            for j in range(4):
                yield grad_f[j] * v
            return
        u, gu = self.u, self.grad_u
        star = scheme.kind not in ("matrix_a1", "matrix_a2")
        power = 2 if scheme.kind in ("matrix_a2", "matrix_b2") else 1
        h_v = forms.weight_apply(self.rho, scheme, v, u)
        x_v = self.skew(v, star)
        for j in range(4):
            D = deriv_values(self.rho.comps, self.grid, j)
            dm_v = -self.skew(x_v, star, D) - self.skew(self.skew(v, star, D), star)
            if scheme.kind == "matrix_bh":
                dm_v = (gu[j] * v + dm_v
                        - u * h_v * (self.grad_lam1[j] + self.grad_lam2[j])) \
                    / (self.lam1 + self.lam2)
            yield dm_v / u ** power - power * h_v * (gu[j] / u)


RESIDUAL_QUANTITIES = ("rho_sq", "u", "rho_plus_sq", "rho_minus_sq",
                       "lambda1", "lambda2")

# Schemes with a catalogued closed form per quantity.  |rho|^2 and u have the
# general weight-matrix identity; the dual-part splits are catalogued for the
# scalar schemes, the eigenvalue identities for linear and the four plain
# matrix weights.
_LAMBDA_SCHEMES = ("linear", "matrix_a1", "matrix_a2", "matrix_b1", "matrix_b2")
_SPLIT_SCHEMES = ("linear", "power_u", "norm_ratio")


def _lhs_gateaux(geo: _FlowGeometry, rhs_form: TwoForm, quantity: str) -> np.ndarray:
    """Chain-rule derivative of the tracked quantity along the flow update."""
    rho_dot = dot(geo.rho.comps, rhs_form.comps)
    star_dot = dot(geo.star.comps, rhs_form.comps)
    if quantity == "rho_sq":
        return 2.0 * rho_dot
    if quantity == "u":
        return star_dot
    if quantity == "rho_plus_sq":
        return rho_dot + star_dot
    if quantity == "rho_minus_sq":
        return rho_dot - star_dot
    with np.errstate(divide="ignore", invalid="ignore"):
        dsp = 0.5 * (rho_dot + star_dot) / geo.sp
        dsm = 0.5 * (rho_dot - star_dot) / geo.sm
    if quantity == "lambda1":
        return (dsp + dsm) / SQRT2
    if quantity == "lambda2":
        return (dsp - dsm) / SQRT2
    raise ValueError(f"unknown quantity {quantity!r}")


# With X = R (|rho|^2) or S (u) and L the skew matrix of the Laplacian of rho,
# the index sums X_ij h_ik L_kj and X_ij (d_j h)_ik xi_k are sum_j <X e_j,
# h L e_j> and sum_j <X e_j, (d_j h) xi>: h and d_j h only meet vectors.
def _rhs_general(geo: _FlowGeometry, scheme: FlowScheme,
                 quantity: str) -> np.ndarray:
    """Weight-matrix identity for |rho|^2 and u, matrix-free."""
    star = quantity == "u"
    lap = geo.lap(geo.rho.comps)
    first = np.zeros(geo.grid.dims)
    second = np.zeros(geo.grid.dims)
    for e_j, dh_xi in zip(forms._unit_vectors(geo.grid.dims),
                          geo.weight_grad_apply(scheme, geo.xi)):
        column = geo.skew(e_j, star)
        first += dot(column, forms.weight_apply(
            geo.rho, scheme, geo.skew(e_j, comps=lap), geo.u))
        second += dot(column, dh_xi)
    if quantity == "rho_sq":
        return first + 2.0 * second
    return 0.5 * first + second


def _rhs_split_scalar(geo: _FlowGeometry, scheme: FlowScheme,
                      quantity: str) -> np.ndarray:
    """Dual-part identities for the scalar weights f*identity."""
    f = forms.scalar_weight_values(geo.rho, scheme, geo.u)
    gf = geo.scalar_weight_grad(scheme)
    plus = quantity == "rho_plus_sq"
    part_sq = 0.5 * (geo.rho_sq + 2.0 * geo.u) if plus \
        else 0.5 * (geo.rho_sq - 2.0 * geo.u)
    grad_part_sq = geo.grad_plus_sq if plus else geo.grad_minus_sq
    diffusion = f * (geo.lap(part_sq) - 2.0 * grad_part_sq)
    # 2 <grad f, rho+- xi> with the skew matrix rho+- = (R +- S) / 2
    part_xi = geo.skew(geo.xi)
    (np.add if plus else np.subtract)(part_xi, geo.skew(geo.xi, True), out=part_xi)
    return diffusion - dot(gf, part_xi)


def _rhs_lambda(geo: _FlowGeometry, scheme: FlowScheme, quantity: str) -> np.ndarray:
    """Catalogued eigenvalue identities (defined where |rho-| and
    lambda1 - lambda2 stay away from zero)."""
    first = quantity == "lambda1"
    lam1, lam2, u, xi = geo.lam1, geo.lam2, geo.u, geo.xi
    j_q, k_q = geo.jk()
    lap_lam = geo.lap(lam1 if first else lam2)
    gap = lam1 ** 2 - lam2 ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        if scheme.kind == "linear":
            return lap_lam - j_q - k_q if first else lap_lam - j_q + k_q

        xx = dot(xi, xi)
        Rxi = -geo.skew(xi)         # R^T xi
        Sxi = -geo.skew(xi, True)   # S^T xi
        bxx = dot(Sxi, Sxi)  # xi^T b xi, b = S S^T

        if scheme.kind in ("matrix_a1", "matrix_b1"):
            # grad(|rho|^2 / u) along R xi (a1) or S xi (b1)
            f_term = dot(geo.scalar_weight_grad(forms.NORM_RATIO),
                         Rxi if scheme.kind == "matrix_a1" else Sxi) / gap

        if scheme.kind == "matrix_a1":
            if first:
                return (lam1 / lam2 * (lap_lam - j_q - k_q)
                        + (lam1 * bxx - u * lam2 * xx) / (u * gap)
                        + lam1 * f_term)
            return (lam2 / lam1 * lap_lam + lam2 / lam1 * (k_q - j_q)
                    + (lam1 * u * xx - lam2 * bxx) / (u * gap)
                    - lam2 * f_term)

        if scheme.kind == "matrix_a2":
            g1 = geo.grad_lam1
            g2 = geo.grad_lam2
            if first:
                p = (dot(g1, Sxi / lam2 - Rxi / lam1) / (lam1 * gap)
                     + dot(g2, Sxi / lam2 + Rxi / lam1 - 2.0 * lam1 / lam2 ** 2 * Rxi)
                     / (lam2 * gap))
                return (lap_lam / lam2 ** 2 - (j_q + k_q) / lam2 ** 2
                        + (lam1 * bxx - u * lam2 * xx) / (u ** 2 * gap) + p)
            # The second eigenvalue rides along algebraically: u = lam1*lam2
            # pointwise, so its evolution is composed from the volume-potential
            # and first-eigenvalue identities.
            u_dot = _rhs_general(geo, scheme, "u")
            return (u_dot - lam2 * _rhs_lambda(geo, scheme, "lambda1")) / lam1

        if scheme.kind == "matrix_b1":
            if first:
                return (lam2 / lam1 * (lap_lam - j_q - k_q)
                        - (lam1 * bxx - u * lam2 * xx) / (u * gap)
                        - lam2 * f_term)
            return (lam1 / lam2 * lap_lam + lam1 / lam2 * (k_q - j_q)
                    + (lam2 * bxx - u * lam1 * xx) / (u * gap)
                    + lam1 * f_term)

        if scheme.kind == "matrix_b2":
            hxx = bxx / u ** 2
            g1 = geo.grad_lam1
            g2 = geo.grad_lam2
            if first:
                extra = (dot(g1, (2.0 * lam2 / lam1 ** 2 - 1.0 / lam2) * Sxi
                             - Rxi / lam1) / (lam1 * gap)
                         + dot(g2, Sxi / lam2 - Rxi / lam1) / (lam2 * gap))
                return (lap_lam / lam1 ** 2 - (j_q + k_q) / lam1 ** 2
                        - lam1 * hxx / gap + xx / (lam1 * gap) + extra)
            extra = (dot(g2, Rxi / lam2 + Sxi / lam1 - 2.0 * lam1 / lam2 ** 2 * Sxi)
                     / (lam2 * gap)
                     + dot(g1, Rxi / lam2 - Sxi / lam1) / (lam1 * gap))
            return (lap_lam / lam2 ** 2 + (k_q - j_q) / lam2 ** 2
                    + lam2 * hxx / gap - xx / (lam2 * gap) + extra)

    raise ValueError(f"no eigenvalue identity catalogued for {scheme.kind!r}")


def evolution_residual(rho: TwoForm, scheme: FlowScheme,
                       quantity: str) -> float:
    """Relative sup-norm residual of the catalogued identity for one quantity.

    Compares the Gateaux derivative of the quantity along the flow update
    against the closed-form right-hand side; eigenvalue checks are restricted
    to points where |rho-|, |rho+| and lambda1 - lambda2 exceed
    1e-3 * max |rho|.
    """
    return evolution_residuals(rho, [(scheme, quantity)])[0]


def evolution_residuals(rho: TwoForm, checks) -> list:
    """`evolution_residual` of each (scheme, quantity) pair of `checks`, in
    order, from one geometry of rho and one flow_rhs per scheme."""
    checks = list(checks)
    for scheme, quantity in checks:
        if quantity not in RESIDUAL_QUANTITIES:
            raise ValueError(f"unknown quantity {quantity!r}")
        if quantity in ("lambda1", "lambda2") and scheme.kind not in _LAMBDA_SCHEMES:
            raise ValueError(f"no eigenvalue identity catalogued for {scheme.kind!r}")
        if quantity in ("rho_plus_sq", "rho_minus_sq") and scheme.kind not in _SPLIT_SCHEMES:
            raise ValueError(f"no dual-part identity catalogued for {scheme.kind!r}")
    mask_eps = 1e-3 * float(np.abs(rho.comps).max())

    geo = _FlowGeometry(rho)
    out = [None] * len(checks)
    for scheme in dict.fromkeys(scheme for scheme, _ in checks):
        rhs_form = flows.flow_rhs(rho, scheme)
        # the scalar left sides are kept, the form is dropped before the
        # right sides are assembled
        lhs = {i: _lhs_gateaux(geo, rhs_form, quantity)
               for i, (other, quantity) in enumerate(checks) if other == scheme}
        del rhs_form
        for i, lhs_i in lhs.items():
            out[i] = _residual(geo, lhs_i, scheme, checks[i][1], mask_eps)
    return out


def _residual(geo: _FlowGeometry, lhs: np.ndarray, scheme: FlowScheme,
              quantity: str, mask_eps: float) -> float:
    if quantity in ("rho_sq", "u"):
        rhs = _rhs_general(geo, scheme, quantity)
        mask = np.ones(geo.grid.dims, dtype=bool)
    elif quantity in ("rho_plus_sq", "rho_minus_sq"):
        rhs = _rhs_split_scalar(geo, scheme, quantity)
        mask = np.ones(geo.grid.dims, dtype=bool)
    else:
        rhs = _rhs_lambda(geo, scheme, quantity)
        mask = ((geo.sm > mask_eps) & (geo.sp > mask_eps)
                & (geo.lam1 - geo.lam2 > mask_eps))
        if not mask.any():
            raise ValueError("eigenvalue mask excludes every grid point")

    diff = np.abs(lhs - rhs)[mask]
    scale = max(float(np.abs(lhs[mask]).max()), float(np.abs(rhs[mask]).max()), _TINY)
    return float(diff.max()) / scale
