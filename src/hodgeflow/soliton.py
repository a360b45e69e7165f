"""Residual evaluation and steady-state solving for the translating-wave
reduction of the conformal flow.

The unknown a(x, y) > 0 on the periodic 2-torus satisfies

    (a_x / sqrt(a))_x + (a_y / sqrt(a))_y + V1 a_x + V2 a_y = forcing

for a constant drift (V1, V2).  The periodic domain with an optional
manufactured forcing is the desk-scale surrogate for the whole-plane
problem, and the solver is damped, spectrally preconditioned pseudo-time
marching with the mean of a held fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoConvergence
from .forms import require_above_floor
from .grid import ScalarField, deriv_values, helmholtz_solve

# Fraction of the preconditioned residual added per pseudo-time iteration.
DAMPING = 0.5


@dataclass
class SolitonProblem:
    a: ScalarField
    V: tuple  # (V1, V2)
    forcing: Optional[ScalarField] = None

    def __post_init__(self):
        if self.a.grid.rank != 2:
            raise ValueError("the reduction lives on a rank-2 grid")
        self.V = (float(self.V[0]), float(self.V[1]))


def soliton_residual(p: SolitonProblem) -> ScalarField:
    a = p.a.values
    require_above_floor(a, "a")
    grid = p.a.grid
    root = np.sqrt(a)
    ax = deriv_values(a, grid, 0)
    ay = deriv_values(a, grid, 1)
    lhs = (deriv_values(ax / root, grid, 0) + deriv_values(ay / root, grid, 1)
           + p.V[0] * ax + p.V[1] * ay)
    if p.forcing is not None:
        lhs = lhs - p.forcing.values
    return ScalarField(grid, lhs)


def manufactured_forcing(a_star: ScalarField, V) -> ScalarField:
    """Forcing that makes a_star an exact solution for drift V."""
    return soliton_residual(SolitonProblem(a_star, V))


def solve_soliton(p: SolitonProblem, tol: float = 1e-7, max_iter: int = 200000):
    """March d(a)/d(tau) = P(residual) to a steady state, keeping mean(a) fixed.

    P is the positive spectral preconditioner (c0 (1 - Lap))^{-1} with c0 the
    current largest diffusivity, so the march contracts at a rate independent
    of the resolution (a bare CFL-limited march needs O(1/h^2) iterations and
    its per-axis radius bound misses the corner Fourier modes in 2D).

    Returns (a, residual_sup) on success.  Raises NoConvergence (carrying the
    best iterate on the exception) if the budget runs out, DegenerateForm if
    the iterates touch the positivity floor.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    grid = p.a.grid
    a = p.a.values.copy()
    best = a.copy()
    best_norm = np.inf
    for _ in range(max_iter):
        res = soliton_residual(
            SolitonProblem(ScalarField(grid, a), p.V, p.forcing)).values
        norm = float(np.abs(res).max())
        if norm < best_norm:
            best_norm = norm
            best = a.copy()
        if norm < tol:
            return ScalarField(grid, a), norm
        c0 = float((1.0 / np.sqrt(a)).max())
        rhs = res - res.mean()
        a = a + DAMPING * helmholtz_solve(rhs, grid, c0)
    err = NoConvergence(
        f"no steady state within {max_iter} iterations; best sup-residual "
        f"{best_norm:.3g} (tol {tol:.3g})")
    err.best = ScalarField(grid, best)
    err.residual_norm = best_norm
    raise err
