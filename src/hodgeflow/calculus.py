"""Discrete exterior calculus on the flat four-torus.

Sign conventions, fixed once and used everywhere:

  (d zeta)_ij   = d_i zeta_j - d_j zeta_i
  (d rho)_ijk   = d_i rho_jk - d_j rho_ik + d_k rho_ij
  (d* rho)_k    = sum_l d_l rho_kl        (rho the full antisymmetric matrix)

With these choices d and d* are exact adjoints for the L2 pairings used in
this package, and the assembled flows dissipate the Hodge energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forms import COMPONENT_PAIRS, PAIR_INDEX, TwoForm
from .grid import (PeriodicGrid, ScalarField, check_finite, deriv_values,
                   gradient_values)


@dataclass
class OneForm:
    """Four component fields zeta_1..zeta_4 on a shared rank-4 grid."""

    grid: PeriodicGrid
    comps: np.ndarray  # shape (4, *dims)

    def __post_init__(self):
        self.comps = np.asarray(self.comps, dtype=float)
        if self.comps.shape != (4,) + self.grid.dims:
            raise ValueError("OneForm needs four components on the grid")

    @classmethod
    def zero(cls, grid: PeriodicGrid) -> "OneForm":
        return cls(grid, np.zeros((4,) + grid.dims))


@dataclass
class ThreeForm:
    """Components indexed by the omitted axis: comps[m] is the coefficient of
    the increasing triple that leaves out axis m."""

    grid: PeriodicGrid
    comps: np.ndarray  # shape (4, *dims)


# Per axis a, the terms (source, target, plus) that make up
#   (d zeta)_ij = d_i zeta_j - d_j zeta_i   and   (d* rho)_k = sum_l d_l rho_kl,
# and, for the 3-form stored by omitted axis m with i < j < k the other axes,
#   (d rho)_m = d_i rho_jk - d_j rho_ik + d_k rho_ij   (sign: a's place in ijk).
_D_ONE_TERMS = tuple(tuple((j, PAIR_INDEX[(min(a, j), max(a, j))], a < j)
                           for j in range(4) if j != a) for a in range(4))
_CODIFF_TERMS = tuple(tuple((p, i + j - a, j == a)
                            for p, (i, j) in enumerate(COMPONENT_PAIRS) if a in (i, j))
                      for a in range(4))
_D_TWO_TERMS = tuple(tuple((PAIR_INDEX[tuple(b for b in range(4) if b not in (a, m))],
                            m, sum(b < a for b in range(4) if b != m) != 1)
                           for m in range(4) if m != a)
                     for a in range(4))


def add_axis_terms(out: np.ndarray, axis_terms, Da, filled=None) -> None:
    """out[target] += or -= Da[source] over one axis's terms, Da[s] = d_a comps[s];
    a target not yet in a given set `filled` is assigned instead, and joins it."""
    for s, t, plus in axis_terms:
        if filled is None or t in filled:
            (np.add if plus else np.subtract)(out[t], Da[s], out=out[t])
        else:
            (np.positive if plus else np.negative)(Da[s], out=out[t])
            filled.add(t)


def _axis_sums(count: int, terms, comps: np.ndarray,
               grid: PeriodicGrid) -> np.ndarray:
    """add_axis_terms over every axis a into a new (count, *dims) array, with
    one deriv_values call per axis on that axis's sources."""
    out, filled = np.empty((count,) + grid.dims), set()
    for a, axis_terms in enumerate(terms):
        src = [s for s, _, _ in axis_terms]
        add_axis_terms(out, axis_terms,
                       dict(zip(src, deriv_values(comps, grid, a, src))), filled)
    return out


def d_one(zeta: OneForm) -> TwoForm:
    """Exterior derivative of a 1-form."""
    check_finite(zeta.comps, "d_one input")
    grid = zeta.grid
    out = _axis_sums(6, _D_ONE_TERMS, zeta.comps, grid)
    check_finite(out, "d_one output")
    return TwoForm(grid, out)


def d_two(rho: TwoForm) -> ThreeForm:
    """Exterior derivative of a 2-form, stored by omitted axis."""
    check_finite(rho.comps, "d_two input")
    grid = rho.grid
    out = _axis_sums(4, _D_TWO_TERMS, rho.comps, grid)
    check_finite(out, "d_two output")
    return ThreeForm(grid, out)


def codiff_two(rho: TwoForm) -> OneForm:
    """Formal adjoint of d on 2-forms: (d* rho)_k = sum_l d_l rho_kl."""
    check_finite(rho.comps, "codiff_two input")
    out = _axis_sums(4, _CODIFF_TERMS, rho.comps, rho.grid)
    check_finite(out, "codiff_two output")
    return OneForm(rho.grid, out)


def max_abs_three(theta: ThreeForm) -> float:
    return float(np.abs(theta.comps).max())


def periods(rho: TwoForm) -> np.ndarray:
    """Integrals of rho over the six coordinate 2-tori, in component order.

    Invariant under adding exact forms, so these detect the cohomology class.
    """
    L = rho.grid.lengths
    means = rho.comps.reshape(6, -1).mean(axis=1)
    areas = np.array([L[i] * L[j] for (i, j) in COMPONENT_PAIRS])
    return means * areas


def grad_norm_sq(rho: TwoForm) -> ScalarField:
    """|grad rho|^2: squared spectral partials summed over axes and components."""
    check_finite(rho.comps, "grad_norm_sq input")
    D = gradient_values(rho.comps, rho.grid)
    return ScalarField(rho.grid, np.einsum("jc...,jc...->...", D, D))


def one_form_pointwise_inner(x: OneForm, y: OneForm) -> np.ndarray:
    return np.einsum("c...,c...->...", x.comps, y.comps)


def two_form_pointwise_inner(x: TwoForm, y: TwoForm) -> np.ndarray:
    return np.einsum("c...,c...->...", x.comps, y.comps)
