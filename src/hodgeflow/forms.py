"""Pointwise symplectic linear algebra of 2-forms on rank-4 grids.

A 2-form is stored by its six components in the orthonormal coframe,
ordered lexicographically by axis pair.  The Hodge star, self-dual /
anti-self-dual split, volume potential u, the eigenvalue fields of the
associated skew matrix, the symmetric matrices a, b and the flow weight
matrix h are all pointwise operations on those components; the flow and the
identity checks apply h to vectors without building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateForm
from .grid import PeriodicGrid, ScalarField

# lexicographic (i, j) pairs, i < j, for the six components
COMPONENT_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_INDEX = {pair: n for n, pair in enumerate(COMPONENT_PAIRS)}

SQRT2 = np.sqrt(2.0)

# Guard for the closed-form matrix square root of b.
EIG_EPS = 1e-12

# A symplectic form has u > 0; a field whose minimum reaches this floor is
# degenerate.  Read only by `require_above_floor`, at call time.
U_FLOOR = 1e-6


@dataclass
class TwoForm:
    """Six component fields of a 2-form on a shared rank-4 grid."""

    grid: PeriodicGrid
    comps: np.ndarray  # shape (6, *grid.dims)

    def __post_init__(self):
        self.comps = np.asarray(self.comps, dtype=float)
        if self.grid.rank != 4:
            raise ValueError("TwoForm requires a rank-4 grid")
        if self.comps.shape != (6,) + self.grid.dims:
            raise ValueError(f"component array has shape {self.comps.shape}, "
                             f"expected {(6,) + self.grid.dims}")

    @classmethod
    def zero(cls, grid: PeriodicGrid) -> "TwoForm":
        return cls(grid, np.zeros((6,) + grid.dims))

    def copy(self) -> "TwoForm":
        return TwoForm(self.grid, self.comps.copy())

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.grid, self.comps + other.comps)

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.grid, self.comps - other.comps)

    def __mul__(self, c: float) -> "TwoForm":
        return TwoForm(self.grid, self.comps * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class FlowScheme:
    """Choice of the positive symmetric weight matrix h in the flow.

    kind        h
    ----------  ----------------------
    linear      identity
    power_u     u^(-r) * identity      (r = 1/2 is the conformal flow)
    norm_ratio  (|rho|^2 / u) * identity
    matrix_a1   a / u
    matrix_a2   a / u^2
    matrix_b1   b / u
    matrix_b2   b / u^2
    matrix_bh   sqrt(b) / u
    """

    kind: str
    r: Optional[float] = None

    _KINDS = ("linear", "power_u", "norm_ratio", "matrix_a1", "matrix_a2",
              "matrix_b1", "matrix_b2", "matrix_bh")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "power_u":
            if self.r is None or not 0 < self.r < np.inf:
                raise ValueError("power_u scheme needs a finite exponent r > 0")
        elif self.r is not None:
            raise ValueError(f"scheme {self.kind!r} takes no exponent")

    @property
    def is_scalar(self) -> bool:
        return self.kind in ("linear", "power_u", "norm_ratio")


LINEAR = FlowScheme("linear")
CONFORMAL = FlowScheme("power_u", 0.5)
NORM_RATIO = FlowScheme("norm_ratio")
MATRIX_A1 = FlowScheme("matrix_a1")
MATRIX_A2 = FlowScheme("matrix_a2")
MATRIX_B1 = FlowScheme("matrix_b1")
MATRIX_B2 = FlowScheme("matrix_b2")
MATRIX_BHALF = FlowScheme("matrix_bh")

ALL_SCHEMES = (LINEAR, CONFORMAL, NORM_RATIO, MATRIX_A1, MATRIX_A2,
               MATRIX_B1, MATRIX_B2, MATRIX_BHALF)


def scheme_from_name(name: str) -> FlowScheme:
    """Parse a scheme tag like 'conformal', 'linear', 'power_u:0.25', 'matrix_b2'."""
    name = name.strip().lower()
    if name == "conformal":
        return CONFORMAL
    if name.startswith("power_u"):
        _, _, arg = name.partition(":")
        return FlowScheme("power_u", float(arg) if arg else 0.5)
    return FlowScheme(name)


def omega(grid: PeriodicGrid) -> TwoForm:
    """The standard symplectic form: rho_12 = rho_34 = 1, others zero."""
    w = TwoForm.zero(grid)
    w.comps[PAIR_INDEX[(0, 1)]] = 1.0
    w.comps[PAIR_INDEX[(2, 3)]] = 1.0
    return w


# The Hodge star as (source, plus) per component: (*rho)_n = +-rho_source,
# so that *rho can be read by index and sign instead of copied.
STAR_TERMS = ((5, True), (4, False), (3, True), (2, True), (1, False), (0, True))


def hodge_star(rho: TwoForm) -> TwoForm:
    """Hodge star of the flat metric: an isometric involution on 2-forms."""
    c = rho.comps
    starred = np.stack([c[s] if plus else -c[s] for s, plus in STAR_TERMS])
    return TwoForm(rho.grid, starred)


def norm_sq_values(rho: TwoForm) -> np.ndarray:
    """|rho|^2 = sum over i<j of rho_ij^2, pointwise."""
    return np.einsum("c...,c...->...", rho.comps, rho.comps)


def norm_sq(rho: TwoForm) -> ScalarField:
    return ScalarField(rho.grid, norm_sq_values(rho))


def volume_potential_values(rho: TwoForm) -> np.ndarray:
    """u = rho_12 rho_34 - rho_13 rho_24 + rho_14 rho_23; 2u = <rho, *rho>."""
    c = rho.comps
    return c[0] * c[5] - c[1] * c[4] + c[2] * c[3]


def dual_part_norms(rho: TwoForm):
    """(|rho+|, |rho-|) as arrays, in the closed form
    |rho+-|^2 = ((c0 +- c5)^2 + (c1 -+ c4)^2 + (c2 +- c3)^2) / 2
    (no split forms are built)."""
    c = rho.comps
    return tuple(np.sqrt(0.5 * (same(c[0], c[5]) ** 2 + flip(c[1], c[4]) ** 2
                                + same(c[2], c[3]) ** 2))
                 for same, flip in ((np.add, np.subtract), (np.subtract, np.add)))


def eigenvalue_values(rho: TwoForm):
    """(lambda1, lambda2) = (|rho+| +- |rho-|) / sqrt2 as arrays."""
    sp, sm = dual_part_norms(rho)
    return (sp + sm) / SQRT2, (sp - sm) / SQRT2


# The skew mat-vec M v as terms (i, j, source, plus) per component n of the
# pair (i, j): M_ij = +-comps[source], out[i] += M_ij v[j], out[j] -= M_ij v[i].
_SKEW_TERMS = tuple((i, j, n, True) for n, (i, j) in enumerate(COMPONENT_PAIRS))
_STAR_SKEW_TERMS = tuple((i, j, src, plus) for (i, j), (src, plus)
                         in zip(COMPONENT_PAIRS, STAR_TERMS))


def _skew_apply(comps: np.ndarray, v: np.ndarray, terms) -> np.ndarray:
    """M v pointwise for the skew matrix M read from `comps` through `terms`:
    _SKEW_TERMS for rho itself, _STAR_SKEW_TERMS for *rho."""
    out = np.zeros_like(v)
    term = np.empty_like(v[0])
    for i, j, src, plus in terms:
        np.multiply(comps[src], v[j], out=term)
        (np.add if plus else np.subtract)(out[i], term, out=out[i])
        np.multiply(comps[src], v[i], out=term)
        (np.subtract if plus else np.add)(out[j], term, out=out[j])
    return out


# The explicit (4, 4, *dims) builders below (matrix_ab, sqrt_b_values,
# weight_h) serve the algebra suite and the tests.  M e_j is column j of M.


def _unit_vectors(dims: tuple) -> list:
    """e_0 .. e_3 as read-only (4, *dims) views."""
    return [np.broadcast_to(e.reshape((4,) + (1,) * len(dims)), (4,) + dims)
            for e in np.eye(4)]


def _gram_values(rho: TwoForm, star: bool) -> np.ndarray:
    """M M^T = -M(M e_j) column by column for the skew M of rho (a) or *rho (b)."""
    terms = _STAR_SKEW_TERMS if star else _SKEW_TERMS
    out = np.empty((4, 4) + rho.grid.dims)
    for j, e_j in enumerate(_unit_vectors(rho.grid.dims)):
        np.negative(_skew_apply(rho.comps, _skew_apply(rho.comps, e_j, terms), terms),
                    out=out[:, j])
    return out


def matrix_ab(rho: TwoForm):
    """a_ij = rho_ip rho_jp and b_ij = (*rho)_ip (*rho)_jp.

    Both are symmetric positive semidefinite with eigenvalues
    {lambda1^2, lambda1^2, lambda2^2, lambda2^2} and a + b = |rho|^2 I.
    """
    return _gram_values(rho, False), _gram_values(rho, True)


def sqrt_b_values(rho: TwoForm) -> np.ndarray:
    """Matrix square root of b via the closed form (u I + b) / (lambda1 + lambda2).

    Well-defined at lambda1 = lambda2; the division is guarded below a tiny
    eigenvalue threshold.
    """
    out = _gram_values(rho, True)
    u = volume_potential_values(rho)
    lam1, lam2 = eigenvalue_values(rho)
    trace = np.maximum(lam1 + lam2, EIG_EPS)
    for i in range(4):
        out[i, i] += u
    out /= trace
    return out


def require_above_floor(values: np.ndarray, what: str = "u") -> None:
    """The floor check: raise DegenerateForm unless min(values) > U_FLOOR."""
    m = float(values.min())
    if m <= U_FLOOR:
        raise DegenerateForm(f"min {what} = {m:.6g} at/below floor {U_FLOOR:.3g}")


def scalar_weight_values(rho: TwoForm, scheme: FlowScheme,
                         u: Optional[np.ndarray] = None) -> np.ndarray:
    """Pointwise conformal factor for the scalar schemes; `u` is the volume
    potential of rho, if at hand."""
    if scheme.kind == "linear":
        return np.ones(rho.grid.dims)
    u = volume_potential_values(rho) if u is None else u
    require_above_floor(u, f"u in the {scheme.kind} weight")
    if scheme.kind == "power_u":
        return u ** (-scheme.r)
    if scheme.kind == "norm_ratio":
        return norm_sq_values(rho) / u
    raise ValueError(f"scheme {scheme.kind!r} is not scalar")


def weight_h(rho: TwoForm, scheme: FlowScheme) -> np.ndarray:
    """Realized weight matrix h for a scheme; positive definite where u > 0."""
    if scheme.is_scalar:
        eye = np.eye(4).reshape((4, 4) + (1,) * rho.grid.rank)
        return eye * scalar_weight_values(rho, scheme)
    u = volume_potential_values(rho)
    require_above_floor(u, f"u in the {scheme.kind} weight")
    if scheme.kind == "matrix_bh":
        return sqrt_b_values(rho) / u
    gram = _gram_values(rho, scheme.kind in ("matrix_b1", "matrix_b2"))
    gram /= u if scheme.kind in ("matrix_a1", "matrix_b1") else u ** 2
    return gram


def weight_apply(rho: TwoForm, scheme: FlowScheme, xi: np.ndarray,
                 u: Optional[np.ndarray] = None) -> np.ndarray:
    """h xi pointwise for a 1-form xi of shape (4, *dims), without building h;
    `u` is the volume potential of rho, if at hand.

    a = R R^T and b = S S^T for the skew matrices R of rho and S of *rho, so
    a xi = -R(R xi) and b xi = -S(S xi); sqrt(b) xi = (u xi + b xi)/(lambda1 +
    lambda2) with the guard of `sqrt_b_values`.  `weight_h` is the explicit
    matrix this must agree with.
    """
    if scheme.is_scalar:
        return scalar_weight_values(rho, scheme, u) * xi
    u = volume_potential_values(rho) if u is None else u
    require_above_floor(u, f"u in the {scheme.kind} weight")
    terms = _SKEW_TERMS if scheme.kind in ("matrix_a1", "matrix_a2") \
        else _STAR_SKEW_TERMS
    if scheme.kind == "matrix_bh":
        lam1, lam2 = eigenvalue_values(rho)
        scale = np.maximum(lam1 + lam2, EIG_EPS) * u
    else:
        scale = -u if scheme.kind in ("matrix_a1", "matrix_b1") else -(u * u)
    out = np.empty_like(xi)
    # one slab of the first grid axis at a time, so that the mat-vec
    # operands stay in cache: about 40% faster than whole fields at 24^4
    for k in range(xi.shape[1]):
        v, slab = xi[:, k], rho.comps[:, k]
        twice = _skew_apply(slab, _skew_apply(slab, v, terms), terms)  # -(a or b) v
        if scheme.kind == "matrix_bh":
            twice = u[k] * v - twice
        np.divide(twice, scale[k], out=out[:, k])
    return out


def weight_spectral_radius(rho: TwoForm, scheme: FlowScheme,
                           u: Optional[np.ndarray] = None) -> np.ndarray:
    """Pointwise largest eigenvalue of h, from the closed-form spectrum; `u`
    is the volume potential of rho, if at hand.

    a and b both have eigenvalues {lambda1^2, lambda2^2} (doubled), so every
    scheme's h has a spectrum expressible in lambda1, lambda2, u.
    """
    if scheme.is_scalar:
        return scalar_weight_values(rho, scheme, u)
    u = volume_potential_values(rho) if u is None else u
    require_above_floor(u, f"u in the {scheme.kind} weight")
    lam1, _ = eigenvalue_values(rho)
    if scheme.kind in ("matrix_a1", "matrix_b1"):
        return lam1 ** 2 / u
    if scheme.kind in ("matrix_a2", "matrix_b2"):
        return lam1 ** 2 / u ** 2
    return lam1 / u  # matrix_bh
