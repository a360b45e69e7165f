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

from .errors import DegenerateForm, NumericalBlowup
from .grid import PeriodicGrid

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

    @property
    def tag(self) -> str:
        """The name `scheme_from_name` reads back as this scheme."""
        return self.kind if self.r in (None, 0.5) else f"{self.kind}:{self.r!r}"


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
    """Parse a scheme tag like 'conformal', 'linear', 'power_u:0.25', 'matrix_b2';
    'power_u' alone is the conformal flow.  Raise ValueError on any other tag."""
    name = name.strip().lower()
    if name in ("conformal", "power_u"):
        return CONFORMAL
    kind, colon, arg = name.partition(":")
    return FlowScheme(kind, float(arg) if colon else None)


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


def dot(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Pointwise inner product sum_c x_c y_c over the leading (component) axis."""
    return np.einsum("c...,c...->...", x, y, out=out)


def norm_sq_values(rho: TwoForm) -> np.ndarray:
    """|rho|^2 = sum over i<j of rho_ij^2, pointwise."""
    return dot(rho.comps, rho.comps)


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


def _skew_signed(comps: np.ndarray, v: np.ndarray, terms, signs, out: np.ndarray,
                 term: np.ndarray) -> list:
    """M v as `_skew_apply`, for v[c] = -v_c where signs[c] is False, into
    `out`; returns the signs of what out holds.  Each out[t] takes its first
    product as it comes, and each later one (made in `term`) is added or
    subtracted: negation is exact, so out[t] = +-(M v)_t to the bit, but
    for the sign of a zero (no +0.0 is added before the first product)."""
    stored = [None] * 4
    for i, j, src, plus in terms:
        for t, s, add in ((i, j, plus), (j, i, not plus)):
            add = add == signs[s]
            if stored[t] is None:
                stored[t] = add
                np.multiply(comps[src], v[s], out=out[t])
            else:
                (np.add if add == stored[t] else np.subtract)(
                    out[t], np.multiply(comps[src], v[s], out=term), out=out[t])
    return stored


def _skew_apply(comps: np.ndarray, v: np.ndarray, terms) -> np.ndarray:
    """M v pointwise for the skew matrix M read from `comps` through `terms`:
    _SKEW_TERMS for rho itself, _STAR_SKEW_TERMS for *rho."""
    out = np.empty_like(v)
    for t, plus in enumerate(_skew_signed(comps, v, terms, (True,) * 4, out,
                                          np.empty_like(v[0]))):
        if not plus:
            np.negative(out[t], out=out[t])
    return out


# The explicit (4, 4, *dims) builders (matrix_ab for the algebra suite,
# weight_h for the tests) read column j of a matrix M as M e_j.


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


def require_above_floor(values: np.ndarray, what: str = "u") -> None:
    """The floor check: raise DegenerateForm unless min(values) > U_FLOOR,
    NumericalBlowup if that minimum is not finite (a NaN compares False)."""
    m = float(values.min())
    if not np.isfinite(m):
        raise NumericalBlowup(f"min {what} = {m} is not finite")
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
    """The weight matrix h of a scheme as a (4, 4, *dims) array, column j
    being `weight_apply` of e_j; positive definite where u > 0."""
    return np.stack([weight_apply(rho, scheme, e_j)
                     for e_j in _unit_vectors(rho.grid.dims)], axis=1)


def weight_apply(rho: TwoForm, scheme: FlowScheme, xi: np.ndarray,
                 u: Optional[np.ndarray] = None, out=None) -> np.ndarray:
    """h xi pointwise for a 1-form xi of shape (4, *dims), without building h,
    into `out` (xi itself may be it) if given; `u` is the volume potential of
    rho, if at hand.

    a = R R^T and b = S S^T for the skew matrices R of rho and S of *rho, so
    a xi = -R(R xi) and b xi = -S(S xi).  sqrt(b) is the closed form
    (u I + b)/(lambda1 + lambda2), well defined at lambda1 = lambda2, with the
    sum guarded below by EIG_EPS.  This is the one implementation of h.
    """
    if scheme.is_scalar:
        return np.multiply(scalar_weight_values(rho, scheme, u), xi, out=out)
    u = volume_potential_values(rho) if u is None else u
    require_above_floor(u, f"u in the {scheme.kind} weight")
    terms = _SKEW_TERMS if scheme.kind in ("matrix_a1", "matrix_a2") \
        else _STAR_SKEW_TERMS
    if scheme.kind == "matrix_bh":
        lam1, lam2 = eigenvalue_values(rho)
        scale = np.maximum(lam1 + lam2, EIG_EPS) * u
    else:  # twice / -u^p: by u^p where twice is held negated, else -u^p
        power = u if scheme.kind in ("matrix_a1", "matrix_b1") else u * u
        scales = (power, np.negative(power))
    out = np.empty_like(xi) if out is None else out
    inner, twice = np.empty((2,) + xi[:, 0].shape)
    term = np.empty(xi.shape[2:])
    # one slab of the first grid axis at a time, so that the mat-vec
    # operands stay in cache: about 40% faster than whole fields at 24^4.
    # A slab of xi is read in full before its slab of out is written.
    for k in range(xi.shape[1]):
        slab = rho.comps[:, k]
        signs = _skew_signed(slab, xi[:, k], terms, (True,) * 4, inner, term)
        signs = _skew_signed(slab, inner, terms, signs, twice, term)  # -(a or b) xi
        for c, plus in enumerate(signs):
            if scheme.kind == "matrix_bh":  # (u xi - twice) / scale
                target = np.multiply(u[k], xi[c, k], out=out[c, k])
                (np.subtract if plus else np.add)(target, twice[c], out=target)
                np.divide(target, scale[k], out=target)
            else:
                np.divide(twice[c], scales[plus][k], out=out[c, k])
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
