"""Integral representations tying divided-difference matrices to local ones.

The Loewner matrix over nodes x_1 < ... < x_n is an average of the
local monotonicity matrix: L = int C(t)^T M(t) C(t) w(t) dt, where
M(t) has entries f^(i+j-1)(t)/(i+j-1)!, C(t) rewrites the Lagrange
basis in powers of (x - t), and w is the Peano weight of the doubled
node multiset (each x_i twice).  The convex analogue replaces L by a
Kraus matrix, M by the Hankel matrix f^(i+j)(t)/(i+j)!, and doubles
the nodes plus one extra knot at the base point.

These identities are exact; the verifiers here evaluate both sides and
report the worst normalized entry error, which is quadrature-limited
for transcendental f and exact (up to roundoff) for polynomials within
the quadrature degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .criteria import dobsch_matrix, hankel_convex_matrix, kraus_matrix, loewner_matrix
from .divdiff import NodeMultiset, peano_weight
from .expr import FunctionModel
from .polynomial import Poly


@dataclass(frozen=True)
class BasisChange:
    """Expansion of the punctured Lagrange numerators in powers of (x - t).

    matrix[i, j] is the coefficient of (x - t)^(n-1-i) in
    p_j(x) = prod_{k != j} (x - x_k); column j lists the coefficients
    of p_j from the highest power down.
    """

    points: tuple[float, ...]
    t: float
    matrix: np.ndarray

    def verify(self, tol: float = 1e-9) -> float:
        """Max reconstruction error of p_j at the nodes; raises if > tol."""
        n = len(self.points)
        worst = 0.0
        for j in range(n):
            others = [x for k, x in enumerate(self.points) if k != j]
            for x in self.points:
                direct = math.prod(x - o for o in others)
                expanded = sum(
                    self.matrix[i, j] * (x - self.t) ** (n - 1 - i) for i in range(n)
                )
                worst = max(worst, abs(direct - expanded) / max(1.0, abs(direct)))
        if worst > tol:
            raise ValueError(f"basis change fails to reconstruct: error {worst}")
        return worst


def basis_change_matrix(points, t: float) -> BasisChange:
    pts = tuple(float(p) for p in points)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    t = float(t)
    n = len(pts)
    C = np.empty((n, n))
    for j in range(n):
        p = Poly.from_roots(tuple(x for k, x in enumerate(pts) if k != j), 1.0)
        # row n-1-m holds the coefficient p^(m)(t)/m! of (x-t)^m
        C[::-1, j] = p.taylor(t, n)
    return BasisChange(pts, t, C)


@functools.lru_cache(maxsize=64)
def _gauss_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(count)
    return nodes, weights


def _piecewise_quad(integrand, knots, quad_points: int) -> np.ndarray:
    """Integrate a matrix-valued function between consecutive knots."""
    nodes, weights = _gauss_rule(quad_points)
    total = None
    for a, b in zip(knots, knots[1:]):
        if b <= a:
            continue
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        for u, wq in zip(nodes, weights):
            piece = (half * wq) * integrand(mid + half * u)
            total = piece if total is None else total + piece
    if total is None:
        raise ValueError("empty integration range")
    return total


@dataclass
class IdentityReport:
    """Both sides of an integral identity plus the worst entry error."""

    kind: str
    order: int
    points: tuple[float, ...]
    base: float | None
    quad_points: int
    lhs: np.ndarray
    rhs: np.ndarray
    max_error: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.max_error))

    def to_jsonable(self) -> dict:
        out = {
            "kind": self.kind,
            "order": self.order,
            "points": list(self.points),
            "quad_points": self.quad_points,
            "lhs": self.lhs.tolist(),
            "rhs": self.rhs.tolist(),
            "max_error": self.max_error,
        }
        if self.base is not None:
            out["base"] = self.base
        return out


def _normalized_error(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(lhs))))
    return float(np.max(np.abs(lhs - rhs))) / scale


def verify_monotone_identity(
    f: FunctionModel,
    points,
    quad_points: int = 20,
    precision: str = "auto",
) -> IdentityReport:
    """Loewner matrix vs its local-matrix average; needs n >= 2 nodes."""
    pts = tuple(sorted(float(p) for p in points))
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two nodes")
    if len(set(pts)) != n:
        raise ValueError("points must be distinct")
    lhs = loewner_matrix(f, pts, precision)
    w = peano_weight(NodeMultiset.from_pairs([(x, 2) for x in pts]))

    def integrand(t: float) -> np.ndarray:
        C = basis_change_matrix(pts, t).matrix
        return w(t) * (C.T @ dobsch_matrix(f, t, n) @ C)

    rhs = _piecewise_quad(integrand, pts, quad_points)
    return IdentityReport(
        "monotone", n, pts, None, quad_points, lhs, rhs, _normalized_error(lhs, rhs)
    )


def verify_convex_identity(
    f: FunctionModel,
    points,
    base: float,
    quad_points: int = 20,
    precision: str = "auto",
) -> IdentityReport:
    """Kraus matrix vs its local-matrix average; needs n >= 2 nodes."""
    pts = tuple(sorted(float(p) for p in points))
    n = len(pts)
    if n < 2:
        raise ValueError("need at least two nodes")
    if len(set(pts)) != n:
        raise ValueError("points must be distinct")
    base = float(base)
    lhs = kraus_matrix(f, pts, base, precision)
    flat = [x for x in pts for _ in range(2)] + [base]
    w = peano_weight(NodeMultiset.from_points(flat))
    knots = sorted(set(pts) | {base})

    def integrand(t: float) -> np.ndarray:
        C = basis_change_matrix(pts, t).matrix
        return w(t) * (C.T @ hankel_convex_matrix(f, t, n) @ C)

    rhs = _piecewise_quad(integrand, knots, quad_points)
    return IdentityReport(
        "convex", n, pts, base, quad_points, lhs, rhs, _normalized_error(lhs, rhs)
    )
