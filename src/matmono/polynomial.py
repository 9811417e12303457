"""Complex polynomials, their roots and the nonnegativity decompositions.

Coefficients are stored ascending with trailing zeros trimmed, so the
zero polynomial is the empty tuple.  N(q) = q * q~ (q~ has conjugated
coefficients) is real and nonnegative on the real line; the two
decomposition routines invert that map: sos_decompose writes a globally
nonnegative p as N(q), ab_decompose writes a polynomial that is
nonnegative outside an interval (a, b) as a positive combination of
N-terms times the boundary factors (x-a), (x-b), (x-a)(x-b).  Both take
the roots of p from roots(): the eigenvalues of the companion matrix
(numpy.roots), each held to a residual bound.  taylor_shift is the
synthetic-division loop of Poly.taylor and of the weight columns in
divdiff's batched tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NonConvergenceError(RuntimeError):
    """A root misses the residual tolerance, or a decomposition does not
    reconstruct its input."""


class DecompositionError(ValueError):
    """Input polynomial violates the nonnegativity hypothesis."""


def _trim(coeffs) -> tuple[complex, ...]:
    out = [complex(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def taylor_shift(coeffs, t, count: int) -> list:
    """Jet [p^(k)(t)/k! for k < count] of the polynomial with ascending
    coefficients coeffs, by synthetic division by (x - t), repeated: no
    k * c_k product or factorial is rounded, and t's arithmetic (float,
    mpmath or numpy) is used throughout.  The coefficients may be scalars
    or numpy columns that broadcast against an array t, which gives one
    jet per row."""
    out = []
    for _ in range(count):
        acc, partial = 0.0 * t, []
        for c in reversed(coeffs):
            acc = acc * t + c
            partial.append(acc)
        out.append(acc)
        coeffs = partial[-2::-1]  # the quotient, ascending
    return out


@dataclass(frozen=True)
class Poly:
    """Polynomial with complex coefficients, ascending order."""

    coeffs: tuple[complex, ...] = ()

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly(_trim(coeffs))

    @staticmethod
    def from_coeffs(coeffs) -> "Poly":
        return Poly(_trim(coeffs))

    @staticmethod
    def from_roots(roots, leading: complex = 1.0) -> "Poly":
        p = Poly.of(leading)
        for r in roots:
            p = p * Poly.of(-r, 1.0)
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(
            _trim(
                [
                    (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                    for i in range(n)
                ]
            )
        )

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        a, b = self.coeffs, other.coeffs
        out = [0j] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return Poly(_trim(out))

    def scale(self, s: complex) -> "Poly":
        return Poly(_trim([s * c for c in self.coeffs]))

    def conjugate_coeffs(self) -> "Poly":
        return Poly(tuple(c.conjugate() for c in self.coeffs))

    def derivative(self, k: int = 1) -> "Poly":
        p = self
        for _ in range(k):
            p = Poly(_trim([i * c for i, c in enumerate(p.coeffs)][1:]))
        return p

    def taylor(self, t, count: int) -> list:
        """Jet [p^(k)(t)/k! for k < count] of the real part (taylor_shift)."""
        return taylor_shift(self.real_coeffs(), t, count)

    def antiderivative(self) -> "Poly":
        return Poly(_trim([0.0] + [c / (i + 1) for i, c in enumerate(self.coeffs)]))

    def eval(self, x):
        """Horner evaluation; x may be a scalar, mpmath number or array."""
        if not self.coeffs:
            return 0.0 * x if isinstance(x, np.ndarray) else 0.0
        acc = self.coeffs[-1] * (1.0 if not isinstance(x, np.ndarray) else np.ones_like(x))
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __call__(self, x):
        return self.eval(x)

    def is_real(self, tol: float = 0.0) -> bool:
        scale = max((abs(c) for c in self.coeffs), default=0.0)
        return all(abs(c.imag) <= tol * max(scale, 1.0) for c in self.coeffs)

    def real_coeffs(self) -> tuple[float, ...]:
        return tuple(c.real for c in self.coeffs)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs), default=0.0)


ONE = Poly.of(1.0)


def n_coeffs(qs) -> np.ndarray:
    """Real coefficients of N(q) = q * q~ for each Poly of qs, as one
    (len(qs), 2k - 1) array, zero-padded, k the longest q.

    The products and sums are Poly.__mul__'s, in its order: entry p sums
    Re(q_i * conj(q_j)) over i + j = p by increasing i, from 0, each
    product rounded as a complex product rounds its real part.  The
    imaginary parts are conjugate-symmetric rounding dust and are never
    formed, so every entry is exactly the real part Poly.__mul__ gives.
    """
    k = max(len(q.coeffs) for q in qs)
    Q = np.array([q.coeffs + (0j,) * (k - len(q.coeffs)) for q in qs], dtype=complex)
    re, im = Q.real, Q.imag
    out = np.zeros((len(qs), max(2 * k - 1, 0)))
    for i in range(k):
        # re_i re_j - im_i (-im_j): the real part of q_i * conj(q_j)
        out[:, i : i + k] += re[:, i, None] * re + im[:, i, None] * im
    return out


def n_of(q: Poly) -> Poly:
    """N(q) = q * q~ where q~ conjugates the coefficients.

    For real x, N(q)(x) = |q(x)|^2, so N(q) is real and nonnegative on
    the real line.  The returned coefficients are exactly real (the
    imaginary rounding dust is dropped; it is conjugate-symmetric and
    cancels in exact arithmetic); they are n_coeffs's, trimmed.  N(ONE)
    is ONE itself.
    """
    if q is ONE:
        return ONE
    return Poly.from_coeffs(n_coeffs([q])[0].tolist())


# ---------------------------------------------------------------------------
# Root finding: companion-matrix eigenvalues under a residual contract

ROOT_TOL = 1e-10


def roots(p: Poly) -> list[complex]:
    """All complex roots with multiplicity (repeated entries for clusters).

    The eigenvalues of the companion matrix (numpy.roots).  Each returned
    z satisfies |p(z)| <= ROOT_TOL * sum_k |c_k| |z|^k, or
    NonConvergenceError.  Deterministic; sorted by (real, imag) rounded
    to 12 decimals.
    """
    if p.degree < 1:
        raise ValueError("degree must be >= 1 to have roots")
    z = [complex(r) for r in np.roots(p.coeffs[::-1])]
    for zi in z:
        scale = sum(abs(ck) * abs(zi) ** k for k, ck in enumerate(p.coeffs))
        if abs(p.eval(zi)) > ROOT_TOL * max(scale, 1e-300):
            raise NonConvergenceError(f"root {zi} misses the residual bound")
    return sorted(z, key=lambda v: (round(v.real, 12), round(v.imag, 12)))


def _pair_tol(r: complex, rel: float = 1e-7) -> float:
    return rel * (1.0 + abs(r))


def _cluster_real_roots(real_roots: list[complex], rel: float) -> list[tuple[float, int]]:
    """Group near-coincident real roots; returns (location, multiplicity)."""
    groups: list[tuple[float, int]] = []
    for r in sorted(real_roots, key=lambda v: v.real):
        x = r.real
        if groups and abs(x - groups[-1][0]) <= _pair_tol(r, rel):
            loc, m = groups[-1]
            groups[-1] = ((loc * m + x) / (m + 1), m + 1)
        else:
            groups.append((x, 1))
    return groups


def _split_roots(rts: list[complex], rel: float = 1e-7):
    """Partition numerical roots into real clusters and conjugate pairs.

    Returns (real_groups, upper_pairs); raises DecompositionError when a
    complex root has no conjugate partner (the polynomial was not real).
    """
    real_roots = [r for r in rts if abs(r.imag) <= _pair_tol(r, rel)]
    complex_roots = [r for r in rts if abs(r.imag) > _pair_tol(r, rel)]
    upper = sorted(
        (r for r in complex_roots if r.imag > 0), key=lambda v: (v.real, v.imag)
    )
    lower = [r for r in complex_roots if r.imag < 0]
    for r in upper:
        match = None
        for j, s in enumerate(lower):
            if abs(r - s.conjugate()) <= _pair_tol(r, rel):
                match = j
                break
        if match is None:
            raise DecompositionError(f"unpaired complex root {r}")
        lower.pop(match)
    if lower:
        raise DecompositionError(f"unpaired complex root {lower[0]}")
    return _cluster_real_roots(real_roots, rel), upper


def _split_roots_robust(rts: list[complex]):
    """Strict split, then a loose retry for high-multiplicity clusters.

    A real root of multiplicity m is rendered by the eigenvalue solver as a
    cluster of radius ~ ROOT_TOL^(1/m), far wider than the strict pairing
    tolerance; the retry classifies with a 1e-3 relative radius and the
    caller's reconstruction check vouches for the result.
    """
    try:
        return _split_roots(rts)
    except DecompositionError:
        return _split_roots(rts, rel=1e-3)


def sos_decompose(p: Poly) -> Poly:
    """Write a real polynomial p >= 0 on R as N(q), deg q = deg p / 2.

    q collects one root of each conjugate pair (the closed upper
    half-plane representative) and half of every even real multiplicity.
    A sign change (odd real multiplicity, odd degree, or negative
    leading coefficient) raises DecompositionError.
    """
    if p.is_zero():
        raise DecompositionError("zero polynomial")
    if not p.is_real(1e-12):
        raise DecompositionError("polynomial is not real")
    if p.degree == 0:
        v = p.coeffs[0].real
        if v < 0:
            raise DecompositionError("negative constant")
        return Poly.of(math.sqrt(v))
    if p.degree % 2 == 1:
        raise DecompositionError("odd degree polynomial changes sign on R")
    lead = p.coeffs[-1].real
    if lead <= 0:
        raise DecompositionError("leading coefficient must be positive")
    real_groups, upper = _split_roots_robust(roots(p))
    q_roots: list[complex] = list(upper)
    for loc, m in real_groups:
        if m % 2 == 1:
            raise DecompositionError(f"odd multiplicity at real root {loc}")
        q_roots.extend([complex(loc, 0.0)] * (m // 2))
    q = Poly.from_roots(q_roots, leading=math.sqrt(lead))
    recon = n_of(q)
    err = max(
        abs(a - b) for a, b in zip(_padded(recon, p.degree), _padded(p, p.degree))
    )
    if err > 1e-6 * max(p.max_abs_coeff(), 1.0):
        raise NonConvergenceError(f"sos reconstruction error {err:.3e}")
    return q


def _padded(p: Poly, degree: int):
    return list(p.coeffs) + [0j] * (degree + 1 - len(p.coeffs))


# ---------------------------------------------------------------------------
# Decomposition relative to an interval [a, b]


@dataclass(frozen=True)
class ABTerm:
    """weight * kind_factor(a, b) * N(q); kind in {plain, a, b, ab}."""

    weight: float
    kind: str  # "plain" -> 1, "a" -> (x-a), "b" -> (x-b), "ab" -> (x-a)(x-b)
    q: Poly

    def factor_poly(self, a: float, b: float) -> Poly:
        if self.kind == "plain":
            return ONE
        if self.kind == "a":
            return Poly.of(-a, 1.0)
        if self.kind == "b":
            return Poly.of(-b, 1.0)
        if self.kind == "ab":
            return Poly.of(-a, 1.0) * Poly.of(-b, 1.0)
        raise ValueError(f"unknown kind {self.kind!r}")

    def to_poly(self, a: float, b: float) -> Poly:
        return (self.factor_poly(a, b) * n_of(self.q)).scale(self.weight)


def ab_decompose(p: Poly, a: float, b: float) -> list[ABTerm]:
    """Positive combination for a polynomial nonnegative outside (a, b).

    Hypothesis (checked via root locations): p real with positive
    leading coefficient; for even degree, p >= 0 outside (a, b); for odd
    degree, p >= 0 on [b, inf) and p <= 0 on (-inf, a].  The output
    terms satisfy weight >= 0, and for even p the kinds are plain/ab,
    for odd p the kinds are a/b, with sum of terms reconstructing p.
    """
    if a > b:
        raise ValueError("need a <= b")
    if p.is_zero():
        raise DecompositionError("zero polynomial")
    if not p.is_real(1e-12):
        raise DecompositionError("polynomial is not real")
    lead = p.coeffs[-1].real
    if lead <= 0:
        raise DecompositionError("leading coefficient must be positive")
    if p.degree == 0:
        return [ABTerm(lead, "plain", ONE)]

    real_groups, upper = _split_roots_robust(roots(p))
    edge = 1e-9 * (1.0 + abs(a) + abs(b))
    q_tilde = Poly.from_roots(list(upper))
    inside: list[float] = []
    for loc, m in real_groups:
        if loc < a - edge or loc > b + edge:
            if m % 2 == 1:
                raise DecompositionError(
                    f"odd multiplicity at {loc}, outside [{a}, {b}]: sign hypothesis fails"
                )
            q_tilde = q_tilde * Poly.from_roots([loc] * (m // 2))
        else:
            y = min(max(loc, a), b)
            q_tilde = q_tilde * Poly.from_roots([y] * (m // 2))
            if m % 2 == 1:
                inside.append(y)

    # Expand each inside factor (x - y) = t(x - a) + (1 - t)(x - b),
    # t = (b - y)/(b - a); collect the 2^l products by (#a, #b) counts.
    terms: dict[tuple[int, int], float] = {(0, 0): lead}
    for y in inside:
        if b == a:
            t = 1.0
        else:
            t = (b - y) / (b - a)
        nxt: dict[tuple[int, int], float] = {}
        for (na, nb), wgt in terms.items():
            if t > 0:
                nxt[(na + 1, nb)] = nxt.get((na + 1, nb), 0.0) + wgt * t
            if t < 1:
                nxt[(na, nb + 1)] = nxt.get((na, nb + 1), 0.0) + wgt * (1.0 - t)
        terms = nxt

    out: list[ABTerm] = []
    pa = Poly.of(-a, 1.0)
    pb = Poly.of(-b, 1.0)
    for (na, nb), wgt in sorted(terms.items()):
        q = q_tilde
        if na // 2:
            q = q * Poly.from_roots([a] * (na // 2))
        if nb // 2:
            q = q * Poly.from_roots([b] * (nb // 2))
        kind = {(0, 0): "plain", (1, 0): "a", (0, 1): "b", (1, 1): "ab"}[
            (na % 2, nb % 2)
        ]
        out.append(ABTerm(wgt, kind, q))

    recon = Poly()
    for term in out:
        recon = recon + term.to_poly(a, b)
    err = max(
        abs(x - y) for x, y in zip(_padded(recon, p.degree), _padded(p, p.degree))
    )
    if err > 1e-6 * max(p.max_abs_coeff(), 1.0):
        raise NonConvergenceError(f"ab reconstruction error {err:.3e}")
    return out
