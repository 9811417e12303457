"""Complex polynomials and the weights N(q) of the sampled criteria.

Coefficients are stored ascending with trailing zeros trimmed, so the
zero polynomial is the empty tuple.  N(q) = q * q~ (q~ has conjugated
coefficients) is real and nonnegative on the real line; n_coeffs builds
the coefficients of a batch of them at once.  taylor_shift is the
synthetic-division loop of Poly.taylor and of the weight columns in
divdiff's batched tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    """Real coefficients of N(q) = q * q~ for each q of qs, as one
    (len(qs), 2k - 1) array, zero-padded, k the longest q.  qs holds Polys,
    or is a (rows, k) complex array of ascending coefficients, zero-padded.

    The products and sums are Poly.__mul__'s, in its order: entry p sums
    Re(q_i * conj(q_j)) over i + j = p by increasing i, from 0, each
    product rounded as a complex product rounds its real part.  The
    imaginary parts are conjugate-symmetric rounding dust and are never
    formed, so every entry is exactly the real part Poly.__mul__ gives.
    """
    if isinstance(qs, np.ndarray):
        Q, k = qs, qs.shape[1]
    else:
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
