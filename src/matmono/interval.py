"""Interval arithmetic over numpy arrays: the enclosure rung of the
precision ladder.

An Interval holds a 1-D batch of boxes [lo, hi] as one (2, n) array,
lower bounds in row 0 and upper bounds in row 1 (Moore, Kearfott and
Cloud, Introduction to Interval Analysis, 2009).  +, -, * and / round to
nearest and then step each bound one float outward with np.nextafter: a
rounded result lies within half an ulp of the exact one, so the stepped
box holds the exact result for every pair of points of the operands.
exp, log and real powers come from numpy's libm kernels, which are not
correctly rounded: their bounds step LIBM_ULPS floats outward.  sqrt is
correctly rounded (IEEE 754) and steps one.  A Python float, an int or a
numpy array in an operation is an exact point (an array gives one point
per box); point(value) is the box of one float.

Comparisons answer "possibly": box == 0 holds where 0 lies in the box,
box <= 0 where some point of it is <= 0, and so on; expr._jet tests its
domains with them, so a box only partly inside a domain raises
expr.DomainError.  A box whose bounds are NaN is not known (0 * inf in
a product, a quotient by a box holding 0): a product or quotient makes
both bounds NaN where either would be, and every operation keeps them
NaN, except a product with an exact zero, which is exactly zero.

This module is the `lib` expr._jet runs on for an Interval argument: its
module functions are the elementary functions of the arithmetic.
"""

from __future__ import annotations

import functools

import numpy as np

# ulps of error allowed to numpy's float64 exp, log and power
LIBM_ULPS = 4


@functools.lru_cache(maxsize=64)
def _outward_of(n: int) -> np.ndarray:
    """The directions (-inf, inf) of the lower and upper bounds of n boxes."""
    out = np.empty((2, n))
    out[0], out[1] = -np.inf, np.inf
    return out


def _box(v: np.ndarray) -> "Interval":
    box = object.__new__(Interval)
    box.v = v
    return box


def _outward(s: np.ndarray, steps: int = 1) -> "Interval":
    """The box of the rounded bounds s ((2, n), fresh or a view of a fresh
    array: overwritten), each bound stepped `steps` floats outward."""
    to = _outward_of(s.shape[1])
    for _ in range(steps):
        np.nextafter(s, to, out=s)
    return _box(s)


def _hull(a: np.ndarray, b: np.ndarray, op) -> np.ndarray:
    """(2, n) rounded bounds of op over two batches of boxes a, b ((2, n) or
    (2, 1), one box for all): the least and greatest of the four
    candidates, both NaN where a candidate is NaN."""
    p = np.empty((6, max(a.shape[1], b.shape[1])))  # four candidates, then the bounds
    if b.shape[1] < a.shape[1]:
        op(a, b[0], out=p[:2])
        op(a, b[1], out=p[2:4])
    elif a.shape[1] < b.shape[1]:
        op(a[0], b, out=p[:2])
        op(a[1], b, out=p[2:4])
    else:
        op(a, b, out=p[:2])
        op(a, b[::-1], out=p[2:4])
    p[:4].min(axis=0, out=p[4])
    p[:4].max(axis=0, out=p[5])
    return p[4:]


def _extremes(s: np.ndarray) -> np.ndarray:
    """(2, n) least and greatest of two candidate rows s (2, n), both NaN
    where a candidate is NaN."""
    return np.array([np.minimum(s[0], s[1]), np.maximum(s[0], s[1])])


def _unknown_where(s: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """s ((2, n)) with both bounds NaN where bad holds (bad of one box
    stands for all)."""
    if bad.any():
        s[:, np.broadcast_to(bad, s.shape[1:])] = np.nan
    return s


def _is_scalar(o) -> bool:
    return isinstance(o, (int, float))


def _is_point(v: np.ndarray) -> bool:
    """v ((2, n)) is one box of zero width: a product with it is a scalar one."""
    return v.shape[1] == 1 and v[0, 0] == v[1, 0]


class Interval:
    """A 1-D batch of boxes [lo, hi] with outward-rounded arithmetic."""

    __slots__ = ("v",)
    # numpy operands defer to this class's reflected operators
    __array_ufunc__ = None
    __hash__ = None

    def __init__(self, lo, hi=None):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = lo if hi is None else np.atleast_1d(np.asarray(hi, dtype=float))
        v = np.array(np.broadcast_arrays(lo, hi))
        if v.ndim != 2:
            raise ValueError("an Interval holds a 1-D batch of boxes")
        if (v[0] > v[1]).any():
            raise ValueError("a box needs lo <= hi")
        self.v = v

    @property
    def lo(self) -> np.ndarray:
        return self.v[0]

    @property
    def hi(self) -> np.ndarray:
        return self.v[1]

    def __len__(self) -> int:
        return self.v.shape[1]

    def __getitem__(self, index) -> "Interval":
        return _box(self.v[:, index])

    def __repr__(self) -> str:
        return f"Interval(lo={self.v[0]!r}, hi={self.v[1]!r})"

    def __neg__(self) -> "Interval":
        return _box(-self.v[::-1])

    def __abs__(self) -> "Interval":
        lo, hi = self.v
        return _box(np.array([np.maximum(np.maximum(lo, -hi), 0.0), np.maximum(-lo, hi)]))

    def __add__(self, o):
        if isinstance(o, Interval):
            return _outward(self.v + o.v)
        if _is_scalar(o) and o == 0:
            return self
        return _outward(self.v + o)

    __radd__ = __add__

    def __sub__(self, o):
        if isinstance(o, Interval):
            return _outward(self.v - o.v[::-1])
        if _is_scalar(o) and o == 0:
            return self
        return _outward(self.v - o)

    def __rsub__(self, o):
        if _is_scalar(o) and o == 0:
            return -self
        return _outward(o - self.v[::-1])

    def __mul__(self, o):
        if isinstance(o, Interval):
            if _is_point(self.v):
                self, o = o, float(self.v[0, 0])
            elif _is_point(o.v):
                o = float(o.v[0, 0])
            else:
                return _outward(_hull(self.v, o.v, np.multiply))
        if _is_scalar(o):
            if o == 0:
                return 0.0  # an exact zero times any real number
            if o == 1:
                return self
            s = self.v * o
            return _outward(s if o > 0 else s[::-1])
        return _outward(_extremes(self.v * o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Interval):
            s = _hull(self.v, o.v, np.divide)
            return _outward(_unknown_where(s, (o.v[0] <= 0.0) & (o.v[1] >= 0.0)))
        if _is_scalar(o):
            if o == 1:
                return self
            s = self.v / o
            return _outward(s if o > 0 else s[::-1])
        return _outward(_unknown_where(_extremes(self.v / o), np.asarray(o == 0.0)))

    def __rtruediv__(self, o):
        if _is_scalar(o) and o == 0:
            return 0.0
        s = _extremes(o / self.v)
        return _outward(_unknown_where(s, (self.v[0] <= 0.0) & (self.v[1] >= 0.0)))

    def __pow__(self, p):
        """Integer powers by square-and-multiply (an even power of |box|);
        a real power, float or point box, of a positive box."""
        if isinstance(p, (int, np.integer)):
            if p < 0:
                return 1.0 / self ** -p
            base, out = self if p % 2 else abs(self), 1.0
            for bit in bin(p)[2:]:
                out = out * out
                if bit == "1":
                    out = out * base
            return out
        if isinstance(p, Interval):
            if not (p.v.shape[1] == 1 and p.v[0, 0] == p.v[1, 0]):
                raise ValueError("a real power needs a point exponent")
            p = float(p.v[0, 0])
        s = _unknown_where(np.power(self.v, p), self.v[0] < 0.0)
        return _outward(s if p >= 0 else s[::-1], LIBM_ULPS)

    # "possibly" comparisons: true where some point of the box satisfies them
    def __eq__(self, o):
        return (self.v[0] <= o) & (o <= self.v[1])

    def __le__(self, o):
        return self.v[0] <= o

    def __lt__(self, o):
        return self.v[0] < o


def point(value: float) -> Interval:
    """The box [value, value] of one float."""
    return _box(np.array([[value], [value]], dtype=float))


def around(value: np.ndarray, radius: np.ndarray) -> Interval:
    """The boxes [value - radius, value + radius] of exact values and radii."""
    return _outward(np.array([value - radius, value + radius]))


def _lift(x) -> Interval:
    return x if isinstance(x, Interval) else point(x)


def exp(x) -> Interval:
    s = _outward(np.exp(_lift(x).v), LIBM_ULPS).v
    np.maximum(s[0], 0.0, out=s[0])
    return _box(s)


def log(x) -> Interval:
    return _outward(np.log(_lift(x).v), LIBM_ULPS)


def sqrt(x) -> Interval:
    s = _outward(np.sqrt(_lift(x).v)).v
    np.maximum(s[0], 0.0, out=s[0])
    return _box(s)
