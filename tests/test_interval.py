"""Interval arithmetic: outward rounding, the jet of every node kind over
boxes, and "possibly" domain tests."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from matmono import DomainError, FunctionModel
from matmono.expr import (
    Add,
    Const,
    Div,
    Exp,
    Log,
    Mul,
    Neg,
    Pow,
    PowReal,
    Sqrt,
    Sub,
    X,
    jet,
)
from matmono.interval import Interval, exp, log, point, sqrt

# one expression per node kind, each defined on (0, inf); constant
# arithmetic (0.1 * 3 rounds in double) is in "const"
NODE_KINDS = {
    "const": Add(Mul(Const(0.1), Const(3.0)), Div(Const(1.0), Const(3.0))),
    "var": X,
    "neg": Neg(Exp(X)),
    "add": Add(Exp(X), Log(X)),
    "sub": Sub(Sqrt(X), Log(X)),
    "mul": Mul(X, Log(X)),
    "div": Div(Exp(X), Add(X, Const(1.5))),
    "div-constant": Div(Exp(X), Sub(Const(1.0), Const(3.0))),
    "pow": Pow(Sub(X, Const(1.7)), 5),
    "pow-negative": Pow(Add(X, Const(0.25)), -3),
    "powreal": PowReal(X, 0.37),
    "powreal-negative": PowReal(Add(X, Const(0.1)), -1.3),
    "exp": Exp(Mul(Const(0.7), X)),
    "log": Log(Add(Const(1.0), X)),
    "sqrt": Sqrt(Add(X, Const(0.3))),
}
WIDTHS = (0.0, 1e-12, 1e-6, 1e-3, 0.1)
K = 8


def _bounds(c, count):
    """(lo, hi) arrays of a jet coefficient: an Interval or an exact float."""
    if isinstance(c, Interval):
        return np.broadcast_to(c.lo, count), np.broadcast_to(c.hi, count)
    return np.full(count, c), np.full(count, c)


@pytest.mark.parametrize("kind", sorted(NODE_KINDS))
def test_box_jets_contain_the_mpmath_jet(kind):
    """Every coefficient of the interval jet over a box holds the 60-digit
    mpmath jet at the box's ends and at points inside, for boxes of every
    width (width 0 tests the ulps allowed to exp, log and powers)."""
    e = NODE_KINDS[kind]
    rng = np.random.default_rng(sorted(NODE_KINDS).index(kind))
    for width in WIDTHS:
        lo = rng.uniform(0.5, 4.0, 12)
        hi = lo + width * rng.uniform(0.5, 1.0, 12)
        coeffs = jet(e, Interval(lo, hi), K)
        bounds = [_bounds(c, len(lo)) for c in coeffs]
        for i in range(len(lo)):
            for t in (lo[i], hi[i], lo[i] + (hi[i] - lo[i]) * rng.uniform()):
                want = jet(e, float(t), K, "extended", 60)
                for k, (low, high) in enumerate(bounds):
                    assert low[i] <= want[k] <= high[i], (kind, width, k, t)


def _exact(box):
    return [Fraction(float(v)) for v in box]


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_arithmetic_rounds_outward(op):
    """Each result box holds the exact (rational) result of the operation
    on the ends of its operands, boxes straddling zero included."""
    rng = np.random.default_rng(7)
    lo = rng.uniform(-3.0, 3.0, (2, 64))
    hi = lo + rng.uniform(0.0, 1.0, (2, 64)) * 10.0 ** rng.integers(-12, 1, (2, 64))
    if op == "/":  # divisors clear of zero
        lo[1], hi[1] = np.abs(lo[1]) + 0.5, np.abs(lo[1]) + 0.5 + (hi[1] - lo[1])
    a, b = Interval(lo[0], hi[0]), Interval(lo[1], hi[1])
    got = {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op]
    exact = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
             "*": lambda x, y: x * y, "/": lambda x, y: x / y}[op]
    for i in range(64):
        ends = [exact(x, y) for x in _exact((lo[0, i], hi[0, i])) for y in _exact((lo[1, i], hi[1, i]))]
        assert Fraction(float(got.lo[i])) <= min(ends)
        assert max(ends) <= Fraction(float(got.hi[i]))


def test_points_and_numbers_are_exact_operands():
    """A float, an int, an array of values or a point box in an operation
    is exact: 0.1 + 0.2 as boxes holds the rational sum of the two doubles."""
    s = point(0.1) + 0.2
    want = Fraction(0.1) + Fraction(0.2)
    assert Fraction(float(s.lo[0])) <= want <= Fraction(float(s.hi[0]))
    assert float(s.lo[0]) < 0.1 + 0.2 or float(s.hi[0]) > 0.1 + 0.2
    box = Interval([1.0, 2.0], [1.5, 3.0])
    assert (box * 0.0) == 0.0 and (box * 1) is box
    scaled = np.array([2.0, -1.0]) * box
    assert scaled.lo[0] <= 2.0 and scaled.hi[0] >= 3.0
    assert scaled.lo[1] <= -3.0 and scaled.hi[1] >= -2.0


def test_elementary_functions_hold_mpmath_values():
    rng = np.random.default_rng(3)
    x = rng.uniform(1e-3, 50.0, 200)
    box = Interval(x)
    with mpmath.workdps(60):
        for name, fn, ref in (("exp", exp, mpmath.exp), ("log", log, mpmath.log),
                              ("sqrt", sqrt, mpmath.sqrt)):
            got = fn(box)
            for i, v in enumerate(x.tolist()):
                want = ref(mpmath.mpf(v))
                assert got.lo[i] <= want <= got.hi[i], (name, v)
        for p in (0.37, -1.3, 2.5):
            got = box ** p
            for i, v in enumerate(x.tolist()):
                assert got.lo[i] <= mpmath.mpf(v) ** mpmath.mpf(p) <= got.hi[i], (p, v)


@pytest.mark.parametrize("e, box", [
    (Log(Sub(X, Const(1.0))), (0.9, 1.1)),
    (Sqrt(Sub(X, Const(2.0))), (1.99, 2.5)),
    (PowReal(Sub(X, Const(0.5)), 0.5), (0.25, 0.75)),
    (Div(Const(1.0), Sub(X, Const(2.0))), (1.9, 2.1)),
    (Pow(Sub(X, Const(2.0)), -2), (1.9, 2.1)),
])
def test_a_box_straddling_a_domain_edge_raises(e, box):
    """A domain test fails where it possibly fails somewhere in a box; the
    same box shifted inside the domain evaluates."""
    inside = Interval([box[1] + 1.0], [box[1] + 1.5])
    jet(e, inside, 3)
    with pytest.raises(DomainError):
        jet(e, Interval([box[0]], [box[1]]), 3)


def test_a_model_rejects_a_box_that_leaves_its_domain():
    f = FunctionModel(Log(X), (0.0, math.inf))
    f.taylor(Interval([0.5], [0.7]), 4)
    with pytest.raises(DomainError):
        f.taylor(Interval([0.5, -0.1], [0.7, 0.2]), 4)
    with pytest.raises(ValueError, match="double-precision only"):
        f.taylor(Interval([0.5], [0.7]), 4, "extended")


def test_an_unknown_box_has_both_bounds_nan():
    """0 * inf in a product and a quotient by a box holding 0 leave the box
    unknown: both bounds NaN, kept through later operations."""
    with np.errstate(invalid="ignore", divide="ignore"):
        unknown = Interval([0.0, 2.0], [1.0, 3.0]) * Interval([1.0, 1.0], [np.inf, 2.0])
        quotient = Interval([1.0, 1.0], [2.0, 2.0]) / Interval([-1.0, 0.5], [1.0, 1.0])
    assert np.isnan(unknown.v[:, 0]).all() and not np.isnan(unknown.v[:, 1]).any()
    assert np.isnan(quotient.v[:, 0]).all() and not np.isnan(quotient.v[:, 1]).any()
    later = abs(-unknown + 1.0) * point(2.0)
    assert np.isnan(later.v[:, 0]).all()
