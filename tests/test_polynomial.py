"""Polynomial arithmetic and the weights N(q)."""

import numpy as np
import pytest

from matmono import Poly, n_of


def test_poly_arithmetic_and_trimming():
    p = Poly.of(1.0, 2.0) * Poly.of(-1.0, 1.0)  # (1+2x)(x-1) = -1 - x + 2x^2
    assert p.coeffs == (complex(-1.0), complex(-1.0), complex(2.0))
    assert (p - p).is_zero()
    assert Poly.of(0.0, 0.0).is_zero()
    assert p.degree == 2
    assert p.eval(2.0) == pytest.approx(5.0)


def test_from_roots_and_derivative():
    p = Poly.from_roots([1.0, 2.0, 3.0])
    assert p.eval(1.0) == pytest.approx(0.0, abs=1e-14)
    assert p.derivative().eval(0.0) == pytest.approx(11.0)  # p = x^3-6x^2+11x-6
    assert p.derivative(3).coeffs == (complex(6.0),)
    anti = Poly.of(0.0, 0.0, 3.0).antiderivative()
    assert anti.eval(2.0) == pytest.approx(8.0)


def test_eval_on_arrays():
    p = Poly.of(1.0, 0.0, 1.0)
    xs = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(p.eval(xs).real, xs * xs + 1.0, rtol=1e-15)


def test_n_of_is_abs_square_on_the_real_line():
    rng = np.random.default_rng(42)
    for _ in range(25):
        deg = int(rng.integers(0, 5))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        q = Poly(tuple(complex(c) for c in coeffs))
        nq = n_of(q)
        assert nq.is_real()
        for x in rng.normal(size=4):
            want = abs(q.eval(float(x))) ** 2
            assert nq.eval(float(x)).real == pytest.approx(want, rel=1e-12, abs=1e-12)
