"""Polynomial arithmetic, root finding, and the two positivity decompositions."""

import math

import numpy as np
import pytest

from matmono import Poly, ab_decompose, n_of, roots, sos_decompose
from matmono.polynomial import DecompositionError


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


def test_roots_simple_and_against_numpy():
    got = sorted(r.real for r in roots(Poly.from_roots([-1.0, 0.5, 2.0])))
    assert got == pytest.approx([-1.0, 0.5, 2.0], abs=1e-9)

    rng = np.random.default_rng(3)
    for _ in range(10):
        deg = int(rng.integers(2, 7))
        # known roots, real parts at least 0.4 apart
        known = np.arange(deg) - deg / 2 + rng.uniform(-0.3, 0.3, deg) + 1j * rng.normal(size=deg)
        p = Poly.from_roots(known.tolist(), leading=0.5 + abs(float(rng.normal())))
        mine = sorted(roots(p), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        ref = sorted(known, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert len(mine) == deg
        for a, b in zip(mine, ref):
            assert a == pytest.approx(b, abs=1e-6)


def test_roots_handles_multiplicity():
    p = Poly.from_roots([1.0, 1.0, -2.0])
    rts = roots(p)
    near_one = [r for r in rts if abs(r - 1.0) < 1e-4]
    assert len(near_one) == 2
    with pytest.raises(ValueError):
        roots(Poly.of(3.0))


def test_sos_decompose_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(12):
        deg = int(rng.integers(1, 4))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        q = Poly(tuple(complex(c) for c in coeffs))
        p = n_of(q)
        back = sos_decompose(p)
        recon = n_of(back)
        for a, b in zip(recon.coeffs, p.coeffs):
            assert a.real == pytest.approx(b.real, rel=1e-6, abs=1e-6)


def test_sos_decompose_even_real_multiplicities():
    p = n_of(Poly.from_roots([0.5, 0.5]))  # (x - 1/2)^4
    q = sos_decompose(p)
    assert q.degree == 2
    assert abs(q.eval(0.5)) < 1e-5


def test_sos_decompose_rejects_sign_changes():
    with pytest.raises(DecompositionError):
        sos_decompose(Poly.of(0.0, 1.0))  # odd degree
    with pytest.raises(DecompositionError):
        sos_decompose(Poly.of(-1.0))
    with pytest.raises(DecompositionError):
        sos_decompose(Poly.from_roots([0.0, 1.0]))  # simple real roots


def test_ab_decompose_even_case():
    # (x - a)(x - b) itself: nonnegative outside (a, b), one "ab" term
    a, b = -1.0, 2.0
    p = Poly.from_roots([a, b])
    terms = ab_decompose(p, a, b)
    assert all(t.weight >= 0 for t in terms)
    assert {t.kind for t in terms} <= {"plain", "ab"}
    recon = Poly()
    for t in terms:
        recon = recon + t.to_poly(a, b)
    for c1, c2 in zip(recon.coeffs, p.coeffs):
        assert c1.real == pytest.approx(c2.real, abs=1e-9)


def test_ab_decompose_odd_case_kinds():
    # (x - m) with m inside: negative left of a, positive right of b
    a, b = 0.0, 1.0
    p = Poly.from_roots([0.25])
    terms = ab_decompose(p, a, b)
    assert {t.kind for t in terms} == {"a", "b"}
    weights = {t.kind: t.weight for t in terms}
    # x - 1/4 = 3/4 (x - 0) + 1/4 (x - 1)
    assert weights["a"] == pytest.approx(0.75)
    assert weights["b"] == pytest.approx(0.25)


def test_ab_decompose_random_mixed_roots():
    rng = np.random.default_rng(7)
    a, b = 0.0, 1.0
    for _ in range(8):
        inside = [float(v) for v in rng.uniform(a, b, size=int(rng.integers(1, 3)))]
        pair = rng.normal(size=2)
        q = Poly.from_roots([complex(pair[0], abs(pair[1]) + 0.1)])
        p = n_of(q) * Poly.from_roots(inside)
        terms = ab_decompose(p, a, b)
        assert all(t.weight >= -1e-12 for t in terms)
        recon = Poly()
        for t in terms:
            recon = recon + t.to_poly(a, b)
        scale = max(1.0, p.max_abs_coeff())
        for c1, c2 in zip(recon.coeffs, p.coeffs):
            assert abs(c1 - c2) <= 1e-8 * scale
        # sign pattern on the outside
        for x in (a - 0.7, a - 2.3):
            total = sum(t.to_poly(a, b).eval(x).real for t in terms)
            assert total * p.eval(x).real >= 0.0


def test_ab_decompose_rejects_odd_outside_root():
    with pytest.raises(DecompositionError):
        ab_decompose(Poly.from_roots([5.0]), 0.0, 1.0)
