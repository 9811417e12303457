"""Divided differences: tables, the integral weight, sampling."""

import math
import sys

import mpmath
import numpy as np
import pytest

from matmono import (
    FunctionModel,
    NodeMultiset,
    Poly,
    divided_difference,
    ktone_check,
    parse,
    peano_weight,
)
from matmono.criteria import (
    CertifyConfig,
    certify,
    confluent_dd_criterion,
    dd_criterion,
    re_evaluate_witness,
)
from matmono.divdiff import (
    NarrowIntervalError,
    _needed_digits,
    check_interval,
    check_tol,
    dd_threshold,
    divided_difference_scaled,
    end_margin,
    sample_distinct_tuple,
)
from matmono.expr import EXTENDED_DIGITS
from matmono.gensets import (
    FiniteFunction,
    affine_rigidity_check,
    build_counterexample,
    extension_feasibility,
    genset_check,
    re_evaluate_genset_witness,
)
from matmono.linalg import convexity_oracle, monotonicity_oracle

EXP = FunctionModel(parse("exp(x)"), name="exp")
RECIP_NEG = FunctionModel(parse("-1/x"), domain=(0.0, math.inf), name="-1/x")


def test_multiset_construction_and_views():
    ms = NodeMultiset.from_points([2.0, 0.0, 2.0, 1.0])
    assert ms.values() == (0.0, 1.0, 2.0)
    assert ms.flatten() == (0.0, 1.0, 2.0, 2.0)
    assert ms.total == 4 and ms.order == 3
    assert ms.max_multiplicity == 2
    assert ms.min_gap() == 1.0
    assert ms.hull() == (0.0, 2.0)


def test_multiset_rejects_bad_input():
    with pytest.raises(ValueError):
        NodeMultiset.from_points([])
    with pytest.raises(ValueError):
        NodeMultiset.from_pairs([(1.0, 1), (1.0, 2)])
    with pytest.raises(ValueError):
        NodeMultiset.from_pairs([(0.0, 0)])


def test_polynomial_reproduction():
    # [x_0..x_n]_{x^n} = 1 for any nodes, and zero one order up
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5):
        nodes = np.sort(rng.uniform(-2, 2, size=n + 1))
        model = FunctionModel(parse("x^%d" % n) if n > 1 else parse("x"))
        assert divided_difference(model, nodes) == pytest.approx(1.0, abs=1e-9)
    cubic = FunctionModel(parse("x^3"))
    assert divided_difference(cubic, (0.3, 0.7, 1.1, 1.9, 2.4)) == pytest.approx(0.0, abs=1e-12)
    quad = FunctionModel(parse("x^2"))
    assert divided_difference(quad, (0.0, 1.0, 2.0)) == pytest.approx(1.0)


def test_reciprocal_closed_form():
    # [x_0..x_m]_{-1/x} = (-1)^(m+1) / prod x_i, confluent nodes included
    assert divided_difference(RECIP_NEG, (1.0, 2.0)) == pytest.approx(0.5)
    assert divided_difference(RECIP_NEG, (1.0, 2.0, 4.0)) == pytest.approx(-1.0 / 8.0)
    ms = NodeMultiset.from_pairs([(1.0, 2), (2.0, 2)])
    assert divided_difference(RECIP_NEG, ms) == pytest.approx(0.25, rel=1e-10)


def test_confluent_seeds_match_derivatives():
    a = 0.4
    ms = NodeMultiset.from_pairs([(a, 2)])
    assert divided_difference(EXP, ms) == pytest.approx(math.exp(a), rel=1e-14)
    ms3 = NodeMultiset.from_pairs([(a, 3)])
    assert divided_difference(EXP, ms3) == pytest.approx(math.exp(a) / 2.0, rel=1e-13)


def test_mean_value_bracketing():
    rng = np.random.default_rng(8)
    for _ in range(20):
        nodes = np.sort(rng.uniform(-1.0, 1.5, size=4))
        value = divided_difference(EXP, nodes)
        lo = math.exp(nodes[0]) / 6.0
        hi = math.exp(nodes[-1]) / 6.0
        assert lo - 1e-12 <= value <= hi + 1e-12


def test_weight_folding_matches_explicit_product():
    # [nodes]_{f q} via the Leibniz seeds == dd of the expanded product
    q = Poly.of(-1.0, 0.5, 1.0)  # x^2 + x/2 - 1
    nodes = (0.2, 0.9, 1.7, 2.2)
    lhs = divided_difference(EXP, nodes, weight=q)
    prod = FunctionModel(parse("exp(x) * (x^2 + x/2 - 1)"))
    rhs = divided_difference(prod, nodes)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    # confluent path
    ms = NodeMultiset.from_pairs([(0.5, 2), (1.5, 2)])
    assert divided_difference(EXP, ms, weight=q) == pytest.approx(
        divided_difference(prod, ms), rel=1e-12
    )


def _mpmath_divided_difference(nodes, dps: int = 60) -> float:
    """sum_i exp(x_i) / prod_(j != i) (x_i - x_j) over distinct nodes."""
    with mpmath.workdps(dps):
        xs = [mpmath.mpf(float(x)) for x in nodes]
        total = mpmath.mpf(0)
        for i, xi in enumerate(xs):
            total += mpmath.exp(xi) / mpmath.fprod(xi - xj for j, xj in enumerate(xs) if j != i)
        return float(total)


def test_precision_escalation_near_coincident_nodes():
    # in double these tables are off by 1.3e-7 (the pair: eps / 1e-9) and
    # 1.3e-9 (order 7) relative; the default precision runs them in mpmath
    pair = (0.3, 0.3 + 1e-9)
    assert divided_difference(EXP, pair) == pytest.approx(_mpmath_divided_difference(pair), rel=1e-13)
    equispaced = np.linspace(0.0, 1.0, 8)
    assert divided_difference(EXP, equispaced) == pytest.approx(
        _mpmath_divided_difference(equispaced), rel=1e-12
    )


def test_needed_digits_of_a_subnormal_gap_is_the_cap():
    # 1 / 1e-309 overflows a double; the digit count is capped, not an error
    nodes = NodeMultiset.from_points((1e-300, 1e-300 + 1e-309, 2e-300))
    assert 0.0 < nodes.min_gap() < sys.float_info.min
    assert _needed_digits(nodes) == 400
    # a normal gap keeps its count: order 2 times 12.04 decades, plus 30
    assert _needed_digits(NodeMultiset.from_points((1.0, 1.0 + 2.0**-40, 2.0))) == 54


def test_noise_floor_scales_with_table_magnitude():
    assert dd_threshold(1.0, "double", 0.0) == pytest.approx(64 * 2.3e-16)
    assert dd_threshold(1e6, "double", 0.0) == pytest.approx(64 * 2.3e-16 * 1e6)
    assert dd_threshold(1.0, "extended", 0.0) < dd_threshold(1.0, "double", 0.0)
    # the violation tolerance wins when it exceeds the roundoff floor
    assert dd_threshold(1.0, "double", 1e-9) == 1e-9
    assert dd_threshold(1e9, "double", 1e-9) == pytest.approx(64 * 2.3e-16 * 1e9)
    _, scale = divided_difference_scaled(EXP, (0.0, 1e-5))
    assert scale >= math.exp(0.0)  # the table maximum dominates the value


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_threshold_of_an_array_is_the_scalar_rule_entry_by_entry(precision):
    eps = 2.3e-16 if precision == "double" else 10.0 ** (1 - EXTENDED_DIGITS)
    for tol in (0.0, 1e-15, 1e-9):
        cross = tol / (64.0 * eps)  # where the roundoff floor overtakes tol
        scales = [0.0, 0.5, 1.0, math.inf, math.nan, cross, 2.0 * cross + 3.0,
                  np.nextafter(cross, 0.0), np.nextafter(cross, math.inf), 0.5 * cross]
        scalar = [dd_threshold(float(s), precision, tol) for s in scales]
        assert all(type(t) is float for t in scalar)
        array = dd_threshold(np.array(scales), precision, tol)
        assert [t.hex() for t in array.tolist()] == [t.hex() for t in scalar]
    # a NaN scale gives tol, as max(tol, nan) does, even below the floor
    assert dd_threshold(np.array([math.nan]), precision, 1e-20).tolist() == [1e-20]


def test_peano_weight_doubled_pair_closed_form():
    # nodes (x, x, y, y): w(t) = 6 (t - x)(y - t) / (y - x)^3
    x, y = 0.5, 2.0
    w = peano_weight(NodeMultiset.from_pairs([(x, 2), (y, 2)]))
    for t in np.linspace(x, y, 9):
        want = 6.0 * (t - x) * (y - t) / (y - x) ** 3
        assert w(float(t)) == pytest.approx(want, abs=1e-12)
    assert w.integral() == pytest.approx(1.0, abs=1e-12)
    assert w.support() == (x, y)
    assert w(x - 0.1) == 0.0 and w(y + 0.1) == 0.0


def test_peano_weight_reproduces_divided_differences():
    nodes = NodeMultiset.from_pairs([(0.0, 1), (0.8, 2), (1.7, 1)])
    w = peano_weight(nodes)
    assert w.integral() == pytest.approx(1.0, abs=1e-12)
    m = nodes.order
    glq, glw = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for a, b in zip(w.breakpoints, w.breakpoints[1:]):
        ts = 0.5 * (b - a) * glq + 0.5 * (a + b)
        vals = [
            EXP.eval_deriv(m, float(t)) / math.factorial(m) * w(float(t)) for t in ts
        ]
        total += 0.5 * (b - a) * float(np.dot(glw, vals))
    assert total == pytest.approx(divided_difference(EXP, nodes), rel=1e-10)


def test_peano_weight_is_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(15):
        pts = np.sort(rng.uniform(-1, 1, size=int(rng.integers(2, 5))))
        w = peano_weight(pts.tolist())
        grid = np.linspace(pts[0], pts[-1], 101)
        assert min(w(float(t)) for t in grid) >= -1e-12
    with pytest.raises(ValueError):
        peano_weight((1.0,))


def test_sample_distinct_tuple_contract():
    rng = np.random.default_rng(9)
    for idx in range(40):
        pts = sample_distinct_tuple(rng, 4, (0.5, 4.0), idx)
        assert pts.shape == (4,)
        assert np.all(np.diff(pts) > 0)
        assert pts[0] > 0.5 and pts[-1] < 4.0
    # same seed, same stream
    a = sample_distinct_tuple(np.random.default_rng(3), 3, (0.0, 1.0), 1)
    b = sample_distinct_tuple(np.random.default_rng(3), 3, (0.0, 1.0), 1)
    np.testing.assert_array_equal(a, b)


def test_placement_keeps_nodes_apart_or_raises_on_a_narrow_interval():
    """Clustered nodes far from 0 are kept apart by a few ulps: on (1e6,
    1e6 + 1e-3) every draw is strictly ascending inside the interval.  A
    span of a few ulps cannot hold four distinct nodes: spread and
    clustered draws alike raise NarrowIntervalError, a ValueError."""
    rng = np.random.default_rng(1)
    for idx in range(300):
        x = sample_distinct_tuple(rng, 7, (1e6, 1e6 + 1e-3), idx)
        assert np.all(np.diff(x) > 0) and 1e6 < x[0] and x[-1] < 1e6 + 1e-3
    a = 1.0
    b = a + 8 * math.ulp(a)
    rng = np.random.default_rng(2)
    for idx in range(30):
        with pytest.raises(NarrowIntervalError, match=r"too narrow for 4 distinct nodes"):
            sample_distinct_tuple(rng, 4, (a, b), idx)
    assert issubclass(NarrowIntervalError, ValueError)


def test_end_margin_is_a_share_of_the_span_with_an_ulp_floor():
    """The end margin is span * 1e-6 wherever that exceeds 4 ulps of the
    ends; on (1e8, 1e8 + 0.01) it would round away (1e-8 against an ulp of
    1.5e-8), so it is 4 ulps, and clustered draws there stay inside."""
    assert end_margin(0.5, 4.0) == 3.5 * 1e-6
    assert end_margin(-4.0, -0.5) == 3.5 * 1e-6
    a, b = 1e8, 1e8 + 0.01
    assert end_margin(a, b) == 4 * math.ulp(b) > (b - a) * 1e-6
    assert a < a + end_margin(a, b) and b - end_margin(a, b) < b
    assert end_margin(-b, -a) == end_margin(a, b)
    rng = np.random.default_rng(1)
    for idx in range(300):
        x = sample_distinct_tuple(rng, 4, (a, b), idx)
        assert np.all(np.diff(x) > 0) and a < x[0] and x[-1] < b


def test_halton_rows_keep_distinct_coordinates_past_nine_nodes():
    """A Halton row of count nodes uses the first count primes as bases, so
    its coordinates are distinct; rows of up to nine nodes are unchanged."""
    from matmono.divdiff import _halton_row, _primes

    assert _primes(12) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for count in (10, 12, 15):
        for index in range(0, 3000, 3):
            assert len(set(_halton_row(index, count))) == count
    assert _halton_row(42, 12)[:9] == _halton_row(42, 9)
    # ten-node cluster draws from a Halton row no longer collapse to gaps of
    # 1e-9 * width (about 300 of the 1000 Halton draws did; those left are
    # clusters an end of the interval clipped)
    rng = np.random.default_rng(3)
    collapsed = 0
    for idx in range(3000):
        x = sample_distinct_tuple(rng, 10, (0.5, 4.0), idx)
        collapsed += idx % 3 == 0 and np.diff(x).min() < 1e-9
    assert collapsed < 50


def test_ktone_check_pass_and_fail():
    convex = ktone_check(FunctionModel(parse("x^2")), 2, (-1.0, 1.0))
    assert convex.passed and convex.configs == 1000
    cubic = ktone_check(FunctionModel(parse("x^3")), 2, (-1.0, 1.0))
    assert not cubic.passed
    assert cubic.witness is not None
    nodes = [v for v, m in cubic.witness["nodes"] for _ in range(int(m))]
    assert sum(nodes) < 0  # second difference of x^3 is x_0 + x_1 + x_2
    assert cubic.witness["value"] == pytest.approx(cubic.worst_value)
    assert bool(convex) and not bool(cubic)


@pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, math.inf), (0.0, math.nan), (2.0, 1.0)])
def test_sampling_rejects_intervals_that_are_not_finite_and_ordered(interval):
    with pytest.raises(ValueError, match=r"interval \("):
        check_interval(interval)
    with pytest.raises(ValueError, match=r"interval \("):
        sample_distinct_tuple(np.random.default_rng(0), 3, interval, 0)
    with pytest.raises(ValueError, match=r"interval \("):
        certify(EXP, 1, interval, config=CertifyConfig(samples=5, oracle_trials=5))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-3, 0.0])
def test_every_entry_taking_tol_rejects_one_that_is_not_finite_and_positive(tol):
    """A NaN or infinite tol passes every margin and one <= 0 refutes exact
    zeros, so each public entry that takes tol raises before any work."""
    table = FiniteFunction.from_model(RECIP_NEG, [0.5 + 0.3 * k for k in range(8)])
    bundle = build_counterexample(2, (1, 2, 3, 4, 5, 6), (0, 7), samples=50)
    cube = FiniteFunction.from_model(FunctionModel(parse("x^3")), [0.5 + 0.4 * k for k in range(8)])
    genset_witness = genset_check(cube, 2, samples=50).levels[0].witness
    witness = dd_criterion(EXP, 2, (-1.0, 1.0), samples=20).witness
    calls = {
        "check_tol": lambda: check_tol(tol),
        "certify": lambda: certify(EXP, 2, (-1.0, 1.0), config=CertifyConfig(samples=5, oracle_trials=5, tol=tol)),
        "dd_criterion": lambda: dd_criterion(EXP, 2, (-1.0, 1.0), samples=5, tol=tol),
        "confluent_dd_criterion": lambda: confluent_dd_criterion(EXP, 2, (-1.0, 1.0), samples=5, tol=tol),
        "ktone_check": lambda: ktone_check(EXP, 2, (-1.0, 1.0), samples=5, tol=tol),
        "monotonicity_oracle": lambda: monotonicity_oracle(EXP, 2, (-1.0, 1.0), trials=2, tol=tol),
        "convexity_oracle": lambda: convexity_oracle(EXP, 2, (-1.0, 1.0), trials=2, tol=tol),
        "re_evaluate_witness": lambda: re_evaluate_witness(EXP, witness, tol=tol),
        "genset_check": lambda: genset_check(table, 2, samples=5, tol=tol),
        "re_evaluate_genset_witness": lambda: re_evaluate_genset_witness(genset_witness, tol=tol),
        "extension_feasibility": lambda: extension_feasibility(bundle, 3.5, grid=10, samples=5, tol=tol),
        "affine_rigidity_check": lambda: affine_rigidity_check(table, table.points[:3], tol=tol),
        "FiniteFunction.union": lambda: table.union(table, tol=tol),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            call()
            pytest.fail(f"{name} accepted tol={tol}")
