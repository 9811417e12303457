"""Expression layer: parser, printer, derivatives, models, catalog."""

import math

import mpmath
import numpy as np
import pytest

from matmono import (
    DomainError,
    FunctionModel,
    GroundTruth,
    ParseError,
    catalog,
    catalog_model,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_text,
)
from matmono.expr import Exp, Neg, Pow, PowReal, Var, X, jet


def test_parse_renders_back_to_equivalent_text():
    cases = {
        "-1/x": "-1 / x",
        "x^2": "x^2",
        "x^-1": "x^(-1)",
        "exp(2*x)": "exp(2 * x)",
        "log(x)/x": "log(x) / x",
        "(1+x)^3": "(1 + x)^3",
        "-(x^2)": "-x^2",
    }
    for src, rendered in cases.items():
        assert to_text(parse(src)) == rendered


def test_to_text_round_trip_is_stable():
    for src in ["-1/x", "exp(2*x)", "x^-1", "sqrt(x)*x", "1/(1-x)", "x*x*x"]:
        once = to_text(parse(src))
        assert to_text(parse(once)) == once


def test_parse_error_carries_offset():
    cases = {
        "x +": 3,
        "x^x": 2,
        "foo(x)": 0,
        "x^1.5": 2,  # real exponents are a model-level construct, not grammar
        "(x": 2,
        "x x": 2,
    }
    for bad, offset in cases.items():
        with pytest.raises(ParseError) as info:
            parse(bad)
        assert info.value.offset == offset


def test_precedence_and_unary_minus():
    e = parse("-x^2 + 3*x")
    assert evaluate(e, 2.0) == pytest.approx(2.0)
    assert evaluate(parse("2^3"), 5.0) == pytest.approx(8.0)
    assert evaluate(parse("-2^2"), 0.0) == pytest.approx(-4.0)


def test_differentiate_known_forms():
    assert to_text(differentiate(parse("exp(2*x)"))) == "2 * exp(2 * x)"
    assert to_text(differentiate(parse("x^3"), 2)) == "6 * x"
    assert to_text(simplify(parse("(x*1)+0"))) == "x"
    # d/dx sqrt(x) = 1/(2 sqrt x), checked numerically at a few points
    d = differentiate(parse("sqrt(x)"))
    for x in (0.3, 1.0, 7.5):
        assert evaluate(d, x) == pytest.approx(0.5 / math.sqrt(x), rel=1e-14)


def test_differentiate_powreal_chain():
    e = PowReal(X, 1.5)
    d2 = differentiate(e, 2)
    for x in (0.5, 2.0):
        assert evaluate(d2, x) == pytest.approx(1.5 * 0.5 * x**-0.5, rel=1e-13)


def test_evaluate_precisions_agree():
    e = parse("exp(x) * log(x)")
    xd = evaluate(e, 1.7)
    xe = evaluate(e, 1.7, "extended")
    assert isinstance(xe, mpmath.mpf)
    assert float(xe) == pytest.approx(xd, rel=1e-15)


def test_evaluate_rejects_outside_definition():
    with pytest.raises((DomainError, ValueError)):
        evaluate(parse("log(x)"), -2.0)
    with pytest.raises((DomainError, ValueError)):
        evaluate(parse("1/x"), 0.0)


def test_function_model_domain_gate():
    m = FunctionModel(parse("log(x)"), domain=(0.0, math.inf))
    with pytest.raises(DomainError):
        m.eval(-1.0)
    with pytest.raises(DomainError):
        m.eval(0.0)  # boundary is outside the open domain
    assert m.eval(1.0) == pytest.approx(0.0)


def test_function_model_array_evaluation():
    m = FunctionModel(parse("exp(x)"))
    xs = np.linspace(-1.0, 1.0, 7)
    np.testing.assert_allclose(m.eval(xs), np.exp(xs), rtol=1e-15)
    with pytest.raises(DomainError):
        FunctionModel(parse("log(x)"), domain=(0.0, math.inf)).eval(np.array([-1.0, 2.0]))


def test_function_model_caches_symbolic_derivatives():
    m = FunctionModel(parse("log(x)"), domain=(0.0, math.inf))
    assert to_text(m.deriv(1)) == "1 / x"
    assert to_text(m.deriv(2)) == "-1 / x^2"
    assert len(m.deriv_cache) >= 3
    # high order against the closed form (-1)^(k-1) (k-1)! / x^k
    for k in (3, 5, 8):
        want = (-1.0) ** (k - 1) * math.factorial(k - 1) / 2.0**k
        assert m.eval_deriv(k, 2.0) == pytest.approx(want, rel=1e-12)


def test_eval_deriv_extended_matches_double():
    m = FunctionModel(Neg(Pow(X, -1)), domain=(0.0, math.inf))
    for k in range(5):
        d = m.eval_deriv(k, 0.75)
        e = m.eval_deriv(k, 0.75, "extended")
        assert float(e) == pytest.approx(d, rel=1e-13)


def test_ground_truth_order_predicates():
    t = GroundTruth(1.0, math.inf, "", "")
    assert t.is_monotone(1) and not t.is_monotone(2)
    assert t.is_convex(2) and t.is_convex(50)
    z = GroundTruth(0.0, 0.0, "", "")
    assert not z.is_monotone(1) and not z.is_convex(1)


def test_catalog_keys_and_intervals():
    entries = {e.key: e for e in catalog()}
    assert sorted(entries) == sorted(
        ["x", "x^2", "x^3", "-1/x", "sqrt(x)", "log(x)", "exp(x)", "x^0.25", "x^0.75", "x^1.5"]
    )
    for e in entries.values():
        lo, hi = e.interval
        assert lo < hi
        assert e.model.contains(0.5 * (lo + hi))
    model, truth = entries["-1/x"]
    assert truth.max_monotone == math.inf
    assert truth.max_convex == 0.0
    assert model.eval(2.0) == pytest.approx(-0.5)


def test_catalog_power_boundaries():
    by_key = {e.key: e.truth for e in catalog(power_exponents=(0.5, 1.0, 1.1, 3.0))}
    assert by_key["x^0.5"].max_monotone == math.inf
    assert by_key["x^1.0"].max_monotone == math.inf
    assert by_key["x^1.1"].max_monotone == 1.0
    assert by_key["x^3.0"].max_convex == 1.0
    assert by_key["x^1.1"].max_convex == math.inf


def test_catalog_model_lookup():
    m = catalog_model("sqrt(x)")
    assert m.eval(4.0) == pytest.approx(2.0)
    with pytest.raises(KeyError):
        catalog_model("sinh(x)")


def test_expression_operator_sugar():
    e = X * X - X
    assert evaluate(e, 3.0) == pytest.approx(6.0)
    assert evaluate(-X, 2.0) == pytest.approx(-2.0)
    assert evaluate(Exp(X) + X, 0.0) == pytest.approx(1.0)
    assert isinstance(X, Var)


def test_extended_derivatives_of_real_power_match_mpmath():
    # The falling factorial of x^1.95 used to be folded into one double
    # constant (-0.09262500000000007 in the third derivative); a confluent
    # table at a node gap of 1e-9 amplified that error into a
    # dd-confluent-anchored reading of -1.85 where the true value is
    # +1.165.  Jet coefficients are formed at working precision.
    f = catalog(power_exponents=(1.95,))[-1].model
    p = mpmath.mpf(1.95)  # the double exponent the model holds
    for x in (0.5, 1.3, 2.0):
        for k in range(11):
            got = f.eval_deriv(k, x, "extended")
            with mpmath.workdps(100):
                want = mpmath.diff(lambda y: y**p, mpmath.mpf(x), k)
                assert abs((got - want) / want) < 1e-40, (x, k)


# The composed functions of the composite-n3 benchmark workload, with
# their mpmath forms for the extended-precision reference.
COMPOSITES = {
    "sqrt(log(1+x))": lambda y: mpmath.sqrt(mpmath.log(1 + y)),
    "log(1+sqrt(x))": lambda y: mpmath.log(1 + mpmath.sqrt(y)),
    "x^2": lambda y: y**2,
    "x*log(x)": lambda y: y * mpmath.log(y),
}
CATALOG_MPMATH = {
    "x": lambda y: y,
    "x^2": lambda y: y**2,
    "x^3": lambda y: y**3,
    "-1/x": lambda y: -1 / y,
    "sqrt(x)": mpmath.sqrt,
    "log(x)": mpmath.log,
    "exp(x)": mpmath.exp,
    "x^0.25": lambda y: y ** mpmath.mpf(0.25),
    "x^0.75": lambda y: y ** mpmath.mpf(0.75),
    "x^1.5": lambda y: y ** mpmath.mpf(1.5),
}


def _jet_cases():
    """(label, expr, mpmath form, three points inside the test interval)."""
    for e in catalog():
        lo, hi = e.interval
        pts = [lo + (hi - lo) * s for s in (0.1, 0.5, 0.9)]
        yield e.key, e.model.expr, CATALOG_MPMATH[e.key], pts
    for text, form in COMPOSITES.items():
        yield text, parse(text), form, [0.5, 1.7, 4.0]


def test_double_jets_match_symbolic_derivatives():
    for label, e, _, pts in _jet_cases():
        for x in pts:
            got = jet(e, x, 7)
            for k in range(7):
                want = evaluate(differentiate(e, k), x) / math.factorial(k)
                assert got[k] == pytest.approx(want, rel=1e-13, abs=0.0), (label, x, k)


def test_extended_jets_match_mpmath_to_order_ten():
    for label, e, form, pts in _jet_cases():
        x = pts[1]
        got = jet(e, x, 11, "extended", digits=60)
        with mpmath.workdps(60):
            for k in range(11):
                want = mpmath.diff(form, mpmath.mpf(x), k) / math.factorial(k)
                assert abs(got[k] - want) <= 1e-40 * max(1, abs(want)), (label, k)


def test_integer_power_jets_are_exact_at_zero():
    # no step divides by the base, so the zero base gives exact coefficients
    for precision in ("double", "extended"):
        assert jet(parse("x^3"), 0.0, 6, precision) == [0, 0, 0, 1, 0, 0]
        assert jet(parse("x+x^3"), 0.0, 6, precision) == [0, 1, 0, 1, 0, 0]
    assert FunctionModel(parse("x+x^3")).taylor(0.0, 4) == [0.0, 1.0, 0.0, 1.0]


def test_jets_reject_points_outside_the_domain():
    for precision in ("double", "extended"):
        for text, x in (("log(x)", 0.0), ("log(x)", -1.0), ("1/x", 0.0), ("sqrt(x)", -1.0)):
            with pytest.raises(DomainError):
                jet(parse(text), x, 3, precision)
    # the value of sqrt at 0 exists, its derivatives do not
    assert jet(parse("sqrt(x)"), 0.0, 1) == [0.0]
    with pytest.raises(DomainError):
        jet(parse("sqrt(x)"), 0.0, 2)
    with pytest.raises(DomainError):
        jet(parse("log(x)"), np.array([1.0, -1.0]), 3)
    with pytest.raises(DomainError):
        FunctionModel(parse("log(x)"), domain=(0.0, math.inf)).taylor(np.array([2.0, 0.0]), 3)
