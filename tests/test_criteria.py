"""Criterion matrices, sampled sweeps, the certify battery, witness replay."""

import math

import numpy as np
import pytest

from matmono import (
    CertifyConfig,
    FunctionModel,
    Poly,
    catalog,
    catalog_model,
    certify,
    dd_criterion,
    divided_difference,
    dobsch_matrix,
    extended_loewner_matrix,
    hankel_convex_matrix,
    kraus_matrix,
    loewner_matrix,
    parse,
)
from matmono.criteria import (
    CONVEX_CRITERIA,
    MONOTONE_CRITERIA,
    _product_derivative_value,
    _sample_q,
    confluent_dd_criterion,
    re_evaluate_witness,
)
from matmono.divdiff import NodeMultiset, SamplerConfig
from matmono.polynomial import n_of

EXP = catalog_model("exp(x)")
SQUARE = catalog_model("x^2")
CUBE = catalog_model("x^3")
RECIP_NEG = catalog_model("-1/x")


def test_loewner_matrix_square_closed_form():
    a, b = 0.7, 2.3
    L = loewner_matrix(SQUARE, (a, b))
    np.testing.assert_allclose(L, [[2 * a, a + b], [a + b, 2 * b]], atol=1e-12)
    assert np.linalg.det(L) == pytest.approx(-((a - b) ** 2), rel=1e-10)
    with pytest.raises(ValueError):
        loewner_matrix(SQUARE, (1.0, 1.0))


def test_loewner_matrix_reciprocal_is_gram():
    pts = (0.5, 1.0, 2.5, 3.5)
    L = loewner_matrix(RECIP_NEG, pts)
    want = np.array([[1.0 / (x * y) for y in pts] for x in pts])
    np.testing.assert_allclose(L, want, rtol=1e-11)
    w = np.linalg.eigvalsh(L)
    assert w[0] >= -1e-12  # rank-one Gram matrix


def test_extended_loewner_frozen_entries():
    L = extended_loewner_matrix(RECIP_NEG, (1.0, 2.0))
    np.testing.assert_allclose(L, [[1.0, -0.5], [-0.5, 0.25]], atol=1e-11)
    assert np.linalg.eigvalsh(L)[0] >= -1e-11


def test_dobsch_matrix_frozen_entries():
    t = 1.3
    np.testing.assert_allclose(dobsch_matrix(SQUARE, t, 2), [[2 * t, 1.0], [1.0, 0.0]], atol=1e-13)
    M = dobsch_matrix(EXP, 0.2, 2)
    assert np.linalg.det(M) == pytest.approx(math.exp(0.4) * (1 / 6 - 1 / 4), rel=1e-10)
    np.testing.assert_allclose(dobsch_matrix(RECIP_NEG, 1.0, 2), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-12)


def test_hankel_convex_matrix_frozen_entries():
    t = 0.9
    np.testing.assert_allclose(hankel_convex_matrix(CUBE, t, 2), [[3 * t, 1.0], [1.0, 0.0]], atol=1e-13)
    quartic = FunctionModel(parse("x^4"), name="x^4")
    H = hankel_convex_matrix(quartic, t, 2)
    np.testing.assert_allclose(H, [[6 * t * t, 4 * t], [4 * t, 1.0]], atol=1e-12)
    assert np.linalg.det(H) == pytest.approx(-10 * t * t, rel=1e-10)
    K = hankel_convex_matrix(EXP, 0.4, 2)
    assert np.linalg.det(K) == pytest.approx(-math.exp(0.8) / 144.0, rel=1e-9)


def test_kraus_matrix_frozen_entries():
    cube = FunctionModel(parse("x^3"), name="x^3")
    K = kraus_matrix(cube, (0.0, 1.0), 0.0)
    np.testing.assert_allclose(K, [[0.0, 1.0], [1.0, 2.0]], atol=1e-12)
    # for x^3 the determinant is -(x_1 - x_2)^2 at any base
    x1, x2, b = 0.3, 1.7, 0.9
    K2 = kraus_matrix(cube, (x1, x2), b)
    assert np.linalg.det(K2) == pytest.approx(-((x1 - x2) ** 2), rel=1e-10)


def test_loewner_bridge_quadratic_form():
    """c^T L c equals the doubled-node difference against N(sum c_i p_i)."""
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        pts = np.sort(rng.uniform(-1.0, 1.5, size=n))
        c = rng.normal(size=n)
        L = loewner_matrix(EXP, pts)
        lhs = float(c @ L @ c)
        q = Poly()
        for i in range(n):
            others = [float(pts[k]) for k in range(n) if k != i]
            q = q + Poly.from_roots(others, leading=float(c[i]))
        doubled = NodeMultiset.from_pairs([(float(p), 2) for p in pts])
        rhs = divided_difference(EXP, doubled, weight=n_of(q))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_dobsch_bridge_quadratic_form():
    """c^T M(t) c equals (f N(q))^(2n-1)(t)/(2n-1)! for q in powers of (x-t)."""
    rng = np.random.default_rng(23)
    for n in (2, 3, 4):
        t = float(rng.uniform(-0.5, 0.5))
        c = rng.normal(size=n)
        M = dobsch_matrix(EXP, t, n)
        lhs = float(c @ M @ c)
        q = Poly()
        for i in range(n):
            q = q + Poly.from_roots([t] * (n - 1 - i), leading=float(c[i]))
        rhs, _ = _product_derivative_value(EXP, n_of(q), t, 2 * n - 1)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


def test_sample_q_normalization_and_cadence():
    rng = np.random.default_rng(3)
    span = 2.0
    nodes = (0.1, 0.5, 1.9)
    qs = [_sample_q(rng, 2, nodes, span, idx, bool(idx % 2)) for idx in range(32)]
    for idx, q in enumerate(qs):
        assert q.max_abs_coeff() == pytest.approx(1.0)
        assert q.degree <= 2
        if idx % 4 == 0:
            assert q.coeffs == (complex(1.0),)
    # same seed reproduces the same draw
    a = _sample_q(np.random.default_rng(5), 2, nodes, span, 1, False)
    b = _sample_q(np.random.default_rng(5), 2, nodes, span, 1, False)
    assert a.coeffs == b.coeffs


def test_dd_criterion_affine_is_exact():
    ident = catalog_model("x")
    rec = dd_criterion(ident, 2, (-2.0, 2.0), "monotone", SamplerConfig(seed=0, samples=200))
    assert rec.passed and rec.configs == 200
    assert rec.worst_value >= 0.0  # value is |lead q|^2 plus the threshold


def test_dd_criterion_catches_square():
    rec = dd_criterion(SQUARE, 2, (0.1, 10.0), "monotone", SamplerConfig(seed=0, samples=500))
    assert not rec.passed
    assert rec.witness["kind"] == "dd"
    again = re_evaluate_witness(SQUARE, rec.witness)
    assert again["confirmed"]
    assert again["value"] == pytest.approx(rec.witness["value"], rel=1e-6)


def test_dd_dismissed_note_counts_unconfirmed_rechecks(monkeypatch):
    """Only extended re-checks that did not confirm count as dismissed, not
    the double-precision values below -tol that the noise floor absorbs."""
    from matmono import criteria

    real = criteria.divided_difference_scaled
    extended = []

    def counted(f, nodes, precision="auto", *rest, **named):
        extended.append(precision == "extended")
        return real(f, nodes, precision, *rest, **named)

    monkeypatch.setattr(criteria, "divided_difference_scaled", counted)
    steep = FunctionModel(parse("10000000*x"), name="1e7 x")  # every 2nd dd is 0
    rec = dd_criterion(steep, 1, (-2.0, 2.0), "convex", SamplerConfig(seed=0, samples=300))
    assert rec.passed and sum(extended) > 0
    assert rec.note.endswith(f"; {sum(extended)} candidate(s) dismissed in extended precision")


def test_confluent_dd_criterion_modes():
    rec = confluent_dd_criterion(RECIP_NEG, 2, (0.5, 4.0), "monotone", SamplerConfig(seed=1, samples=200))
    assert rec.criterion == "dd-confluent" and rec.passed
    anchored = confluent_dd_criterion(
        SQUARE, 2, (0.1, 10.0), "convex", SamplerConfig(seed=1, samples=200), base="anchored"
    )
    assert anchored.criterion == "dd-confluent-anchored" and anchored.passed
    free = confluent_dd_criterion(
        CUBE, 2, (0.5, 4.0), "convex", SamplerConfig(seed=1, samples=500), base="free"
    )
    assert free.criterion == "dd-confluent-free" and not free.passed
    assert re_evaluate_witness(CUBE, free.witness)["confirmed"]


def test_certify_operator_monotone_passes_every_criterion():
    rep = certify(RECIP_NEG, 2, (0.5, 4.0), "monotone", CertifyConfig(samples=150, oracle_trials=60))
    assert rep.verdict == "pass" and rep.consistent
    assert [r.criterion for r in rep.records] == list(MONOTONE_CRITERIA) + ["matrix-oracle"]
    assert all(r.passed for r in rep.records)
    assert "not a proof" in rep.record("matrix-oracle").note


def test_certify_exponential_fails_unanimously():
    rep = certify(EXP, 2, (-1.0, 1.0), "monotone", CertifyConfig(samples=1000))
    assert rep.verdict == "fail"
    assert rep.consistent  # unanimous failure is agreement, not a conflict
    # first-failure indices: they pin each criterion's draw order
    assert {r.criterion: r.configs for r in rep.records} == {
        "dd-real-q": 2,
        "dd-complex-q": 52,
        "dd-confluent": 39,
        "loewner-psd": 1,
        "extended-loewner-psd": 1,
        "product-derivative": 26,
        "dobsch-psd": 1,
        "matrix-oracle": 1,
    }
    for rec in rep.records:
        assert not rec.passed
        assert rec.witness is not None
        replay = re_evaluate_witness(EXP, rec.witness)
        assert replay["confirmed"]


def test_certify_convex_battery():
    rep = certify(SQUARE, 2, (0.1, 10.0), "convex", CertifyConfig(samples=150, oracle_trials=60))
    assert rep.verdict == "pass" and rep.consistent
    assert [r.criterion for r in rep.records] == list(CONVEX_CRITERIA) + ["matrix-oracle"]

    bad = certify(CUBE, 2, (0.5, 4.0), "convex", CertifyConfig(samples=1000))
    assert bad.verdict == "fail" and bad.consistent
    hankel = bad.record("hankel-psd")
    assert not hankel.passed and hankel.witness["criterion"] == "hankel-psd"
    assert {r.criterion: r.configs for r in bad.records} == {
        "dd-real-q": 6,
        "dd-complex-q": 111,
        "dd-confluent-anchored": 6,
        "dd-confluent-free": 55,
        "kraus-anchored-psd": 1,
        "kraus-free-psd": 1,
        "product-derivative": 18,
        "hankel-psd": 1,
        "matrix-oracle": 1,
    }
    for rec in bad.records:
        assert not rec.passed
        assert re_evaluate_witness(CUBE, rec.witness)["confirmed"], rec.criterion


def test_certify_real_power_near_convex_boundary_passes():
    # x^1.95 is n-convex for every n; with double-rounded derivative
    # coefficients the anchored confluent table reported a false refutation
    f = catalog(power_exponents=(1.95,))[-1].model
    rep = certify(f, 2, (0.1, 10.0), "convex", CertifyConfig(seed=2))
    assert rep.verdict == "pass" and rep.consistent


def test_certify_order_four_is_usable():
    rep = certify(
        catalog_model("sqrt(x)"), 4, (0.5, 4.0), "monotone",
        CertifyConfig(samples=200, oracle_trials=100),
    )
    assert rep.verdict == "pass" and rep.consistent


def test_certify_no_oracle_and_determinism():
    cfg = CertifyConfig(samples=100, include_oracle=False, seed=11)
    rep1 = certify(RECIP_NEG, 2, (0.5, 4.0), "monotone", cfg)
    assert all(r.criterion != "matrix-oracle" for r in rep1.records)
    rep2 = certify(RECIP_NEG, 2, (0.5, 4.0), "monotone", cfg)
    assert [r.worst_value for r in rep1.records] == [r.worst_value for r in rep2.records]


def test_certify_report_schema():
    rep = certify(EXP, 2, (-1.0, 1.0), "monotone", CertifyConfig(samples=300, oracle_trials=100))
    data = rep.to_jsonable()
    assert set(data) == {
        "function", "order", "mode", "interval", "seed", "tol",
        "criteria", "agreement", "verdict",
    }
    assert data["agreement"] == {"consistent": True, "conflicts": []}
    for entry in data["criteria"]:
        assert {"id", "verdict", "configs", "worst_value"} <= set(entry)
        if entry["verdict"] == "fail":
            assert "witness" in entry
    assert data["verdict"] == "fail"


def test_certify_input_validation():
    with pytest.raises(ValueError):
        certify(EXP, 2, (-1.0, 1.0), "sideways")
    with pytest.raises(ValueError):
        certify(EXP, 0, (-1.0, 1.0))
    with pytest.raises(ValueError):
        certify(EXP, 2, (1.0, 1.0))


def test_re_evaluate_witness_matrix_kinds():
    from matmono.linalg import matrix_to_jsonable

    wit = {
        "kind": "matrix-pair",
        "matrix_a": matrix_to_jsonable(np.diag([0.1, 0.2])),
        "matrix_b": matrix_to_jsonable(np.diag([0.3, 0.4])),
    }
    out = re_evaluate_witness(EXP, wit)
    assert not out["confirmed"]  # diagonal pairs commute, no violation
    with pytest.raises(ValueError):
        re_evaluate_witness(EXP, {"kind": "hearsay"})


def test_product_derivative_value_matches_leibniz():
    # (exp * w)^(3)(t)/3! against the expanded symbolic product
    w = Poly.of(1.0, -2.0, 0.5)
    t = 0.6
    got, scale = _product_derivative_value(EXP, w, t, 3)
    prod = FunctionModel(parse("exp(x) * (1 - 2*x + x^2/2)"))
    want = prod.eval_deriv(3, t) / 6.0
    assert got == pytest.approx(want, rel=1e-12)
    assert scale > 0
