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
    ktone_check,
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
from matmono.divdiff import NodeMultiset
from matmono.linalg import matrix_function, matrix_to_jsonable, oracle_defect
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


# (real, imag) coefficient hex of _sample_q(rng, 2, nodes, 2.5, idx, idx % 3 == 0)
# for idx < 16 from default_rng(11), as drawn with rng.choice and Poly arithmetic
SAMPLE_Q_FROZEN = [
    (["0x1.0000000000000p+0"], []),
    (["0x1.9bffaea57e277p-6", "0x1.0000000000000p+0", "0x1.cd2835c4ce523p-1"], []),
    (["0x1.999999999999ap-3", "-0x1.0000000000000p+0", "0x1.999999999999ap-1"], []),
    (["-0x1.5bce9fa0e2ccep-1"], ["0x1.77bb4780b05fbp-1"]),
    (["0x1.0000000000000p+0"], []),
    (["-0x1.f13ce23fa8231p-6", "0x1.9e028ce9b8c81p-2", "-0x1.fffffffffffffp-1"], []),
    (["0x1.522ac3d93ac62p-4", "-0x1.fff1dc3fdb5ebp-1", "0x1.660fe850b55e7p-1"],
     ["0x1.aa59bb996a43cp-4", "-0x1.e14d4ac35bc0dp-7", "0x0.0p+0"]),
    (["0x1.0000000000000p+0", "-0x1.f70fcb709c2fbp-3"], []),
    (["0x1.0000000000000p+0"], []),
    (["-0x1.9b2883e7832ccp-4", "0x1.cd50d17d14499p-2", "-0x1.24c4b74127c2fp-1"],
     ["-0x1.fd69f8dfd6823p-1", "0x1.09bb1e9239c0dp-2", "-0x1.c322858a02143p-2"]),
    (["0x1.b13b13b13b13cp-2", "-0x1.0000000000000p+0", "0x1.3b13b13b13b14p-2"], []),
    (["-0x1.914a2bc309e84p-2", "-0x1.0000000000000p+0"], []),
    (["0x1.0000000000000p+0"], []),
    (["-0x1.0000000000000p+0", "0x1.923416c519e5cp-6", "0x1.33ceba2f1f5bfp-1"], []),
    (["0x1.0eb68534ead5ap-1", "-0x1.0000000000000p+0", "0x1.e1404ce5b5e46p-2"], []),
    (["-0x1.ee0b90a313168p-2"], ["0x1.c077e455786ffp-1"]),
]


def test_sample_q_draws_frozen():
    """Pins the stream of the q drawer: every cadence kind, real and complex
    roots, and the generator state the draws leave behind."""
    rng = np.random.default_rng(11)
    nodes = (0.25, 0.5, 1.0, 1.5, 2.75)
    got = []
    for idx in range(16):
        q = _sample_q(rng, 2, nodes, 2.5, idx, idx % 3 == 0)
        imag = [c.imag.hex() for c in q.coeffs] if not q.is_real() else []
        got.append(([c.real.hex() for c in q.coeffs], imag))
    assert got == SAMPLE_Q_FROZEN
    state = rng.bit_generator.state
    assert state["state"]["state"] == 0x38801A8E6FF2D3AD66EDAC6F34E9B8B5
    assert state["has_uint32"] == 0


def test_dd_criterion_affine_is_exact():
    ident = catalog_model("x")
    rec = dd_criterion(ident, 2, (-2.0, 2.0), "monotone", samples=200, seed=0)
    assert rec.passed and rec.configs == 200
    assert rec.worst_value >= 0.0  # value is |lead q|^2 plus the threshold


def test_dd_criterion_catches_square():
    rec = dd_criterion(SQUARE, 2, (0.1, 10.0), "monotone", samples=500, seed=0)
    assert not rec.passed
    assert rec.witness["kind"] == "dd"
    again = re_evaluate_witness(SQUARE, rec.witness)
    assert again["confirmed"]
    assert again["value"] == pytest.approx(rec.witness["value"], rel=1e-6)


def test_dd_dismissed_note_counts_unconfirmed_rechecks(monkeypatch):
    """Only rows whose double-precision margin was negative and that the
    extended re-check did not confirm count as dismissed, not the rows
    re-checked only because their error bound left the sign open."""
    from matmono import criteria

    real = criteria._EVALUATORS["dd"]
    double_margin = {}
    rechecked = []  # (double margin, extended margin) of each re-checked row

    def counted(f, configs, precision, tol):
        rows = real(f, configs, precision, tol)
        for config, (value, threshold, _, _) in zip(configs, rows):
            if precision == "extended":
                rechecked.append((double_margin[id(config)], value + threshold))
            else:
                double_margin[id(config)] = value + threshold
        return rows

    monkeypatch.setitem(criteria._EVALUATORS, "dd", counted)
    steep = FunctionModel(parse("10000000*x"), name="1e7 x")  # every 2nd dd is 0
    rec = dd_criterion(steep, 1, (-2.0, 2.0), "convex", samples=300, seed=0)
    dismissed = sum(1 for before, after in rechecked if before < 0.0 <= after)
    assert rec.passed and 0 < dismissed < len(rechecked)
    assert rec.note.endswith(f"; {dismissed} candidate(s) dismissed in extended precision")


def test_confluent_dd_criterion_modes():
    rec = confluent_dd_criterion(RECIP_NEG, 2, (0.5, 4.0), "monotone", samples=200, seed=1)
    assert rec.criterion == "dd-confluent" and rec.passed
    anchored = confluent_dd_criterion(
        SQUARE, 2, (0.1, 10.0), "convex", samples=200, seed=1, base="anchored"
    )
    assert anchored.criterion == "dd-confluent-anchored" and anchored.passed
    free = confluent_dd_criterion(
        CUBE, 2, (0.5, 4.0), "convex", samples=500, seed=1, base="free"
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
    # a sweep over zero configurations would pass vacuously
    for cfg in (CertifyConfig(samples=0), CertifyConfig(grid=0), CertifyConfig(oracle_trials=0)):
        with pytest.raises(ValueError, match=">= 1"):
            certify(EXP, 2, (-1.0, 1.0), config=cfg)
    # the trial count of an oracle that does not run is not used
    cfg = CertifyConfig(samples=20, grid=9, oracle_trials=0, include_oracle=False)
    assert certify(catalog_model("-1/x"), 1, (0.5, 4.0), config=cfg).verdict == "pass"


def test_re_evaluate_witness_matrix_kinds():
    wit = {
        "kind": "matrix-pair",
        "matrix_a": matrix_to_jsonable(np.diag([0.1, 0.2])),
        "matrix_b": matrix_to_jsonable(np.diag([0.3, 0.4])),
    }
    out = re_evaluate_witness(EXP, wit)
    assert not out["confirmed"]  # diagonal pairs commute, no violation
    with pytest.raises(ValueError):
        re_evaluate_witness(EXP, {"kind": "hearsay"})


def test_jensen_replay_threshold_is_the_search_threshold():
    # f(M) = sqrt(2.005) I outweighs every entry of f(A) and f(B) (at most
    # 1.05), so the threshold must scale with f(M) as the search's does
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    A = H @ np.diag([0.01, 4.0]) @ H.T
    B = 4.01 * np.eye(2) - A
    root = catalog_model("sqrt(x)")
    wit = {"kind": "jensen", "matrix_a": matrix_to_jsonable(A),
           "matrix_b": matrix_to_jsonable(B), "weight": 0.5}
    out = re_evaluate_witness(root, wit)
    FA, FB, FM = (matrix_function(root, X) for X in (A, B, 0.5 * A + 0.5 * B))
    assert out["threshold"] == 1e-9 * oracle_defect(FA, FB, FM, 0.5)[1]
    assert out["threshold"] == pytest.approx(1e-9 * math.sqrt(2.005), rel=1e-12)
    # sqrt is operator concave: the midpoint defect is 1.05 - sqrt(2.005)
    assert out["value"] == pytest.approx(1.05 - math.sqrt(2.005), rel=1e-12)
    assert out["confirmed"]


def test_product_derivative_value_matches_leibniz():
    # (exp * w)^(3)(t)/3! against the expanded symbolic product
    w = Poly.of(1.0, -2.0, 0.5)
    t = 0.6
    got, scale = _product_derivative_value(EXP, w, t, 3)
    prod = FunctionModel(parse("exp(x) * (1 - 2*x + x^2/2)"))
    want = prod.eval_deriv(3, t) / 6.0
    assert got == pytest.approx(want, rel=1e-12)
    assert scale > 0


BOUND_FUNCTIONS = [(e.model, e.interval) for e in catalog()] + [
    (FunctionModel(parse(text), (0.0, math.inf), name=text), interval)
    for text, interval in (
        ("sqrt(log(1+x))", (0.5, 4.0)),
        ("log(1+sqrt(x))", (0.5, 4.0)),
        ("x*log(x)", (0.1, 10.0)),
    )
] + [(FunctionModel(parse("x+x^3"), name="x+x^3"), (-0.5, 0.5))]


def test_running_bound_covers_double_error():
    """|double - extended| <= bound for every dd-sweep shape, n = 1-3, over
    the sweep's own draws: clustered tuples and q with roots at the nodes
    (cadence slot 2) included."""
    from matmono.criteria import _DD_SHAPES, _draw_multiset
    from matmono.divdiff import divided_differences

    eps = np.finfo(float).eps
    rows, violations = 0, []
    for f, interval in BOUND_FUNCTIONS:
        span = interval[1] - interval[0]
        for shape in sorted(set(_DD_SHAPES.values())):
            for n in (1, 2, 3):
                rng = np.random.default_rng(n)
                draws = []
                for idx in range(16):
                    ms = _draw_multiset(rng, shape, n, interval, idx)
                    q = _sample_q(rng, n - 1, ms.values(), span, idx, bool(idx % 2))
                    draws.append((ms, n_of(q)))
                values, _, bounds = divided_differences(
                    f, [ms.flatten() for ms, _ in draws], [w for _, w in draws]
                )
                for (ms, w), value, bound in zip(draws, values, bounds):
                    exact = divided_difference(f, ms, "extended", w)
                    rows += 1
                    if abs(value - exact) > bound + eps * abs(exact):
                        violations.append((f.name, shape, n, abs(value - exact) / bound))
    assert rows == len(BOUND_FUNCTIONS) * 5 * 3 * 16
    assert not violations, f"{len(violations)} of {rows} rows: {violations[:5]}"


def test_sweep_records_do_not_depend_on_batch_size(monkeypatch):
    """The batches only group evaluation: draws, escalation and the first
    confirmed row are those of a one-row-at-a-time sweep."""
    from matmono import divdiff

    def records():
        cfg = CertifyConfig(samples=300, include_oracle=False, seed=5)
        reports = (
            certify(RECIP_NEG, 2, (0.5, 4.0), "monotone", cfg),  # passes
            certify(CUBE, 2, (0.5, 4.0), "convex", cfg),  # fails
        )
        return [(r.criterion, r.configs, r.worst_value, r.witness, r.note)
                for rep in reports for r in rep.records]

    batched = records()
    monkeypatch.setattr(divdiff, "SWEEP_BATCH", 1)
    assert records() == batched


def test_dd_criteria_reject_unknown_mode_and_base():
    with pytest.raises(ValueError, match="base"):
        confluent_dd_criterion(SQUARE, 2, (0.1, 10.0), "convex", samples=10, base="anchord")
    with pytest.raises(ValueError, match="mode"):
        confluent_dd_criterion(SQUARE, 2, (0.1, 10.0), "convx", samples=10)
    with pytest.raises(ValueError, match="mode"):
        dd_criterion(SQUARE, 2, (0.1, 10.0), "convx", samples=10)


def test_ktone_witness_replays_bit_for_bit():
    cube = FunctionModel(parse("x^3"))
    rec = ktone_check(cube, 2, (-1.0, 1.0))
    assert not rec.passed
    assert rec.witness["kind"] == "dd" and rec.witness["criterion"] == "k-tone"
    assert rec.worst_value == rec.witness["value"] + rec.witness["threshold"]
    replay = re_evaluate_witness(cube, rec.witness)
    assert replay["confirmed"]
    assert replay["value"] == rec.witness["value"]


# (passed, configs, witness value) of ktone_check at k = 1..4 and seeds 0,
# 1 with 300 samples, frozen so that a change in draw order, settle rule
# or verdict shows here.
KTONE_FROZEN = {
    "x^2": [
        (True, 300, "0x1.09d56530e9b2cp-2"),
        (True, 300, "0x1.073a00c677e44p-1"),
        (True, 300, "0x1.fffffd84f3b62p-1"),
        (True, 300, "0x1.ffffffed74ea7p-1"),
        (True, 300, "-0x1.de542bdfae109p-40"),
        (True, 300, "-0x1.7218d0ba8366ep-42"),
        (True, 300, "-0x1.42d88cd11db8fp-42"),
        (True, 300, "-0x1.0989ddaa7d7bdp-41"),
    ],
    "x^3": [
        (True, 300, "0x1.905adc7148657p-1"),
        (True, 300, "0x1.db99c8be4d456p-1"),
        (True, 300, "0x1.a487b3d5be62ap+0"),
        (True, 300, "0x1.a9be22697833dp+0"),
        (True, 300, "0x1.fffa3004a75c0p-1"),
        (True, 300, "0x1.ff268e9aaaa1cp-1"),
        (True, 300, "-0x1.3350e785406e0p-41"),
        (True, 300, "-0x1.84d6967d97c6ep-40"),
    ],
    "exp(x)": [
        (True, 300, "0x1.7afbc1647f92cp-2"),
        (True, 300, "0x1.84eafc1dbbd20p-2"),
        (True, 300, "0x1.8316844c45aeap-3"),
        (True, 300, "0x1.84a2d62a302d8p-3"),
        (True, 300, "0x1.f647710481290p-5"),
        (True, 300, "0x1.032fda0df65ccp-4"),
        (True, 300, "0x1.00a143552e38dp-6"),
        (True, 300, "0x1.02e3a778065f5p-6"),
    ],
    "-1/x": [
        (True, 300, "0x1.0fab44760d38cp-4"),
        (True, 300, "0x1.059d4b10757c8p-4"),
        (False, 1, "-0x1.c60f60d589b83p-3"),
        (False, 1, "-0x1.c60f60d589b83p-3"),
        (True, 300, "0x1.07de06756052cp-8"),
        (True, 300, "0x1.109d4f2f46296p-8"),
        (False, 1, "-0x1.1230726d1810cp-2"),
        (False, 1, "-0x1.1230726d1810cp-2"),
    ],
    "sqrt(x)": [
        (True, 300, "0x1.03d2078d125d2p-2"),
        (True, 300, "0x1.01636fb9f5f13p-2"),
        (False, 1, "-0x1.d947fdac1754fp-5"),
        (False, 1, "-0x1.d947fdac1754fp-5"),
        (True, 300, "0x1.04df4ed6864a5p-9"),
        (True, 300, "0x1.0a0983b1cb54ep-9"),
        (False, 1, "-0x1.e10452e7ac53bp-7"),
        (False, 1, "-0x1.e10452e7ac53bp-7"),
    ],
}


@pytest.mark.parametrize("key", sorted(KTONE_FROZEN))
def test_ktone_check_frozen_results(key):
    entry = next(e for e in catalog() if e.key == key)
    got = []
    for k in (1, 2, 3, 4):
        for seed in (0, 1):
            rec = ktone_check(entry.model, k, entry.interval, samples=300, seed=seed)
            got.append((rec.passed, rec.configs, rec.witness["value"].hex()))
    assert got == KTONE_FROZEN[key]
