"""Criterion matrices, sampled sweeps, the certify battery, witness replay."""

import functools
import hashlib
import math

import mpmath
import numpy as np
import pytest

from matmono import (
    CertifyConfig,
    DomainError,
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
    _run_psd_point_sweep,
    _sample_q,
    confluent_dd_criterion,
    re_evaluate_witness,
)
from matmono.divdiff import LONG_DOUBLE_WIDER, NodeMultiset, dd_threshold, sample_distinct_tuple
from matmono.linalg import matrix_function, matrix_to_jsonable, oracle_defect
from matmono.polynomial import ONE, n_coeffs, n_of

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


@pytest.mark.parametrize("build, args", [
    (divided_difference, ((0.5, 1.0, 2.5),)),
    (loewner_matrix, ((0.5, 1.0, 2.5),)),
    (extended_loewner_matrix, ((0.5, 1.0, 2.5),)),
    (kraus_matrix, ((0.5, 1.0, 2.5), 1.5)),
    (dobsch_matrix, (1.5, 3)),
    (hankel_convex_matrix, (1.5, 3)),
], ids=["divided_difference", "loewner", "extended-loewner", "kraus", "dobsch", "hankel"])
def test_precision_is_double_or_extended(build, args):
    """A divided difference or criterion matrix is computed in mpmath
    ("extended", the default, bit for bit); "double" and "auto" are no
    modes of these builders, whose double tables are the sweeps' batches."""
    f = FunctionModel(parse("x*log(x)"), (0.0, math.inf), name="x*log(x)")
    default = np.asarray(build(f, *args))
    assert default.tobytes() == np.asarray(build(f, *args, "extended")).tobytes()
    for mode in ("double", "auto"):
        with pytest.raises(ValueError, match=f"unsupported precision mode '{mode}'"):
            build(f, *args, mode)


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


@pytest.mark.parametrize("text, t", [
    ("sqrt(x)+log(x)", 1.37), ("-1/x", 0.8), ("x*log(x)", 2.5), ("x^3", 0.7),
])
def test_dobsch_and_hankel_are_the_extended_loewner_layout_at_one_point(text, t):
    """The Dobsch matrix is the extended Loewner matrix over n copies of
    t, and the Hankel matrix is that layout with a base t appended: the
    batched double tables (_dd_triangles) give both bit for bit, as the
    scalar double jets filled them."""
    from test_bit_identity import frozen_dobsch_matrix, frozen_hankel_convex_matrix

    from matmono.criteria import _dd_triangles, _layout, _symmetric

    f = FunctionModel(parse(text), (0.0, math.inf), name=text)
    for n in (2, 3, 4):
        layout = _layout("extended-loewner-psd", n)
        dobsch = _symmetric(_dd_triangles(f, np.array([[t] * n]), layout)[0])[0]
        based = tuple(pos + (n,) for pos in layout)
        hankel = _symmetric(_dd_triangles(f, np.array([[t] * (n + 1)]), based)[0])[0]
        assert dobsch.tobytes() == frozen_dobsch_matrix(f, t, n).tobytes()
        assert hankel.tobytes() == frozen_hankel_convex_matrix(f, t, n).tobytes()


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


# (sha256 prefix of the coefficient hex, next rng.random() hex) after
# _sample_q(rng, max_degree, nodes, 2.5, idx, complex_coeffs) for idx < 64
# from default_rng(17), as drawn with one generator call per root and per
# real or imaginary part
SAMPLE_Q_STREAM_FROZEN = {
    (1, False): ("af754fd520120f8e", "0x1.52d5491b63fc0p-7"),
    (1, True): ("7234bb1045f388c5", "0x1.054fc240a8690p-4"),
    (3, False): ("04e3f4d7c5b22b7d", "0x1.3f5242ee70587p-1"),
    (3, True): ("54b8871d95be3e97", "0x1.7d080ee3494ecp-1"),
}


@pytest.mark.parametrize("max_degree, complex_coeffs", sorted(SAMPLE_Q_STREAM_FROZEN))
def test_sample_q_stream_frozen(max_degree, complex_coeffs):
    """Every cadence kind at degrees 1 and 3, real and complex: the draws
    and the point of the stream they leave the generator at."""
    rng = np.random.default_rng(17)
    nodes = (0.25, 0.5, 1.0, 1.5, 2.75)
    text = "\n".join(
        " ".join(
            f"{c.real.hex()},{c.imag.hex()}"
            for c in _sample_q(rng, max_degree, nodes, 2.5, idx, complex_coeffs).coeffs
        )
        for idx in range(64)
    )
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (digest, rng.random().hex()) == SAMPLE_Q_STREAM_FROZEN[max_degree, complex_coeffs]


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


def _enclosure_rung_off(monkeypatch):
    """Every enclosure of the precision ladder fails, as for a box outside
    the domain, so the rows it would settle go on to mpmath."""
    from matmono import criteria

    def no_enclosure(*args):
        raise DomainError("enclosure rung off")

    monkeypatch.setattr(criteria, "divided_difference_enclosures", no_enclosure)


def test_dd_dismissed_note_counts_unconfirmed_rechecks(monkeypatch):
    """Only rows whose margin before the mpmath re-check (double or long
    double) was negative and that the re-check did not confirm count as
    dismissed, not the rows re-checked only because their error bound left
    the sign open.  The enclosure rung is off: the rows it settles never
    reach mpmath."""
    from matmono import criteria
    from matmono.divdiff import double_settles

    _enclosure_rung_off(monkeypatch)
    check = criteria._Tally.check
    rechecked = []  # (row margin, extended margin) of each re-checked row

    def counted(self, row, config, i=0):
        margin = check(self, row, config, i)
        value, threshold, bound, _ = row
        if not double_settles(value, bound, threshold):
            rechecked.append((value + threshold, margin))
        return margin

    monkeypatch.setattr(criteria._Tally, "check", counted)
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
        "dd-real-q": 46,
        "dd-complex-q": 8,
        "dd-confluent": 47,
        "loewner-psd": 1,
        "extended-loewner-psd": 1,
        "product-derivative": 18,
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
        "dd-complex-q": 76,
        "dd-confluent-anchored": 23,
        "dd-confluent-free": 175,
        "kraus-anchored-psd": 1,
        "kraus-free-psd": 1,
        "product-derivative": 39,
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


def _sweep_draws(shape, n, interval, count):
    """The first count draws of a dd sweep of the shape with seed n, as
    (NodeMultiset, q); q alternates real and complex coefficients."""
    from matmono.criteria import _draw_dd, _q_poly

    drawn = _draw_dd(np.random.default_rng(n), shape, n, interval, None, range(count))
    return [(NodeMultiset.from_points(flat), _q_poly(q)) for _, _, flat, q in drawn]


def test_running_bound_covers_double_error():
    """|double - extended| <= bound for every dd-sweep shape, n = 1-3, over
    the sweep's own draws: clustered tuples and q with roots at the nodes
    (cadence slot 2) included."""
    from matmono.criteria import _DD_SHAPES
    from matmono.divdiff import divided_differences

    eps = np.finfo(float).eps
    rows, violations = 0, []
    for f, interval in BOUND_FUNCTIONS:
        for shape in sorted(set(_DD_SHAPES.values())):
            for n in (1, 2, 3):
                draws = _sweep_draws(shape, n, interval, 16)
                values, _, bounds = divided_differences(
                    f, [ms.flatten() for ms, _ in draws], n_coeffs([q for _, q in draws])
                )
                for (ms, q), value, bound in zip(draws, values, bounds):
                    exact = divided_difference(f, ms, "extended", n_of(q))
                    rows += 1
                    if abs(value - exact) > bound + eps * abs(exact):
                        violations.append((f.name, shape, n, abs(value - exact) / bound))
    assert rows == len(BOUND_FUNCTIONS) * 5 * 3 * 16
    assert not violations, f"{len(violations)} of {rows} rows: {violations[:5]}"


@pytest.mark.skipif(not LONG_DOUBLE_WIDER, reason="long double is double here")
def test_long_double_bound_covers_its_error():
    """|float(long double) - extended| <= the returned bound, which includes
    the rounding to a float: dd rows of every dd-sweep shape, n = 1-3, with
    the sweeps' q weights, and the entries of Kraus and extended Loewner
    matrices, over the sweeps' own draws (clustered tuples included)."""
    from matmono.criteria import _DD_SHAPES, _entries, _layout, _point_row
    from matmono.divdiff import divided_differences, extended_divided_differences

    rows, clustered, violations = 0, 0, []

    def check(f, span, node_lists, weights, exact):
        nonlocal rows, clustered
        # one long-double batch per node count; _dd_triangles's one call over
        # every count gives the same rows (a jet coefficient is the same at any length)
        values, bounds = np.empty(len(node_lists)), np.empty(len(node_lists))
        for count in {len(nodes) for nodes in node_lists}:
            at = [r for r, nodes in enumerate(node_lists) if len(nodes) == count]
            batch = np.array([node_lists[r] for r in at])
            value, _, bound = divided_differences(
                f, batch, None if weights is None else weights[at], np.longdouble)
            values[at], bounds[at] = value, bound
        for nodes, value, bound, want in zip(node_lists, values, bounds, exact):
            rows += 1
            clustered += max(nodes) - min(nodes) <= 0.1 * span  # a cluster draw's width
            if abs(value - want) > bound:
                violations.append((f.name, len(nodes), abs(value - want) / bound))

    for f, interval in BOUND_FUNCTIONS:
        span = interval[1] - interval[0]
        for shape in sorted(set(_DD_SHAPES.values())):
            for n in (1, 2, 3):
                draws = _sweep_draws(shape, n, interval, 8)
                exact = [divided_difference(f, ms, "extended", n_of(q)) for ms, q in draws]
                check(f, span, [ms.flatten() for ms, _ in draws], n_coeffs([q for _, q in draws]), exact)
        rng = np.random.default_rng(0)
        for idx in range(6):
            pts = sample_distinct_tuple(rng, 3, interval, idx).tolist()
            for criterion, points, base in (("kraus-free-psd", pts[:2], pts[2]),
                                            ("kraus-anchored-psd", pts[:2], pts[0]),
                                            ("extended-loewner-psd", pts, None)):
                nodes = _entries(_point_row(criterion, points, base), _layout(criterion, len(points)))
                check(f, span, nodes, None, extended_divided_differences(f, nodes))
    assert rows >= 2000 and clustered >= 200
    assert not violations, f"{len(violations)} of {rows} rows: {violations[:5]}"


@pytest.mark.skipif(not LONG_DOUBLE_WIDER, reason="long double is double here")
def test_long_double_step_changes_no_verdict_configs_or_witness(monkeypatch):
    """The catalog at n = 2 in both modes, with and without the long-double
    step: verdicts, each record's id, verdict and configs, and the failing
    witnesses agree; only worst_value and the dismissed count may move."""
    from matmono import criteria

    config = CertifyConfig(samples=200, oracle_trials=50, seed=3)

    def run():
        return [certify(e.model, 2, e.interval, mode, config)
                for e in catalog() for mode in ("monotone", "convex")]

    def records(report):
        return [(r.criterion, r.passed, r.configs, None if r.passed else r.witness)
                for r in report.records]

    with_step = run()
    monkeypatch.setattr(criteria, "LONG_DOUBLE_WIDER", False)
    without = run()
    assert [r.verdict for r in with_step] == [r.verdict for r in without]
    assert [records(r) for r in with_step] == [records(r) for r in without]
    # the step ran: some passing margin was settled in long double
    assert any(a.worst_value != b.worst_value
               for x, y in zip(with_step, without) for a, b in zip(x.records, y.records))


def _mp_divided_difference(f, ms: NodeMultiset, weight: Poly):
    """[ms]_{f * weight} as an mpf: a Newton/Hermite table in mpf arithmetic
    at 60 digits, or 20 more than the node gaps need (_needed_digits), so
    its roundoff stays below 1e-40 of the value or of 1."""
    from matmono.divdiff import _needed_digits

    digits = max(60, _needed_digits(ms) + 20)
    with mpmath.workdps(digits):
        seeds = {}
        for v, m in ms.nodes:
            fj = f.taylor(v, m, "extended", digits)
            wj = weight.taylor(mpmath.mpf(v), m)
            seeds[v] = [sum(wj[i] * fj[k - i] for i in range(k + 1)) for k in range(m)]
        z = ms.flatten()
        col = [seeds[v][0] for v in z]
        for j in range(1, len(z)):
            col = [seeds[z[i]][j] if z[i + j] == z[i]
                   else (col[i + 1] - col[i]) / (mpmath.mpf(z[i + j]) - z[i])
                   for i in range(len(z) - j)]
        return +col[0]


@pytest.mark.parametrize("f, interval, mode", [
    (SQUARE, (0.1, 10.0), "convex"),
    (FunctionModel(parse("sqrt(log(1+x))"), (0.0, math.inf)), (0.5, 4.0), "monotone"),
])
def test_enclosures_hold_the_mpmath_value(f, interval, mode):
    """On the draws of every n = 3 dd shape of the mode (clustered and
    confluent rows, N(q) weights), each enclosure holds the mpmath
    divided difference, and most clustered rows get an enclosure narrower
    than their double bound."""
    from matmono.criteria import _DD_SHAPES
    from matmono.divdiff import divided_difference_enclosures, divided_differences

    span = interval[1] - interval[0]
    clustered = narrower = 0
    for shape in sorted({s for (m, _), s in _DD_SHAPES.items() if m == mode}):
        draws = _sweep_draws(shape, 3, interval, 64)
        nodes = np.array([ms.flatten() for ms, _ in draws])
        weights = n_coeffs([q for _, q in draws])
        lo, hi = divided_difference_enclosures(f, nodes, weights)
        _, _, bound = divided_differences(f, nodes, weights)
        for (ms, q), low, high, b in zip(draws, lo, hi, bound):
            want = _mp_divided_difference(f, ms, n_of(q))
            slack = 1e-40 * max(1.0, abs(want))  # the mpmath table's own roundoff
            assert low - slack <= want <= high + slack, (shape, ms, low, float(want), high)
            if ms.hull()[1] - ms.hull()[0] <= 0.1 * span:  # a cluster draw's width
                clustered += 1
                narrower += high - low < b
    assert clustered >= 30 and narrower >= 0.8 * clustered


def _product_sweep_rows(monkeypatch, f, n, interval, mode, samples, seed):
    """The (nodes, weights) arrays of every batch a product-derivative
    sweep evaluates: its t repeated order + 1 times, and the N(q) rows."""
    from matmono import criteria

    batches = []
    dd_rows = criteria._dd_rows

    def captured(f, nodes, weights, tol):
        batches.append((nodes, weights))
        return dd_rows(f, nodes, weights, tol)

    monkeypatch.setattr(criteria, "_dd_rows", captured)
    rec = criteria._run_product_derivative_sweep(f, n, interval, mode, samples, seed, 1e-9)
    monkeypatch.undo()
    return rec, np.concatenate([b[0] for b in batches]), np.concatenate([b[1] for b in batches])


def test_product_rows_bound_and_enclosure_hold_the_mpmath_value(monkeypatch):
    """The product-derivative sweep's rows are zero-width confluent dd rows:
    on the draws of x log(x) convex at n = 2-4, |double - mpmath| is
    within the running bound and the enclosure holds the mpmath value."""
    from matmono.divdiff import divided_difference_enclosures, divided_differences

    f = FunctionModel(parse("x*log(x)"), (0.0, math.inf), name="x*log(x)")
    rows, violations = 0, []
    for n in (2, 3, 4):
        rec, nodes, weights = _product_sweep_rows(monkeypatch, f, n, (0.1, 10.0), "convex", 50, n)
        assert rec.passed and rec.configs == 50 and len(nodes) == 50
        assert nodes.shape[1] == 2 * n + 1 and (nodes == nodes[:, :1]).all()
        values, _, bounds = divided_differences(f, nodes, weights)
        lo, hi = divided_difference_enclosures(f, nodes, weights)
        assert (bounds > 0.0).all()
        for z, w, value, bound, low, high in zip(nodes, weights, values, bounds, lo, hi):
            rows += 1
            ms = NodeMultiset.from_pairs([(float(z[0]), len(z))])
            want = _mp_divided_difference(f, ms, Poly.of(*w.tolist()))
            if not (abs(value - want) <= bound and low <= want <= high):
                violations.append((n, float(z[0]), value, float(want), bound, low, high))
    assert rows == 150
    assert not violations, violations[:5]


def test_a_product_row_is_held_to_tol_not_to_its_table(monkeypatch):
    """f = 1e8 x - 5e-8 x^2 on three copies of t = 2, weight 1: the row's
    value f''(2)/2 = -5e-8 lies in (-1e-7, -tol), while f's lower jet
    coefficients are near 2e8.  The dd floor of the table's largest entry,
    2.9e-6, would settle the row as a pass in double; a row of one node
    is held to tol, so it reaches mpmath and the sweep fails there."""
    from matmono import criteria
    from matmono.criteria import _dd_rows, _escalate_dd, _Tally
    from matmono.divdiff import double_settles

    f = FunctionModel(parse("1e8*x - 5e-8*x^2"))
    nodes, weights = np.full((1, 3), 2.0), np.ones((1, 1))
    (value, threshold, bound, _), = _dd_rows(f, nodes, weights, 1e-9)[0]
    assert value == pytest.approx(-5e-8, rel=1e-6) and threshold == 1e-9
    assert double_settles(value, bound, dd_threshold(abs(f.eval(2.0)), "double", 1e-9))
    assert not double_settles(value, bound, threshold)
    evaluate, mpmath_rows = criteria._EVALUATORS["derivative-sign"], []

    def counted(f, configs, tol):
        mpmath_rows.extend(configs)
        return evaluate(f, configs, tol)

    monkeypatch.setitem(criteria._EVALUATORS, "derivative-sign", counted)

    def draw(indices):
        rows, data = _dd_rows(f, nodes, weights, 1e-9)
        return rows, lambda i: {"criterion": "product-derivative", "t": 2.0, "deriv_order": 2, "q": ONE}, data

    rec = _Tally(f, "product-derivative", "derivative-sign", 1e-9).run(draw, 1, _escalate_dd)
    assert not rec.passed and len(mpmath_rows) == 1
    assert rec.worst_value == pytest.approx(-5e-8 + 1e-9, rel=1e-6)
    assert re_evaluate_witness(f, rec.witness)["confirmed"]


def test_enclosure_is_held_to_the_extended_floor():
    """The first dd-confluent-free row of log(x), n = 3 convex, seed 1:
    max |entry| 7.2e15 makes its double threshold 105.7, while its value
    is -8.13 inside the enclosure [-8.17, -8.12].  Against the extended
    floor (tol) the enclosure settles nothing, the row goes to mpmath and
    the criterion fails at its first configuration."""
    from matmono.criteria import _dd_rows, _draw_dd, _escalate, _escalate_dd, _q_array
    from matmono.divdiff import divided_difference_enclosures, divided_differences, double_settles

    log = catalog_model("log(x)")
    seeds = np.random.SeedSequence(1).spawn(len(CONVEX_CRITERIA) + 1)
    child = int(seeds[CONVEX_CRITERIA.index("dd-confluent-free")].generate_state(1)[0])
    (pts, mults, flat, q), = _draw_dd(np.random.default_rng(child), "doubled-free", 3, (0.5, 4.0),
                                       None, range(1))
    nodes, weights = np.array([flat]), n_coeffs(_q_array([q], 3))
    _, scale, _ = divided_differences(log, nodes, weights)
    assert dd_threshold(scale[0], "double", 1e-9) == pytest.approx(105.7, abs=0.1)
    lo, hi = divided_difference_enclosures(log, nodes, weights)
    want = _mp_divided_difference(log, NodeMultiset.from_pairs(zip(pts, mults)), ONE)
    assert lo[0] <= want <= hi[0] < -8.0
    rows, data = _dd_rows(log, nodes, weights, 1e-9)
    _escalate(_escalate_dd, log, [(rows, data, 0)], 1e-9)
    value, threshold, bound, _ = rows[0]
    assert not double_settles(value, bound, threshold)
    report = certify(log, 3, (0.5, 4.0), "convex", CertifyConfig(seed=1))
    rec = report.record("dd-confluent-free")
    assert not rec.passed and rec.configs == 1
    assert re_evaluate_witness(log, rec.witness)["confirmed"]


def test_enclosure_rung_changes_no_verdict_configs_or_witness(monkeypatch):
    """The catalog at n = 2 in both modes, with and without the enclosure
    rung: verdicts, each record's id, verdict and configs, and the failing
    witnesses agree; only worst_value and the dismissed count may move."""
    config = CertifyConfig(samples=200, oracle_trials=50, seed=3)

    def run():
        return [certify(e.model, 2, e.interval, mode, config)
                for e in catalog() for mode in ("monotone", "convex")]

    def records(report):
        return [(r.criterion, r.passed, r.configs, None if r.passed else r.witness)
                for r in report.records]

    with_rung = run()
    _enclosure_rung_off(monkeypatch)
    without = run()
    assert [r.verdict for r in with_rung] == [r.verdict for r in without]
    assert [records(r) for r in with_rung] == [records(r) for r in without]
    # the rung ran: some passing margin was settled by an enclosure
    assert any(a.worst_value != b.worst_value
               for x, y in zip(with_rung, without) for a, b in zip(x.records, y.records))


def _extended_jets(monkeypatch) -> list[float]:
    """The nodes of every mpmath jet FunctionModel.taylor makes from now on."""
    jets = []
    taylor = FunctionModel.taylor

    def counted(self, x, K, precision="double", digits=50):
        if precision == "extended":
            jets.append(float(x))
        return taylor(self, x, K, precision, digits)

    monkeypatch.setattr(FunctionModel, "taylor", counted)
    return jets


@pytest.mark.parametrize("build", ["kraus-anchored", "kraus-free", "extended-loewner"])
def test_extended_matrix_takes_one_jet_per_distinct_node(monkeypatch, build):
    """An extended-precision Kraus or extended Loewner matrix makes one
    mpmath jet per distinct node, and its entries are those of per-entry
    extended divided differences to within one ulp."""
    from matmono.criteria import _entries, _layout, _point_row

    f = FunctionModel(parse("x*log(x)"), (0.0, math.inf), name="x*log(x)")
    pts = [1.0, 1.0 + 3e-9, 1.0 + 7e-9, 2.5]  # a tight cluster and a far node
    base = {"kraus-anchored": pts[1], "kraus-free": 1.0 + 5e-9}.get(build)
    criterion = "extended-loewner-psd" if base is None else build + "-psd"
    nodes = _entries(_point_row(criterion, pts, base), _layout(criterion, len(pts)))
    jets = _extended_jets(monkeypatch)
    if base is None:
        M = extended_loewner_matrix(f, pts, "extended")
    else:
        M = kraus_matrix(f, pts, base, "extended")
    assert sorted(jets) == sorted({x for entry in nodes for x in entry})
    iu = np.triu_indices(len(pts))
    for value, entry in zip(M[iu], nodes):
        want = divided_difference(f, entry, "extended")
        assert abs(value - want) <= np.spacing(abs(want))


def test_psd_escalation_takes_one_jet_per_distinct_node(monkeypatch):
    """The partial extended re-check of an open Kraus matrix computes its
    entries in one call: at most one mpmath jet per distinct node."""
    from matmono import criteria

    monkeypatch.setattr(criteria, "LONG_DOUBLE_WIDER", False)  # escalate from double
    f = FunctionModel(parse("x*log(x)"), (0.0, math.inf), name="x*log(x)")
    jets = _extended_jets(monkeypatch)
    layout = criteria._layout("kraus-free-psd", 3)
    X = np.array([criteria._point_row("kraus-free-psd", [2.0, 2.0 + 1e-6, 5.0], 2.0 + 2e-6)])
    rows, data = criteria._point_rows(f, X, layout, 1e-9)
    escalate = functools.partial(criteria._escalate_points, layout=layout)
    criteria._escalate(escalate, f, [(rows, data, 0)], 1e-9)
    (value, threshold, bound, _), = rows
    assert jets and len(jets) == len(set(jets)) <= 4
    assert value - bound + threshold >= 0.0


def test_psd_escalation_near_the_float_range():
    """Entries near the float range: the partial extended re-check's slack
    squares to inf rather than overflowing, so log(x) passes on a tiny
    interval and exp(x), which is not 2-monotone, fails near overflow."""
    log = catalog_model("log(x)")
    with np.errstate(over="ignore", invalid="ignore"):  # the double tables overflow here
        passing = _run_psd_point_sweep(log, 2, (1e-300, 1e-290), "loewner-psd", 200, 1, 1e-9)
        failing = _run_psd_point_sweep(EXP, 2, (700.0, 709.0), "loewner-psd", 200, 1, 1e-9)
    assert passing.passed and passing.configs == 200 and math.isfinite(passing.worst_value)
    assert not failing.passed and failing.worst_value < 0.0


def test_a_grid_of_one_point_checks_that_point_once():
    """At grid 1 the lone grid point is its own bracket [t, t], which the
    ternary refinement leaves alone: one configuration, not 61."""
    from matmono.criteria import _run_derivative_matrix_sweep

    log = catalog_model("log(x)")
    rec = _run_derivative_matrix_sweep(log, 2, (0.5, 4.0), "dobsch-psd", 1, 1e-9)
    assert rec.passed and rec.configs == 1 and rec.note == "grid 1 Chebyshev points"
    config = CertifyConfig(samples=20, oracle_trials=10, seed=1, grid=1)
    assert certify(log, 2, (0.5, 4.0), "convex", config).record("hankel-psd").configs == 1
    # two grid points make one bracket between them: 2 + 30 rounds of 2 probes
    assert _run_derivative_matrix_sweep(log, 2, (0.5, 4.0), "dobsch-psd", 2, 1e-9).configs == 62


def test_a_dobsch_row_inside_its_weyl_bound_climbs_to_mpmath(monkeypatch):
    """-1/x has a rank-one Dobsch matrix, least eigenvalue 0: at tol 1e-17
    the double row's margin lies inside its Weyl bound, where a bound of 0
    would settle it in double.  The row climbs the ladder to its mpmath
    entries and passes there."""
    from matmono import criteria
    from matmono.divdiff import double_settles

    rows, entries = [], []
    point_rows, extended = criteria._point_rows, criteria.extended_divided_differences

    def rows_spy(f, X, layout, tol):
        out = point_rows(f, X, layout, tol)
        rows.extend(list(out[0]))  # the double rows, before they escalate in place
        return out

    def entries_spy(f, node_lists):
        entries.append(node_lists)
        return extended(f, node_lists)

    monkeypatch.setattr(criteria, "_point_rows", rows_spy)
    monkeypatch.setattr(criteria, "extended_divided_differences", entries_spy)
    rec = criteria._run_derivative_matrix_sweep(catalog_model("-1/x"), 2, (0.5, 4.0), "dobsch-psd", 1, 1e-17)
    (value, threshold, bound, _), = rows
    assert bound > 0.0 and double_settles(value, 0.0, threshold)
    assert criteria._open(value, threshold, bound)
    (node_lists,) = entries
    assert node_lists and {len(set(nodes)) for nodes in node_lists} == {1}
    assert rec.passed and rec.configs == 1 and rec.worst_value >= 0.0


def _sequential_refinement(f, n, interval, criterion, grid, tol):
    """Frozen: the t-grid sweep before its brackets ran in lockstep, each
    bracket's 30 ternary rounds in turn, one probe at a time.  A probe is
    the sweep's own point row, checked through a tally of its own, so both
    loops see the same rows.  Returns the record and the probed t's."""
    from matmono import criteria

    tally = criteria._Tally(f, criterion, "psd-matrix", tol)
    layout = criteria._layout(criterion, n)
    escalate = functools.partial(criteria._escalate_points, layout=layout)
    probed = []

    def probe(t):
        probed.append(t)

        def draw(indices):
            X = np.full((1, n + (criterion == "hankel-psd")), t)
            rows, data = criteria._point_rows(f, X, layout, tol)
            return rows, lambda i: {"criterion": criterion, "t": t, "order": n}, data
        return -1.0 if tally.sweep(draw, [range(1)], escalate) else tally.margins[-1]

    lo, hi = interval
    k = np.arange(grid)
    ts = np.sort(0.5 * (lo + hi) + 0.5 * (hi - lo) * (1.0 - 1e-6) * np.cos(np.pi * (2 * k + 1) / (2 * grid)))
    margins = []
    for t in ts:
        margin = probe(float(t))
        if margin < 0.0:
            return tally.record(False), probed
        margins.append(margin)
    minima = [
        i
        for i in range(len(ts))
        if (i == 0 or margins[i] <= margins[i - 1])
        and (i == len(ts) - 1 or margins[i] <= margins[i + 1])
    ]
    minima = sorted(minima, key=lambda i: margins[i])[:5]
    for i in minima:
        a = float(ts[max(i - 1, 0)])
        b = float(ts[min(i + 1, len(ts) - 1)])
        for _ in range(30):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            margin1 = probe(m1)
            if margin1 < 0.0:
                return tally.record(False), probed
            margin2 = probe(m2)
            if margin2 < 0.0:
                return tally.record(False), probed
            if margin1 <= margin2:
                b = m2
            else:
                a = m1
    return tally.record(True, f"grid {grid} Chebyshev points"), probed


@pytest.mark.parametrize("text, interval, criterion, brackets", [
    ("sqrt(log(1+x))", (0.5, 4.0), "dobsch-psd", 1),
    ("x^2", (0.1, 10.0), "hankel-psd", 5),
])
def test_lockstep_refinement_probes_each_bracket_as_the_sequential_loop(
    monkeypatch, text, interval, criterion, brackets
):
    """The lockstep refinement probes the t's of each bracket that the
    frozen one-bracket-at-a-time loop probes, in the same order, and gives
    the same passing record."""
    from matmono import criteria

    f = FunctionModel(parse(text), (0.0, math.inf), name=text)
    batches = []
    point_rows = criteria._point_rows

    def spy(f, X, layout, tol):
        batches.append(X[:, 0].tolist())
        return point_rows(f, X, layout, tol)

    monkeypatch.setattr(criteria, "_point_rows", spy)
    rec = criteria._run_derivative_matrix_sweep(f, 3, interval, criterion, 257, 1e-9)
    monkeypatch.undo()
    want, probed = _sequential_refinement(f, 3, interval, criterion, 257, 1e-9)
    assert rec.passed and rec.to_jsonable() == want.to_jsonable()
    assert rec.configs == 257 + 60 * brackets
    grid, rounds = batches[:9], batches[9:]
    assert sum(grid, []) == probed[:257] and len(rounds) == 30
    assert all(len(r) == 2 * brackets for r in rounds)
    for b in range(brackets):
        assert [t for r in rounds for t in r[2 * b : 2 * b + 2]] == probed[257 + 60 * b : 317 + 60 * b]


def test_non_finite_margin_raises_naming_the_criterion():
    """An inf or NaN margin decides nothing: the sweep raises instead of
    passing on it."""
    log = catalog_model("log(x)")
    with np.errstate(over="ignore", invalid="ignore"):  # the double tables overflow here
        with pytest.raises(ValueError, match="extended-loewner-psd: .* not finite"):
            _run_psd_point_sweep(log, 2, (1e-300, 1e-290), "extended-loewner-psd", 200, 1, 1e-9)
        with pytest.raises(ValueError, match="dd-real-q: .* not finite"):
            certify(log, 2, (1e-300, 1e-290), config=CertifyConfig(seed=1))


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


# (criterion, mode, passing function and interval, failing one) of every
# sweep that draws its batches from a DrawBlock
BLOCK_DRAWN = [
    ("dd-complex-q", "monotone", (RECIP_NEG, (0.5, 4.0)), (EXP, (-1.0, 1.0))),
    ("extended-loewner-psd", "monotone", (RECIP_NEG, (0.5, 4.0)), (EXP, (-1.0, 1.0))),
    ("product-derivative", "monotone", (RECIP_NEG, (0.5, 4.0)), (EXP, (-1.0, 1.0))),
    ("dd-confluent-anchored", "convex", (SQUARE, (0.1, 10.0)), (CUBE, (0.5, 4.0))),
    ("dd-confluent-free", "convex", (SQUARE, (0.1, 10.0)), (CUBE, (0.5, 4.0))),
    ("kraus-anchored-psd", "convex", (SQUARE, (0.1, 10.0)), (CUBE, (0.5, 4.0))),
    ("kraus-free-psd", "convex", (SQUARE, (0.1, 10.0)), (CUBE, (0.5, 4.0))),
    ("product-derivative", "convex", (SQUARE, (0.1, 10.0)), (CUBE, (0.5, 4.0))),
]


def _block_drawn_records(criterion, mode, cases, samples=300, seed=7):
    from matmono.criteria import _SWEEPS

    cfg = CertifyConfig(samples=samples, seed=seed)
    return [_SWEEPS[criterion](f, 2, interval, mode, seed, cfg) for f, interval in cases]


@pytest.mark.parametrize("criterion, mode, passing, failing", BLOCK_DRAWN,
                         ids=[f"{c}-{m}" for c, m, _, _ in BLOCK_DRAWN])
def test_block_drawn_records_do_not_depend_on_batch_size(monkeypatch, criterion, mode,
                                                          passing, failing):
    """Each row reads only its own block of the batch's numbers: one-row
    batches give the records of the default batches, configs, worst value,
    witness and note, on a passing and a failing sweep."""
    from matmono import divdiff

    def records():
        recs = _block_drawn_records(criterion, mode, [passing, failing])
        return [(r.passed, r.configs, r.worst_value, r.witness, r.note) for r in recs]

    batched = records()
    assert [passed for passed, *_ in batched] == [True, False]
    monkeypatch.setattr(divdiff, "SWEEP_BATCH", 1)
    assert records() == batched


@pytest.mark.parametrize("criterion, mode, passing, failing", BLOCK_DRAWN,
                         ids=[f"{c}-{m}" for c, m, _, _ in BLOCK_DRAWN])
def test_block_drawn_failures_replay_bit_for_bit(criterion, mode, passing, failing):
    """The witness of a failing block-drawn sweep is its materialized
    configuration: re_evaluate_witness gives its value and threshold."""
    (rec,) = _block_drawn_records(criterion, mode, [failing])
    f = failing[0]
    assert not rec.passed
    w = rec.witness
    replay = re_evaluate_witness(f, w)
    assert replay["confirmed"]
    assert replay["value"] == w.get("value", w.get("min_eigenvalue"))
    assert replay["threshold"] == w["threshold"]
    assert rec.worst_value == replay["value"] + replay["threshold"]


def _flush_every_batch(self, draw, samples, escalate=None, note=""):
    """_Tally.run without deferral: each batch's open rows escalate on
    their own as soon as it is drawn, and its rows are checked before the
    next batch is drawn."""
    from matmono.criteria import _escalate
    from matmono.divdiff import sweep_batches

    for indices in sweep_batches(samples):
        rows, config, data = draw(indices)
        if escalate is not None:
            _escalate(escalate, self.f, [(rows, data, 0)], self.tol)
        for i, row in enumerate(rows):
            if self.check(row, config, i) < 0.0:
                return self.record(False, note)
    return self.record(True, note)


def _enclosure_calls(monkeypatch) -> list:
    """One entry per divided_difference_enclosures call the ladder makes from now on."""
    from matmono import criteria

    calls = []
    enclose = criteria.divided_difference_enclosures

    def counted(*args):
        calls.append(1)
        return enclose(*args)

    monkeypatch.setattr(criteria, "divided_difference_enclosures", counted)
    return calls


# every sweep with a rung past double: the block-drawn ones and the rest
DEFERRED = BLOCK_DRAWN + [
    ("dd-real-q", "convex", (SQUARE, (0.1, 10.0)), (CUBE, (0.5, 4.0))),
    ("dd-confluent", "monotone", (RECIP_NEG, (0.5, 4.0)), (EXP, (-1.0, 1.0))),
    ("loewner-psd", "monotone", (RECIP_NEG, (0.5, 4.0)), (EXP, (-1.0, 1.0))),
]


def test_deferred_escalation_gives_the_records_of_a_flush_after_every_batch(monkeypatch):
    """Open rows wait and escalate together, yet every record (verdict,
    configs, worst value, witness, note) is that of a sweep that escalates
    and checks each batch as it is drawn: a passing and a failing sweep of
    each criterion with a rung, and of the k-tone check.  Deferring makes
    fewer enclosure calls."""
    from matmono import criteria

    def records():
        recs = [r for criterion, mode, passing, failing in DEFERRED
                for r in _block_drawn_records(criterion, mode, [passing, failing])]
        recs += [ktone_check(f, 2, interval, samples=300, seed=7)
                 for f, interval in ((SQUARE, (0.1, 10.0)), (RECIP_NEG, (0.5, 4.0)))]
        return [(r.criterion, r.passed, r.configs, r.worst_value, r.witness, r.note) for r in recs]

    calls = _enclosure_calls(monkeypatch)
    deferred, deferred_calls = records(), len(calls)
    assert [passed for _, passed, *_ in deferred] == [True, False] * (len(DEFERRED) + 1)
    monkeypatch.setattr(criteria._Tally, "run", _flush_every_batch)
    calls.clear()
    assert records() == deferred
    assert deferred_calls < len(calls)


def _log3_confluent_free():
    """The dd-confluent-free sweep of certify(log(x), 3, (0.5, 4), "convex",
    CertifyConfig(seed=1)), run alone."""
    seeds = np.random.SeedSequence(1).spawn(len(CONVEX_CRITERIA) + 1)
    child = int(seeds[CONVEX_CRITERIA.index("dd-confluent-free")].generate_state(1)[0])
    return confluent_dd_criterion(catalog_model("log(x)"), 3, (0.5, 4.0), "convex", 1000, child, "free")


def test_an_open_first_row_is_confirmed_where_it_stands(monkeypatch):
    """log(x), n = 3 convex, seed 1: the first dd-confluent-free row stays
    open past the enclosure, so the next batch is drawn while it waits;
    that batch holds a candidate violation, so the rows flush there.  The
    first row is confirmed in mpmath, and the sweep stops at configs 1,
    with the witness of a sweep that flushes after every batch."""
    from matmono import criteria

    draws = []
    draw_dd = criteria._draw_dd

    def counted(*args):
        draws.append(1)
        return draw_dd(*args)

    monkeypatch.setattr(criteria, "_draw_dd", counted)
    deferred = _log3_confluent_free()
    assert not deferred.passed and deferred.configs == 1 and len(draws) == 2
    assert re_evaluate_witness(catalog_model("log(x)"), deferred.witness)["confirmed"]
    monkeypatch.setattr(criteria._Tally, "run", _flush_every_batch)
    draws.clear()
    eager = _log3_confluent_free()
    assert len(draws) == 1
    assert (eager.configs, eager.worst_value, eager.witness) == (
        deferred.configs, deferred.worst_value, deferred.witness)


def test_exceptions_past_a_waiting_row_surface_only_if_it_does_not_stop_the_sweep(monkeypatch):
    """A batch drawn after a waiting row may raise.  log(x), n = 3 convex:
    the open first row of dd-confluent-free stops the sweep, so an error
    in the next draw never surfaces.  sqrt(log(1+x)) passes, so an error in
    a later draw does.  An escalation of several batches that raises is
    redone batch by batch, which gives the record of the merged call."""
    from matmono import criteria

    dd_rows = criteria._dd_rows

    def failing_from(call):
        calls = []

        def rows(*args):
            calls.append(1)
            if len(calls) >= call:
                raise RuntimeError("draw failed")
            return dd_rows(*args)

        return rows

    stopped = _log3_confluent_free()
    monkeypatch.setattr(criteria, "_dd_rows", failing_from(2))
    rec = _log3_confluent_free()
    assert (rec.passed, rec.configs, rec.witness) == (False, 1, stopped.witness)

    f = FunctionModel(parse("sqrt(log(1+x))"), (0.0, math.inf))
    monkeypatch.setattr(criteria, "_dd_rows", failing_from(5))
    with pytest.raises(RuntimeError, match="draw failed"):
        dd_criterion(f, 3, (0.5, 4.0), "monotone", samples=1000, seed=1)
    monkeypatch.setattr(criteria, "_dd_rows", dd_rows)

    passing = dd_criterion(f, 3, (0.5, 4.0), "monotone", samples=1000, seed=1)
    escalate = criteria._escalate_dd
    merged = []

    def one_batch_only(f, rows, data, batch, tol):
        if batch[0] != batch[-1]:
            merged.append(1)
            raise RuntimeError("merged escalation failed")
        return escalate(f, rows, data, batch, tol)

    monkeypatch.setattr(criteria, "_escalate_dd", one_batch_only)
    again = dd_criterion(f, 3, (0.5, 4.0), "monotone", samples=1000, seed=1)
    assert merged
    assert (again.passed, again.configs, again.worst_value, again.note) == (
        passing.passed, passing.configs, passing.worst_value, passing.note)


def test_merged_escalation_with_a_domain_error_gives_the_per_batch_rows(monkeypatch):
    """The enclosure of a box possibly outside f's domain fails for every
    row of its call.  f = sqrt(x^4) = x^2 has third divided differences 0,
    which double precision leaves open; around 0 the box of x^4 holds 0,
    where sqrt's jet is not defined.  When the rows of a batch inside and
    of a batch around 0 escalate in one call, each batch is enclosed again
    on its own: the rows are those of escalating the batches one by one,
    the batch inside settles by its enclosures and the other keeps its
    double rows for mpmath."""
    from matmono import criteria
    from matmono.criteria import _dd_rows, _escalate, _escalate_dd, _open

    monkeypatch.setattr(criteria, "LONG_DOUBLE_WIDER", False)  # escalate from double
    f = FunctionModel(parse("sqrt(x^4)"), name="sqrt(x^4)")
    inside = np.array([[1.0, 1.0 + 1e-4, 1.0 + 2e-4, 1.0 + 3e-4]] * 3) + np.arange(3)[:, None]
    around_0 = np.array([[-1e-3, -1e-3 + 1e-6, 1e-3 + k * 1e-4, 1e-3 + 1e-6 + k * 1e-4]
                         for k in range(3)])
    weights = np.ones((3, 1))
    double = [_dd_rows(f, nodes, weights, 1e-9)[0] for nodes in (inside, around_0)]
    assert all(_open(*row[:3]) for rows in double for row in rows)
    with pytest.raises(DomainError):
        criteria.divided_difference_enclosures(f, around_0, weights)

    def escalated(*blocks):
        batches = [(*_dd_rows(f, nodes, weights, 1e-9), 0) for nodes in blocks]
        _escalate(_escalate_dd, f, batches, 1e-9)
        return [rows for rows, _, _ in batches]

    merged = escalated(inside, around_0)
    assert merged == escalated(inside) + escalated(around_0)
    assert not any(_open(*row[:3]) for row in merged[0])
    assert merged[1] == double[1]


def test_a_passing_dd_sweep_makes_one_enclosure_call(monkeypatch):
    """A passing 1000-configuration dd sweep of sqrt(log(1+x)) at n = 3
    escalates its open rows at the end of the sweep, in one call."""
    calls = _enclosure_calls(monkeypatch)
    f = FunctionModel(parse("sqrt(log(1+x))"), (0.0, math.inf))
    rec = dd_criterion(f, 3, (0.5, 4.0), "monotone", samples=1000, seed=1)
    assert rec.passed and rec.configs == 1000
    assert len(calls) <= 1


@pytest.mark.parametrize("mode", ["monotone", "convex"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_passes_on_a_narrow_interval_far_from_zero(n, mode):
    """f = x on (1e6, 1e6 + 1e-3): the span is about 8.6e6 ulps of its
    nodes, so clustered nodes are kept apart by a few ulps and every
    criterion and the oracle pass."""
    report = certify(FunctionModel(parse("x"), name="x"), n, (1e6, 1e6 + 1e-3), mode,
                     CertifyConfig(seed=1))
    assert report.verdict == "pass" and not report.conflicts


def _placed_from_halton(x, idx, interval) -> bool:
    """x, the ascending nodes of draw idx, are placed from the sorted
    Halton row of idx: spread apart, or a cluster of width 0.1 * span
    (the cluster scale of every third index) that no end clipped."""
    from matmono.divdiff import MARGIN_FRACTION, SEPARATION_PARTS, _halton_row

    a, b = interval
    span = b - a
    margin, delta = span * MARGIN_FRACTION, span / SEPARATION_PARTS
    h = np.sort(_halton_row(idx, len(x)))
    free = span - 2 * margin - (len(x) - 1) * delta
    spread = a + margin + free * h + delta * np.arange(len(x))
    width = 0.1 * span
    cluster = x[0] + width * (h - h[0])
    return bool(np.allclose(x, spread, rtol=0, atol=1e-12 * span)
                or np.allclose(x, cluster, rtol=0, atol=1e-12 * span))


def test_q_drawing_sweeps_keep_the_cadence(monkeypatch):
    """Row 0 of every q-drawing sweep has q = 1, and every third row takes
    its nodes from its Halton row (all but the clusters an end clipped)."""
    from matmono import criteria
    from matmono.criteria import _DD_SHAPES, _draw_dd

    interval = (0.5, 4.0)
    for shape in sorted(set(_DD_SHAPES.values())):
        for n in (1, 2, 3):
            drawn = _draw_dd(np.random.default_rng(n), shape, n, interval, None, range(60))
            assert drawn[0][3] is None
            assert all(q is None for _, _, _, q in drawn[::4])
            halton = [_placed_from_halton(np.array(pts), idx, interval)
                      for idx, (pts, *_) in enumerate(drawn) if idx % 3 == 0]
            assert sum(halton) >= len(halton) - 2, (shape, n)

    weights = []
    dd_rows = criteria._dd_rows

    def captured(f, nodes, w, tol):
        weights.append(w)
        return dd_rows(f, nodes, w, tol)

    monkeypatch.setattr(criteria, "_dd_rows", captured)
    for f, iv, mode in ((RECIP_NEG, interval, "monotone"), (SQUARE, (0.1, 10.0), "convex")):
        weights.clear()
        rec = criteria._run_product_derivative_sweep(f, 3, iv, mode, 40, 5, 1e-9)
        assert rec.configs == 40
        rows = np.concatenate(weights)
        assert rows[0].tolist() == [1.0] + [0.0] * (rows.shape[1] - 1)
        assert all(r.tolist() == rows[0].tolist() for r in rows[::4])


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
        (True, 300, "-0x1.16f0087541c10p-40"),
        (True, 300, "-0x1.fcbcfaa5a5d72p-40"),
        (True, 300, "-0x1.4970e06361f89p-40"),
    ],
    "x^3": [
        (True, 300, "0x1.905adc7148657p-1"),
        (True, 300, "0x1.db99c8be4d456p-1"),
        (True, 300, "0x1.a487b3d5be62ap+0"),
        (True, 300, "0x1.a9be22697833dp+0"),
        (True, 300, "0x1.fffa3004a75c0p-1"),
        (True, 300, "0x1.ff268e9aaaa1cp-1"),
        (True, 300, "-0x1.3350e785406e0p-41"),
        (True, 300, "-0x1.ff27e59693250p-40"),
    ],
    "exp(x)": [
        (True, 300, "0x1.7afbc1647f92cp-2"),
        (True, 300, "0x1.84eafc1dbbd20p-2"),
        (True, 300, "0x1.8316844c45aeap-3"),
        (True, 300, "0x1.84a2d62a302d8p-3"),
        (True, 300, "0x1.f647710481284p-5"),
        (True, 300, "0x1.032fda0df65ccp-4"),
        (True, 300, "0x1.00a143552e38dp-6"),
        (True, 300, "0x1.02e3a778065f5p-6"),
    ],
    "-1/x": [
        (True, 300, "0x1.0fab44760d38cp-4"),
        (True, 300, "0x1.059d4b10757c8p-4"),
        (False, 1, "-0x1.c60f60d589b83p-3"),
        (False, 1, "-0x1.c60f60d589b83p-3"),
        (True, 300, "0x1.07de232629f49p-8"),
        (True, 300, "0x1.109d4f2f46296p-8"),
        (False, 1, "-0x1.1230726d1810cp-2"),
        (False, 1, "-0x1.1230726d1810cp-2"),
    ],
    "sqrt(x)": [
        (True, 300, "0x1.03d2078d125d2p-2"),
        (True, 300, "0x1.01636fb9f5f13p-2"),
        (False, 1, "-0x1.d947fdac1754fp-5"),
        (False, 1, "-0x1.d947fdac1754fp-5"),
        (True, 300, "0x1.04df55da0d906p-9"),
        (True, 300, "0x1.0a096a70cee37p-9"),
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
