"""Tests for finite-set checks, gluing, counterexamples, and rigidity."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from matmono import (
    FiniteFunction,
    affine_rigidity_check,
    build_counterexample,
    catalog_model,
    extension_feasibility,
    genset_check,
    glue_check,
    read_points_file,
    write_points_file,
)
from matmono.gensets import _index_subsets, _level_q, _level_subsets, re_evaluate_genset_witness
from matmono.linalg import _projection_pairs


def test_finite_function_table_contract():
    f = FiniteFunction.from_pairs([(2.0, 4.0), (0.5, 0.25), (1.0, 1.0)])
    assert f.points == (0.5, 1.0, 2.0)
    assert f.values == (0.25, 1.0, 4.0)
    assert f.size == 3
    assert f.value_at(1.0) == 1.0
    with pytest.raises(KeyError):
        f.value_at(1.5)


def test_finite_function_union_requires_agreement_on_shared_points():
    f = FiniteFunction.from_pairs([(0.0, 1.0), (1.0, 2.0)])
    g = FiniteFunction.from_pairs([(1.0, 2.0), (2.0, 5.0)])
    u = f.union(g)
    assert u.points == (0.0, 1.0, 2.0)
    assert u.values == (1.0, 2.0, 5.0)

    bad = FiniteFunction.from_pairs([(1.0, 2.5), (2.0, 5.0)])
    with pytest.raises(ValueError, match="inconsistent values"):
        f.union(bad)


def test_finite_function_rejects_malformed_tables():
    with pytest.raises(ValueError):
        FiniteFunction((), ())
    with pytest.raises(ValueError):
        FiniteFunction((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        FiniteFunction((0.0, 0.0), (1.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("as_point", [False, True])
def test_finite_function_rejects_non_finite_pairs(bad, as_point):
    """A NaN row never fails a sign test, so a table holding one would
    pass every level vacuously."""
    pair = (bad, 2.0) if as_point else (2.0, bad)
    pairs = [(0.0, 0.0), (1.0, 1.0), pair, (3.0, 3.0), (4.0, 4.0)]
    with pytest.raises(ValueError, match="non-finite pair") as err:
        FiniteFunction.from_pairs(pairs)
    assert repr(bad) in str(err.value)
    with pytest.raises(ValueError, match="non-finite pair"):
        FiniteFunction(tuple(x for x, _ in pairs), tuple(y for _, y in pairs))


def test_points_file_round_trip(tmp_path):
    f = FiniteFunction.from_model(catalog_model("-1/x"), [0.5, 1.0, 2.0, 4.0])
    path = tmp_path / "recip.txt"
    write_points_file(path, f, header="reciprocal samples")
    back = read_points_file(path)
    assert back.points == f.points
    assert back.values == pytest.approx(f.values)

    # comments and blank lines are ignored
    loose = tmp_path / "loose.txt"
    loose.write_text("# comment\n\n 1.0   2.0 \n3 4\n")
    g = read_points_file(loose)
    assert g.points == (1.0, 3.0)
    assert g.values == (2.0, 4.0)


def test_points_file_errors_carry_location(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0 2.0\n3.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: expected two columns"):
        read_points_file(bad)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="no data lines"):
        read_points_file(empty)


def test_genset_passes_on_matrix_monotone_data():
    model = catalog_model("-1/x")
    big = FiniteFunction.from_model(model, [0.5 + 0.35 * k for k in range(8)])
    rep = genset_check(big, 2, samples=600, seed=0)
    assert rep.passed
    assert rep.rule == "k=n"
    assert rep.auxiliary_levels == []  # 8 points > 2n+2, top level suffices

    small = FiniteFunction.from_model(model, [0.5, 0.8, 1.2, 1.7, 2.5, 3.5])
    rep6 = genset_check(small, 2, samples=600, seed=0)
    assert rep6.passed
    assert [rec.k for rec in rep6.auxiliary_levels] == [1]
    assert all(rec.passed for rec in rep6.auxiliary_levels)


def test_genset_fails_on_square_data_and_witness_replays():
    f = FiniteFunction.from_pairs([(0.1 * k, (0.1 * k) ** 2) for k in range(1, 7)])
    rep = genset_check(f, 2, samples=2000, seed=0)
    assert not rep.passed
    top = rep.level(2)
    assert not top.passed
    wit = top.witness
    assert wit["kind"] == "genset-dd"
    assert wit["value"] < -wit["threshold"]

    replay = re_evaluate_genset_witness(wit)
    assert replay["confirmed"]
    assert replay["value"] == pytest.approx(wit["value"], rel=1e-12)

    with pytest.raises(ValueError):
        re_evaluate_genset_witness({"kind": "psd-matrix"})


def test_pathological_set_fails_only_at_low_level():
    # 4-point set monotone on every 4-point window in the order-2 sense
    # but visibly decreasing between 1 and 2.
    f = FiniteFunction.from_pairs([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0)])
    rep = genset_check(f, 2, samples=4000, seed=0)
    assert rep.rule == "all-k"
    assert rep.verdict == "fail"

    low = rep.level(1)
    assert not low.passed
    assert low.configs == 4  # stops at the first failing window
    assert low.witness["subset"] == [1.0, 2.0]
    assert low.worst_value == pytest.approx(-1.0)

    top = rep.level(2)
    assert top.passed
    assert top.configs == 4000
    assert top.worst_value >= 0.0
    assert "all 1 subsets" in top.note


def test_glue_check_consistent_overlapping_grids():
    model = catalog_model("-1/x")
    a = FiniteFunction.from_model(model, [0.5 + 0.25 * k for k in range(7)])
    b = FiniteFunction.from_model(model, [1.25 + 0.25 * k for k in range(8)])
    rep = glue_check(a, b, 2, samples=500, seed=0)
    assert rep.overlap_count == 4
    assert rep.hypothesis_met  # 4 shared points >= 2n-1 = 3
    assert rep.consistent
    assert rep.verdict == "pass"
    assert rep.union.size == 11
    assert rep.first.passed and rep.second.passed


def test_glue_check_reports_thin_overlap():
    model = catalog_model("-1/x")
    a = FiniteFunction.from_model(model, [0.5 + 0.25 * k for k in range(7)])
    b = FiniteFunction.from_model(model, [2.0, 2.6, 3.2, 3.8, 4.4])
    rep = glue_check(a, b, 2, samples=400, seed=0)
    assert rep.overlap_count == 1
    assert not rep.hypothesis_met
    assert rep.consistent  # data is still jointly monotone, just no guarantee


def test_resolvent_difference_is_nonnegative_and_has_rank_one_tail():
    pair, = _projection_pairs(np.array([[1.0, 2.0, 3.0, 4.0]]))
    a, b, v = pair.matrix_a, pair.matrix_b, pair.vector
    eye = np.eye(len(v))
    rng = np.random.default_rng(9)
    for _ in range(5):
        w = rng.standard_normal(len(v))
        for z in (6.0, 10.0, 50.0):
            gap = np.linalg.inv(z * eye - b) - np.linalg.inv(z * eye - a)
            phi = w @ gap @ w
            assert phi >= -1e-12  # b >= a makes the resolvent gap PSD here
        z = 1000.0
        gap = np.linalg.inv(z * eye - b) - np.linalg.inv(z * eye - a)
        tail = z * z * (w @ gap @ w)
        assert tail == pytest.approx(float(v @ w) ** 2, rel=2e-2)


def test_counterexample_frozen_structure():
    bundle = build_counterexample(2, (1, 2, 3, 4, 5, 6), (0, 7), samples=800)
    sevenths = tuple(k / 7 for k in (-5, 1, 3, 4, 6, 12))
    assert bundle.finite_function.points == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert bundle.finite_function.values == pytest.approx(sevenths)

    assert bundle.r1.constant == 0.0
    assert bundle.r1.poles == (7.0,)
    assert bundle.r2.constant == 1.0
    assert bundle.r2.poles == (0.0,)
    assert bundle.r1.weights == pytest.approx((12 / 7,))
    assert bundle.r2.weights == pytest.approx((12 / 7,))
    assert bundle.first == "r2"
    assert bundle.gap_interval == (3.0, 4.0)
    assert bundle.aux_poles == (0.0, 7.0)

    payload = bundle.to_jsonable()
    assert sorted(payload) == [
        "aux_poles", "first", "gap_interval", "order", "points", "r1", "r2", "values",
    ]

    # both branches reproduce the shared middle values
    for x in (3.0, 4.0):
        assert bundle.r1(x) == pytest.approx(bundle.r2(x), abs=1e-12)


def test_counterexample_side_assignment_tracks_pole_layout():
    lo_hi = build_counterexample(2, (1, 2, 3, 4, 5, 6), (-1, 8), samples=800)
    assert lo_hi.first == "r2"
    assert lo_hi.r1.poles == (8.0,)
    assert lo_hi.r2.poles == (-1.0,)

    both_below = build_counterexample(2, (1, 2, 3, 4, 5, 6), (-2, -1), samples=800)
    assert both_below.first == "r1"
    assert both_below.r1.poles == (-1.0,)
    assert both_below.r2.poles == (-2.0,)

    cubic = build_counterexample(3, (1, 2, 3, 4, 5, 6, 7, 8), (-4, -3, -2, -1), samples=800)
    assert cubic.first == "r1"
    assert cubic.gap_interval == (4.0, 5.0)
    assert len(cubic.r1.poles) + len(cubic.r2.poles) == 4


def test_counterexample_input_validation():
    with pytest.raises(ValueError, match="order >= 2"):
        build_counterexample(1, (1, 2, 3, 4), (0, 5))
    with pytest.raises(ValueError, match="2n\\+2 = 6 distinct points"):
        build_counterexample(2, (1, 2, 3, 4, 5), (0, 7))
    with pytest.raises(ValueError, match="2n\\+2 = 6 distinct points"):
        build_counterexample(2, (1, 2, 2, 4, 5, 6), (0, 7))
    with pytest.raises(ValueError, match="2n-2 = 2 distinct auxiliary poles"):
        build_counterexample(2, (1, 2, 3, 4, 5, 6), (0,))
    with pytest.raises(ValueError, match="strictly outside the point hull"):
        build_counterexample(2, (1, 2, 3, 4, 5, 6), (3.5, 7))


def test_extension_feasibility_empty_in_the_gap():
    bundle = build_counterexample(2, (1, 2, 3, 4, 5, 6), (0, 7), samples=800)
    result = extension_feasibility(bundle, 3.5, samples=600, grid=4000)
    assert result.empty
    assert result.feasible_intervals == []
    # the two branch values at 3.5 disagree, so no y satisfies both
    assert result.binding["r1"] == pytest.approx(24 / 49, abs=1e-12)
    assert result.binding["r2"] == pytest.approx(25 / 49, abs=1e-12)
    assert result.constraint_count > 0

    with pytest.raises(ValueError, match="gap interval"):
        extension_feasibility(bundle, 2.0)


def test_extension_feasibility_plain_function():
    f = FiniteFunction.from_model(catalog_model("-1/x"), [0.5, 1.0, 2.0, 4.0])

    # order 1: classic interpolation window [f(1), f(2)]
    r1 = extension_feasibility(f, 1.5, n=1, samples=400, grid=4000)
    assert len(r1.feasible_intervals) == 1
    lo, hi = r1.feasible_intervals[0]
    assert lo == pytest.approx(-1.0, abs=2e-3)
    assert hi == pytest.approx(-0.5, abs=2e-3)
    assert r1.binding == {}

    # order 2 pins the value to a sliver around the true extension -1/1.5
    r2 = extension_feasibility(f, 1.5, n=2, samples=400, grid=200_000)
    assert len(r2.feasible_intervals) == 1
    lo, hi = r2.feasible_intervals[0]
    assert lo <= -2 / 3 <= hi
    assert hi - lo < 1e-3

    with pytest.raises(ValueError, match="order n is required"):
        extension_feasibility(f, 1.5)
    with pytest.raises(ValueError, match="strictly inside"):
        extension_feasibility(f, 9.0, n=1)
    with pytest.raises(ValueError, match="already a point"):
        extension_feasibility(f, 1.0, n=1)
    with pytest.raises(ValueError, match="grid must be >= 1"):
        extension_feasibility(f, 1.5, n=1, grid=0)


def test_extension_feasibility_rejects_an_n_that_conflicts_with_the_bundle():
    bundle = build_counterexample(2, (1, 2, 3, 4, 5, 6), (0, 7), samples=800)
    with pytest.raises(ValueError, match="conflicts with the bundle's order 2"):
        extension_feasibility(bundle, 3.5, grid=10, samples=5, n=3)
    # no n, or the bundle's own order, is the same call
    plain = extension_feasibility(bundle, 3.5, grid=10, samples=5)
    assert extension_feasibility(bundle, 3.5, grid=10, samples=5, n=2) == plain


def test_extension_feasibility_rejects_a_y_range_that_overflows():
    # the padded range of the values spans more than the largest double,
    # so linspace would step by inf; a range just inside it still runs
    f = FiniteFunction((1.0, 2.0, 3.0, 4.0), (-8e307, -1e307, 1e307, 8e307))
    with pytest.raises(ValueError, match="overflows a double"):
        extension_feasibility(f, 1.5, n=1, grid=50)
    f = FiniteFunction((1.0, 2.0, 3.0, 4.0), (-1e307, -1e306, 1e306, 1e307))
    assert extension_feasibility(f, 1.5, n=1, grid=50).feasible_intervals == [
        (-1.0000000000000001e307, -1.4285714285714284e306)
    ]


@pytest.mark.parametrize("samples", [0, -5])
def test_extension_feasibility_rejects_samples_below_one(samples):
    bundle = build_counterexample(2, (1, 2, 3, 4, 5, 6), (0, 7), samples=800)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        extension_feasibility(bundle, 3.5, samples=samples)


def test_affine_rigidity_flags_cubic_growth():
    pts = (-100.0, -10.0, -2.0, -1.0, 0.0, 1.0, 2.0, 10.0, 100.0)
    f = FiniteFunction.from_pairs([(t, t**3) for t in pts])
    rep = affine_rigidity_check(f, (0.0, 1.0, 2.0), m_values=(10.0, -10.0, 100.0, -100.0))
    assert rep.second_dd == pytest.approx(3.0)
    assert rep.weighted_dd == pytest.approx(7.0)
    assert rep.verdict == "violated"
    assert not rep.passed

    by_m = {rec.m: rec for rec in rep.records}
    assert by_m[10.0].constraint_value == pytest.approx(-23.0)  # 7 - 10*3
    assert by_m[10.0].violated
    assert by_m[-10.0].constraint_value == pytest.approx(37.0)
    assert not by_m[-10.0].violated
    assert by_m[100.0].bound == pytest.approx(0.07)
    assert by_m[10.0].bound == pytest.approx(0.7)
    # the admissible window shrinks like 1/|M|
    assert rep.fit_exponent == pytest.approx(-1.0, abs=1e-9)


def test_affine_rigidity_accepts_affine_data():
    f = FiniteFunction.from_pairs([(t, 2 * t + 5) for t in (-3.0, -1.0, 0.5, 2.0, 4.0)])
    rep = affine_rigidity_check(f, (-1.0, 0.5, 2.0), m_values=(-3.0, 4.0))
    assert rep.verdict == "affine-consistent"
    assert rep.passed
    assert rep.second_dd == pytest.approx(0.0, abs=1e-12)
    assert all(not rec.violated for rec in rep.records)
    assert all(rec.constraint_value == pytest.approx(2.0) for rec in rep.records)


def test_affine_rigidity_input_validation():
    f = FiniteFunction.from_pairs([(t, t**3) for t in (-2.0, 0.0, 1.0, 2.0, 10.0)])
    with pytest.raises(ValueError, match="not in the finite set"):
        affine_rigidity_check(f, (0.0, 1.0, 3.0))
    with pytest.raises(ValueError, match="M value"):
        affine_rigidity_check(f, (0.0, 1.0, 2.0), m_values=(50.0,))

    one_sided = FiniteFunction.from_pairs([(t, t**3) for t in (0.0, 1.0, 2.0, 3.0, 4.0)])
    with pytest.raises(ValueError, match="insufficient spread"):
        affine_rigidity_check(one_sided, (0.0, 1.0, 2.0))


# ---------------------------------------------------------------------------
# Batched level sweeps: frozen reports, batch-size independence, replay

def _square(points) -> FiniteFunction:
    return FiniteFunction.from_pairs([(t, t * t) for t in points])


def _genset_cases() -> dict:
    """(finite function, n, samples) per case, all run at seed 4."""
    recip = catalog_model("-1/x")
    return {
        # all-k; level 1 fails at its fourth row (q = 1 draws nothing at k = 1)
        "pathological": (
            FiniteFunction.from_pairs([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0)]), 2, 10_000
        ),
        "square-sampled": (_square([0.1 * k for k in range(1, 17)]), 2, 1000),
        "recip-exhaustive": (FiniteFunction.from_model(recip, [0.5 + 0.35 * k for k in range(8)]), 2, 600),
        # k=n with auxiliary levels: exhaustive k=3 and k=1, sampled k=2
        "recip-mixed": (FiniteFunction.from_model(recip, [0.5 + 0.3 * k for k in range(7)]), 3, 30),
        # a level failing mid-batch, then a level that draws q from the same
        # generator: all-k, and k=n with auxiliary levels
        "square-all-k": (_square([0.2, 0.5, 0.9, 1.4, 2.0, 2.7]), 3, 500),
        "square-aux": (_square([0.2, 0.5, 0.9, 1.4, 2.0, 2.7, 3.5]), 3, 500),
    }


def _genset_reports() -> dict:
    return {
        name: genset_check(f, n, samples=samples, seed=4)
        for name, (f, n, samples) in _genset_cases().items()
    }


# (k, passed, configs, worst_value.hex()) of every level, levels then
# auxiliary levels, with each level's q drawn as arrays by _level_q
GENSET_FROZEN = {
    "pathological": [(1, False, 4, "-0x1.fffffff768fa1p-1"), (2, True, 10000, "0x1.12e0be826d695p-30")],
    "square-sampled": [(2, False, 2, "-0x1.755f2fa3022c1p-2")],
    "recip-exhaustive": [(2, True, 560, "0x1.2990664b5fa0ap-12")],
    "recip-mixed": [
        (3, True, 28, "0x1.40cfcf50871d0p-7"),
        (1, True, 21, "0x1.bd37a7173ab35p-3"),
        (2, True, 30, "0x1.97602ca7c08a1p-8"),
    ],
    "square-all-k": [
        (1, True, 495, "0x1.6666666efd6c5p-1"),
        (2, False, 6, "-0x1.03695399a5998p-6"),
        (3, False, 47, "-0x1.916758480508ap-4"),
    ],
    "square-aux": [
        (3, False, 167, "-0x1.67f7978f72365p-6"),
        (1, True, 483, "0x1.6666666efd6c5p-1"),
        (2, False, 71, "-0x1.3a8bb94ec92f1p-2"),
    ],
}


def test_genset_reports_match_frozen_values():
    for name, rep in _genset_reports().items():
        got = [(r.k, r.passed, r.configs, r.worst_value.hex()) for r in rep.levels + rep.auxiliary_levels]
        assert got == GENSET_FROZEN[name], name
    notes = {r.k: r.note for r in _genset_reports()["recip-mixed"].auxiliary_levels}
    assert notes[1].startswith("all 21 subsets")
    assert notes[2].startswith("sampled from 35 subsets")


def test_genset_reports_do_not_depend_on_batch_size(monkeypatch):
    """One-row batches never draw past a failing row, so equal reports
    show that a batch failing mid-way leaves the shared generator where
    the row-by-row sweep leaves it."""
    from matmono import divdiff

    batched = {name: rep.to_jsonable() for name, rep in _genset_reports().items()}
    monkeypatch.setattr(divdiff, "SWEEP_BATCH", 1)
    assert {name: rep.to_jsonable() for name, rep in _genset_reports().items()} == batched


@pytest.mark.parametrize("chunk", [1, 5])
def test_genset_reports_do_not_depend_on_level_chunk(monkeypatch, chunk):
    """Rows are independent and a level draws all of its q before the
    first chunk, so chunks that split a failing level change nothing."""
    from matmono import gensets

    whole = {name: rep.to_jsonable() for name, rep in _genset_reports().items()}
    monkeypatch.setattr(gensets, "_LEVEL_CHUNK", chunk)
    assert {name: rep.to_jsonable() for name, rep in _genset_reports().items()} == whole


def test_failing_genset_witness_replays_exactly():
    failing = [
        rec
        for rep in _genset_reports().values()
        for rec in rep.levels + rep.auxiliary_levels
        if not rec.passed
    ]
    assert len(failing) == 6
    for rec in failing:
        replay = re_evaluate_genset_witness(rec.witness)
        assert replay["confirmed"]
        assert replay["value"] == rec.witness["value"]
        assert replay["threshold"] == rec.witness["threshold"]
        assert rec.worst_value == rec.witness["value"] + rec.witness["threshold"]


# (points m, k, samples) of level shapes: exhaustive (comb(m, 2k) <= samples)
# and sampled, at k = 1, 2, 3
LEVEL_SHAPES = [(6, 1, 40), (16, 1, 100), (7, 2, 100), (16, 2, 500), (7, 3, 30), (12, 3, 400)]


def _level_nodes(m, k, samples, rng):
    points = np.sort(rng.uniform(-2.0, 3.0, size=m))
    subsets, _ = _level_subsets(m, 2 * k, samples, rng)
    return points[subsets], float(points[-1] - points[0])


def _degree(row) -> int:
    return int(np.flatnonzero(row)[-1])


@pytest.mark.parametrize("m, k, samples", LEVEL_SHAPES)
def test_level_q_follows_the_cadence(m, k, samples):
    rng = np.random.default_rng([m, k, samples])
    P, span = _level_nodes(m, k, samples, rng)
    state = rng.bit_generator.state
    Q = _level_q(rng, k, P, span)
    assert Q.shape == (len(P), k)
    if k == 1:
        assert rng.bit_generator.state == state
    assert np.abs(Q).max(axis=1) == pytest.approx(np.ones(len(P)), rel=1e-15)
    for idx, row in enumerate(Q):
        if idx % 4 == 0:
            assert row.tolist() == [1.0] + [0.0] * (k - 1)
        elif k == 1:
            assert row.tolist() == [1.0]
        elif idx % 4 == 1:
            assert _degree(row) == k - 1
        elif idx % 4 == 2:
            assert not row.imag.any()
            assert 1 <= _degree(row) <= k - 1
            if idx % 8 < 4:
                # unshifted roots are nodes of the row's subset
                roots = np.roots(row.real[_degree(row) :: -1])
                gaps = np.abs(roots[:, None] - P[idx][None, :]).min(axis=1)
                assert gaps.max() < 1e-6 * span
        else:
            assert 0 <= _degree(row) <= k - 1


@pytest.mark.parametrize("m, k, samples", LEVEL_SHAPES)
def test_level_q_stream_depends_only_on_the_level_shape(m, k, samples):
    """Nodes move only the kind-2 roots, never the draws."""
    P, span = _level_nodes(m, k, samples, np.random.default_rng(2))
    a, b = np.random.default_rng(8), np.random.default_rng(8)
    Qa, Qb = _level_q(a, k, P, span), _level_q(b, k, P + 1.0, span)
    assert a.bit_generator.state == b.bit_generator.state
    other = np.arange(len(P)) % 4 != 2
    assert Qa[other].tolist() == Qb[other].tolist()


# (sha256 prefix of the coefficient hex, next rng.random() hex) of one
# sampled k = 3 level drawn by _level_q
LEVEL_Q_STREAM_FROZEN = ("f31abaffd9b822db", "0x1.acca59adcdbb2p-1")


def test_level_q_stream_frozen():
    rng = np.random.default_rng(17)
    P, span = _level_nodes(12, 3, 400, rng)
    Q = _level_q(rng, 3, P, span)
    text = "\n".join(" ".join(f"{c.real.hex()},{c.imag.hex()}" for c in row) for row in Q.tolist())
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (digest, rng.random().hex()) == LEVEL_Q_STREAM_FROZEN


def test_counterexample_bundles_and_binding_values_frozen():
    frozen = {
        2: (
            ["-0x1.6db6db6db6db6p-1", "0x1.2492492492494p-3", "0x1.b6db6db6db6dcp-2",
             "0x1.2492492492492p-1", "0x1.b6db6db6db6dbp-1", "0x1.b6db6db6db6dbp+0"],
            3.5, 640, {"r2": "0x1.05397829cbc16p-1", "r1": "0x1.f58d0fac687d6p-2"},
        ),
        3: (
            ["-0x1.c000000000000p+8", "-0x1.5d11111111111p+8", "-0x1.1f00000000000p+8",
             "-0x1.e800000000000p+7", "-0x1.a8aaaaaaaaaabp+7", "-0x1.7800000000000p+7",
             "-0x1.5164d9364d936p+7", "-0x1.3200000000000p+7"],
            4.5, 672, {"r1": "-0x1.c61bed61bed62p+7", "r2": "-0x1.c61bcd081bcd0p+7"},
        ),
    }
    inputs = {2: ((1, 2, 3, 4, 5, 6), (0, 7)), 3: ((1, 2, 3, 4, 5, 6, 7, 8), (-4, -3, -2, -1))}
    for n, (values, x0, constraints, binding) in frozen.items():
        bundle = build_counterexample(n, *inputs[n], samples=800, seed=4)
        assert [v.hex() for v in bundle.finite_function.values] == values
        feas = extension_feasibility(bundle, x0, samples=600, grid=4000, seed=4)
        assert feas.feasible_intervals == []
        assert feas.constraint_count == constraints
        assert {k: v.hex() for k, v in feas.binding.items()} == binding


def _scalar_weighted_dd(pts, vals, q):
    """The product formula one term at a time (reference for the kernel)."""
    total, scale = 0.0, 0.0
    for i, (x, v) in enumerate(zip(pts, vals)):
        denom = 1.0
        for j, xj in enumerate(pts):
            if j != i:
                denom *= x - xj
        term = v * abs(q.eval(x)) ** 2 / denom
        total += term
        scale = max(scale, abs(term))
    return total, scale


def _scalar_linear_constraint(pts, vals, hole, q):
    alpha, beta, scale = 0.0, 0.0, 0.0
    for i, (x, v) in enumerate(zip(pts, vals)):
        denom = 1.0
        for j, xj in enumerate(pts):
            if j != i:
                denom *= x - xj
        w = abs(q.eval(x)) ** 2 / denom
        if i == hole:
            beta = w
            scale = max(scale, abs(w))
        else:
            alpha += v * w
            scale = max(scale, abs(v * w))
    return alpha, beta, scale


def test_weighted_kernel_matches_scalar_product_formula():
    """Bit for bit, on rows of mixed q degree, real and complex q."""
    from matmono.criteria import _sample_q
    from matmono.gensets import _linear_constraints, _q_rows, _weighted_dd

    rng = np.random.default_rng(21)
    for size in (2, 4, 6):
        P = np.sort(rng.uniform(-3.0, 5.0, size=(1500, size)), axis=1)
        V = rng.normal(size=(1500, size)) * 10.0 ** rng.uniform(-3, 3, size=(1500, 1))
        holes = rng.integers(0, size, size=1500)
        qs = [
            _sample_q(rng, size // 2 - 1, tuple(P[r]), 8.0, r, bool(r % 2))
            for r in range(1500)
        ]
        value, scale = _weighted_dd(P, V, _q_rows(qs))
        alpha, beta, lscale = _linear_constraints(P, V, holes, _q_rows(qs))
        for r in range(1500):
            pts, vals = P[r].tolist(), V[r].tolist()
            assert (value[r], scale[r]) == _scalar_weighted_dd(pts, vals, qs[r])
            assert (alpha[r], beta[r], lscale[r]) == _scalar_linear_constraint(
                pts, vals, int(holes[r]), qs[r]
            )


def _choice_subsets(m, size, count, rng):
    """The windows, then one sorted rng.choice draw per subset up to count."""
    subsets = [tuple(range(i, i + size)) for i in range(m - size + 1)]
    while len(subsets) < count:
        subsets.append(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
    return subsets


# (m, size, count) of sampled levels: sizes 1-7 (the odd ones are
# extension_feasibility's 2n - 1), from no draw to 2000 subsets
SAMPLED_SHAPES = [
    (7, 1, 1), (16, 2, 15), (16, 2, 100), (7, 3, 30), (9, 3, 50), (16, 3, 559),
    (12, 4, 300), (16, 4, 1819), (16, 6, 12), (11, 5, 400), (13, 5, 1286),
    (14, 6, 2000), (16, 6, 2000), (10, 7, 100), (15, 7, 1000), (16, 7, 2000),
]


@pytest.mark.parametrize("seed", range(10))
def test_index_subsets_reproduce_choice_draws(seed):
    """The subsets, the generator state after them and the next draws are
    those of one rng.choice call per subset."""
    for m, size, count in SAMPLED_SHAPES:
        assert math.comb(m, size) > count
        ref, got = np.random.default_rng([seed, m, size]), np.random.default_rng([seed, m, size])
        assert list(map(tuple, _index_subsets(m, size, count, got).tolist())) == _choice_subsets(m, size, count, ref)
        assert got.bit_generator.state == ref.bit_generator.state
        assert got.integers(0, 1000, size=3).tolist() == ref.integers(0, 1000, size=3).tolist()
        assert got.normal() == ref.normal()


def test_exhaustive_index_subsets_leave_the_generator_untouched():
    for m, size, count in ((7, 3, 35), (8, 3, 56), (12, 4, 2000), (7, 1, 7)):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        subsets = list(map(tuple, _index_subsets(m, size, count, rng).tolist()))
        assert subsets == list(itertools.combinations(range(m), size))
        assert rng.bit_generator.state == state
