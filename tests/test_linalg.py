"""Matrix-order machinery: pairs, chains, spectral calculus, oracles."""

import math

import numpy as np
import pytest

from matmono import (
    FiniteFunction,
    FunctionModel,
    confluent_dd_criterion,
    convexity_oracle,
    dd_criterion,
    eigh,
    genset_check,
    is_psd,
    ktone_check,
    make_projection_pair,
    matrix_function,
    monotonicity_oracle,
    parse,
    rank_one_chain,
)
from matmono.linalg import (
    ProjectionPair,
    check_hermitian,
    haar_unitary,
    matrix_from_jsonable,
    matrix_to_jsonable,
    min_eigenvalue,
    random_spectrum_matrix,
)


def _random_hermitian(rng, n, complex_field=True):
    G = rng.normal(size=(n, n))
    if complex_field:
        G = G + 1j * rng.normal(size=(n, n))
    return 0.5 * (G + G.conj().T)


def test_check_hermitian_symmetrizes_and_rejects():
    H = np.array([[1.0, 2.0 + 1e-15], [2.0, -1.0]])
    S = check_hermitian(H)
    assert np.allclose(S, S.conj().T)
    with pytest.raises(ValueError):
        check_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        check_hermitian(np.ones((2, 3)))


def test_eigh_contract():
    rng = np.random.default_rng(0)
    H = _random_hermitian(rng, 4)
    w, Q = eigh(H)
    assert np.all(np.diff(w) >= 0)
    np.testing.assert_allclose(Q @ Q.conj().T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose((Q * w) @ Q.conj().T, H, atol=1e-12)


def test_is_psd_scale_awareness():
    assert is_psd(np.diag([0.0, 1.0]))
    assert not is_psd(np.diag([-1e-6, 1.0]))
    # a dip of -1e-6 on a 1e6 scale is within the relative tolerance
    assert is_psd(np.diag([-1e-6, 1e6]))
    assert min_eigenvalue(np.diag([3.0, -2.0])) == pytest.approx(-2.0)


def test_matrix_function_agrees_with_powers():
    rng = np.random.default_rng(1)
    H = _random_hermitian(rng, 3)
    model = FunctionModel(parse("x^2"))
    np.testing.assert_allclose(matrix_function(model, H), H @ H, atol=1e-12)


def test_matrix_function_respects_domain():
    from matmono import DomainError

    m = FunctionModel(parse("log(x)"), domain=(0.0, math.inf))
    with pytest.raises(DomainError):
        matrix_function(m, np.diag([-1.0, 2.0]))


def test_haar_unitary_and_prescribed_spectrum():
    rng = np.random.default_rng(2)
    U = haar_unitary(rng, 5)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(5), atol=1e-12)
    lam = np.array([-1.0, 0.25, 2.0])
    H = random_spectrum_matrix(rng, lam)
    np.testing.assert_allclose(np.linalg.eigvalsh(H), lam, atol=1e-12)


def test_projection_pair_frozen_two_by_two():
    pair = make_projection_pair((1.0, 2.0, 3.0, 4.0))
    r = math.sqrt(0.75)
    np.testing.assert_allclose(pair.matrix_b, np.diag([2.0, 4.0]), atol=1e-14)
    np.testing.assert_allclose(
        pair.matrix_a, np.array([[1.5, -r], [-r, 2.5]]), atol=1e-12
    )
    np.testing.assert_allclose(pair.vector**2, [0.5, 1.5], atol=1e-12)
    np.testing.assert_allclose(np.linalg.eigvalsh(pair.matrix_a), [1.0, 3.0], atol=1e-12)
    assert pair.validate() < 1e-12
    # the bump is PSD of rank one
    bump = pair.matrix_b - pair.matrix_a
    w = np.linalg.eigvalsh(bump)
    assert w[0] == pytest.approx(0.0, abs=1e-12) and w[-1] > 0


def test_projection_pair_input_validation():
    with pytest.raises(ValueError):
        make_projection_pair((1.0, 2.0, 3.0))  # odd count
    with pytest.raises(ValueError):
        make_projection_pair((1.0, 1.0))  # not strictly increasing
    bad = ProjectionPair(np.eye(2), 3 * np.eye(2), np.zeros(2), (1.0, 1.5, 2.0, 2.5))
    with pytest.raises(ValueError):
        bad.validate()


def test_projection_pair_larger_interlacing():
    rng = np.random.default_rng(3)
    targets = np.sort(rng.uniform(0.0, 10.0, size=8))
    targets += np.arange(8) * 1e-3  # guard strict ascent
    pair = make_projection_pair(targets.tolist())
    assert pair.validate() < 1e-7


def test_rank_one_chain_steps():
    rng = np.random.default_rng(4)
    A = _random_hermitian(rng, 3)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = A + G @ G.conj().T
    chain = rank_one_chain(A, B)
    assert len(chain) <= 5
    np.testing.assert_allclose(chain[0], A, atol=1e-13)
    np.testing.assert_allclose(chain[-1], B, atol=1e-13)
    for M, N in zip(chain, chain[1:]):
        D = N - M
        w = np.linalg.eigvalsh(D)
        assert w[0] >= -1e-9 * max(1.0, abs(w[-1]))
        assert np.linalg.matrix_rank(D, tol=1e-8 * max(1.0, w[-1])) <= 1
    with pytest.raises(ValueError):
        rank_one_chain(np.eye(2), np.diag([0.0, 2.0]))


def test_jsonable_round_trip():
    rng = np.random.default_rng(5)
    H = _random_hermitian(rng, 3)
    back = matrix_from_jsonable(matrix_to_jsonable(H))
    np.testing.assert_allclose(back, H, atol=0)
    R = np.array([[1.0, 2.0], [2.0, 3.0]])
    data = matrix_to_jsonable(R)
    assert "imag" not in data
    np.testing.assert_allclose(matrix_from_jsonable(data), R, atol=0)


def test_monotonicity_oracle_finds_the_exponential_violation():
    exp = FunctionModel(parse("exp(x)"), name="exp")
    result = monotonicity_oracle(exp, 2, (-1.0, 1.0), trials=400, seed=0)
    assert not result.passed
    assert result.witness is not None and result.witness["kind"] == "matrix-pair"
    A = matrix_from_jsonable(result.witness["matrix_a"])
    B = matrix_from_jsonable(result.witness["matrix_b"])
    defect = matrix_function(exp, B) - matrix_function(exp, A)
    assert min_eigenvalue(defect) == pytest.approx(result.witness["min_eigenvalue"], rel=1e-9)
    assert min_eigenvalue(defect) < -result.witness["threshold"]


def test_monotonicity_oracle_passes_operator_monotone_functions():
    recip = FunctionModel(parse("-1/x"), domain=(0.0, math.inf), name="-1/x")
    result = monotonicity_oracle(recip, 3, (0.5, 4.0), trials=150, seed=1)
    assert result.passed
    assert result.configs >= 150
    assert result.worst_value >= -1e-9


def test_convexity_oracle_both_verdicts():
    cube = FunctionModel(parse("x^3"), domain=(0.0, math.inf), name="x^3")
    bad = convexity_oracle(cube, 2, (0.5, 4.0), trials=400, seed=0)
    assert not bad.passed
    assert bad.witness["kind"] == "jensen"
    t = bad.witness["weight"]
    assert 0.0 < t < 1.0

    square = FunctionModel(parse("x^2"), name="x^2")
    good = convexity_oracle(square, 2, (-2.0, 2.0), trials=150, seed=0)
    assert good.passed and good.worst_value >= -1e-9


def test_oracle_determinism():
    exp = FunctionModel(parse("exp(x)"), name="exp")
    r1 = monotonicity_oracle(exp, 2, (-1.0, 1.0), trials=50, seed=7)
    r2 = monotonicity_oracle(exp, 2, (-1.0, 1.0), trials=50, seed=7)
    assert r1.passed == r2.passed and r1.configs == r2.configs
    assert r1.worst_value == r2.worst_value


_SQUARE = FunctionModel(parse("x^2"), name="x^2")
_CUBE = FunctionModel(parse("x^3"), name="x^3")


@pytest.mark.parametrize("call", [
    lambda: monotonicity_oracle(_SQUARE, 2, (0.5, 4.0), trials=0),
    lambda: convexity_oracle(_CUBE, 2, (0.5, 4.0), trials=0),
    lambda: genset_check(FiniteFunction.from_model(_SQUARE, [1, 2, 3, 4, 5, 6]), 2, samples=0),
    lambda: ktone_check(_CUBE, 2, (-1.0, 1.0), samples=0),
    lambda: dd_criterion(_SQUARE, 2, (0.5, 4.0), "monotone", samples=0),
    lambda: confluent_dd_criterion(_SQUARE, 2, (0.5, 4.0), "monotone", samples=0),
], ids=["monotonicity-oracle", "convexity-oracle", "genset-check", "ktone-check",
        "dd-criterion", "confluent-dd-criterion"])
def test_library_rejects_counts_below_one(call):
    # a sweep of no configurations would report a pass
    with pytest.raises(ValueError, match=">= 1"):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: monotonicity_oracle(_SQUARE, 0, (0.5, 4.0), trials=5), "node count"),
    (lambda: convexity_oracle(_CUBE, 0, (0.5, 4.0), trials=5), "node count"),
    (lambda: monotonicity_oracle(_SQUARE, 2, (4.0, 0.5), trials=5), "lo < hi"),
    (lambda: convexity_oracle(_CUBE, 2, (4.0, 0.5), trials=5), "lo < hi"),
    (lambda: dd_criterion(_SQUARE, 2, (4.0, 0.5), samples=5), "lo < hi"),
    (lambda: ktone_check(_CUBE, 2, (1.0, -1.0), samples=5), "lo < hi"),
], ids=["monotonicity-oracle-n0", "convexity-oracle-n0", "monotonicity-oracle-reversed",
        "convexity-oracle-reversed", "dd-criterion-reversed", "ktone-check-reversed"])
def test_sampled_checks_name_a_bad_order_or_interval(call, match):
    # every draw passes through sample_distinct_tuple, which names the cause
    with pytest.raises(ValueError, match=match):
        call()
