"""The operator order made concrete: matrix pairs and sampled oracles.

Monotonicity and convexity in the operator order quantify over all
Hermitian matrices with spectra in an interval.  This module builds
test pairs (interlacing pairs differing by a rank-one bump, random
pairs joined by rank-one chains), applies scalar functions through the
spectral calculus, and searches for order violations.  The sampled
searches are one-sided: a failure carries a concrete witness pair, a
pass only says no violation was found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divdiff import (
    CriterionRecord,
    check_interval,
    check_tol,
    end_margin,
    sample_distinct_tuple,
    sweep_batches,
)

HERMITIAN_TOL = 1e-13
ORACLE_NOTE = "sampled matrix pairs; a pass is not a proof"


def _as_matrix(H) -> np.ndarray:
    H = np.asarray(H)
    if H.ndim < 2 or H.shape[-2] != H.shape[-1]:
        raise ValueError("expected a square matrix")
    return H


def _adjoint(H: np.ndarray) -> np.ndarray:
    """H* of a matrix, or of each matrix of a stack (..., n, n)."""
    return np.swapaxes(H.conj(), -1, -2)


def check_hermitian(H) -> np.ndarray:
    """Validate Hermitian symmetry (to HERMITIAN_TOL) and return the
    symmetrized matrix; a stack (..., n, n) is checked matrix by matrix."""
    H = _as_matrix(H)
    Ht = _adjoint(H)
    if np.any(np.abs(H - Ht).max(axis=(-2, -1)) > HERMITIAN_TOL * psd_scale(H)):
        raise ValueError("matrix is not Hermitian")
    return 0.5 * (H + Ht)


def eigh(H):
    """Eigenvalues (ascending) and unitary Q with H = Q diag(w) Q*, of a
    matrix or of each matrix of a stack."""
    w, Q = np.linalg.eigh(check_hermitian(H))
    return w, Q


def min_eigenvalue(H) -> float:
    return float(np.linalg.eigvalsh(_as_matrix(H))[0])


def psd_scale(*mats):
    """max(1, max |entry|) over the matrices: the scale of every PSD
    threshold.  Stacks (..., n, n) give one scale per matrix; np.fmax
    keeps max's max(1.0, nan) = 1.0."""
    scale = 1.0
    for M in mats:
        scale = np.fmax(scale, np.abs(M).max(axis=(-2, -1)))
    return float(scale) if np.ndim(scale) == 0 else scale


def _compose(Q: np.ndarray, x) -> np.ndarray:
    """Q diag(x) Q*, symmetrized, for a matrix or a stack and its rows x."""
    H = (Q * x[..., None, :]) @ _adjoint(Q)
    return 0.5 * (H + _adjoint(H))


def matrix_function(f, H) -> np.ndarray:
    """The FunctionModel f applied through the spectral decomposition of
    Hermitian H, or of each matrix of a stack (..., n, n): f runs once,
    on every eigenvalue (domain-checked)."""
    w, Q = eigh(H)
    # a constant f evaluates to a scalar
    return _compose(Q, np.broadcast_to(f.eval(w), w.shape))


def _gaussian(rng: np.random.Generator, shape, complex_field: bool) -> np.ndarray:
    G = rng.normal(size=shape)
    return G + 1j * rng.normal(size=shape) if complex_field else G


def _haar(G: np.ndarray) -> np.ndarray:
    """The Haar-distributed unitary of Gaussian G (or of each of a stack):
    its QR factor Q with the phases of R's diagonal divided out."""
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))[..., None, :]


def _spectrum_matrices(spectra: list, bases: list) -> list:
    """Hermitian matrices with prescribed spectra in Haar-random bases:
    each spectrum composed with the Haar unitary of its Gaussian basis,
    one QR per dtype stack."""
    return _by_stack(lambda G, lam: _compose(_haar(G), lam), bases, spectra)


class _NotFinite(ValueError):
    """Stands for a matrix or configuration that is not finite until the
    oracle's scan reaches it and names its trial."""


def _by_stack(fn, first: list, *rest: list) -> list:
    """fn over stacks, its output rows put back in the order of first.
    Rows are grouped by the dtype of first's matrices (real and complex
    never share a stack: promoting a real matrix to complex changes
    bits); each group's rows of first and of every list in rest are
    stacked, and fn runs once per group."""
    groups: dict = {}
    for r, M in enumerate(first):
        groups.setdefault(M.dtype, []).append(r)
    out: list = [None] * len(first)
    for rows in groups.values():
        stacks = [np.array([col[r] for r in rows]) for col in (first, *rest)]
        for r, value in zip(rows, fn(*stacks)):
            out[r] = value
    return out


def _finite(stack: np.ndarray) -> np.ndarray:
    return np.isfinite(stack).all(axis=(-2, -1))


@dataclass(frozen=True, eq=False)
class ProjectionPair:
    """Pair A <= B with interlacing spectra, differing by a rank-one bump.

    For ascending targets x_1 < ... < x_{2n}: A has spectrum
    (x_1, x_3, ...), B = diag(x_2, x_4, ...), and B - A = vv^T.
    """

    matrix_a: np.ndarray
    matrix_b: np.ndarray
    vector: np.ndarray
    targets: tuple[float, ...]


def _pair_deviation(A, B, v, targets) -> tuple:
    """(deviation, 1e-8 * scale) of a pair, or of each of stacks of pairs
    (..., n, n), (..., n), (..., 2n): the largest of |B - A - vv*| and of
    the distances of A's and B's spectra to their targets."""
    err = np.abs(B - A - v[..., :, None] * v.conj()[..., None, :]).max(axis=(-2, -1))
    for M, x in ((A, targets[..., 0::2]), (B, targets[..., 1::2])):
        dist = np.abs(np.linalg.eigvalsh(M) - x).max(axis=-1)
        err = np.where(dist > err, dist, err)  # max(err, dist)
    return err, 1e-8 * np.fmax(1.0, np.abs(targets).max(axis=-1))


def _projection_pairs(T: np.ndarray) -> list:
    """Interlacing pairs with prescribed spectra, one per row of 2n
    ascending targets in T (rows, 2n), built as stacks.

    B = diag(x_2, x_4, ...) and A = B - vv^T, where
        v_k^2 = prod_j (b_k - a_j) / prod_{j != k} (b_k - b_j)
    forces det(zI - A) = prod_j (z - a_j); interlacing makes every
    v_k^2 positive.  Per row a ProjectionPair, or a ValueError when the
    targets do not ascend strictly or interlace, or _NotFinite where the
    matrices overflow."""
    out: list = [ValueError("targets must be strictly increasing")] * len(T)
    rows = np.flatnonzero((T[:, 1:] > T[:, :-1]).all(axis=1))
    a, b = T[rows, 0::2], T[rows, 1::2]
    n = a.shape[1]
    v2 = np.empty_like(a)
    for k in range(n):
        # np.prod's order: one factor after the other
        num, den = b[:, k] - a[:, 0], 1.0
        for j in range(1, n):
            num = num * (b[:, k] - a[:, j])
        for j in range(n):
            if j != k:
                den = den * (b[:, k] - b[:, j])
        v2[:, k] = num / den
    interlaced = ~(v2 <= 0).any(axis=1)
    for r in rows[~interlaced].tolist():
        out[r] = ValueError("targets do not interlace")
    rows, b, v = rows[interlaced], b[interlaced], np.sqrt(v2[interlaced])
    B = np.zeros(b.shape + (n,))
    B[:, range(n), range(n)] = b
    A = B - v[:, :, None] * v[:, None, :]
    finite = _finite(A)
    for r in rows[~finite].tolist():
        out[r] = _NotFinite("a projection pair is not finite")
    rows, A, B, v = rows[finite], A[finite], B[finite], v[finite]
    err, bound = _pair_deviation(A, B, v, T[rows])
    for k, r in enumerate(rows.tolist()):
        if err[k] > bound[k]:
            out[r] = ValueError(f"projection pair deviates by {err[k]:.3e}")
        else:
            out[r] = ProjectionPair(A[k], B[k], v[k], tuple(T[r].tolist()))
    return out


def _rank_one_chains(A: np.ndarray, B: np.ndarray) -> list:
    """Chains A = M_0 <= M_1 <= ... <= M_k = B with rank-one PSD steps,
    one per pair of the stacks A, B (rows, n, n); the Hermitian checks
    and the eigendecomposition of B - A run as stacks.

    The eigen-directions of B - A whose eigenvalue is at most
    1e-12 * max(1, largest eigenvalue) (so an absolute 1e-12 when that
    is below 1) are folded into the final step, which lands exactly on B.
    Per pair, its chain, a ValueError when B - A is not PSD, or
    _NotFinite where B - A is not finite."""
    A, B = check_hermitian(A), check_hermitian(B)
    D = B - A
    out: list = [_NotFinite("a matrix pair is not finite")] * len(D)
    rows = np.flatnonzero(_finite(A) & _finite(B) & _finite(D)).tolist()
    w, Q = np.linalg.eigh(D[rows])
    floor = -1e-9 * psd_scale(D[rows])
    for k, r in enumerate(rows):
        if float(w[k, 0]) < floor[k]:
            out[r] = ValueError("B - A is not positive semidefinite")
            continue
        top = max(float(w[k, -1]), 0.0)
        kept = [i for i in range(w.shape[1]) if float(w[k, i]) > 1e-12 * max(1.0, top)]
        M = A[r]
        chain = [M]
        for i in kept[:-1]:
            M = M + float(w[k, i]) * np.outer(Q[k, :, i], Q[k, :, i].conj())
            M = 0.5 * (M + M.conj().T)
            chain.append(M)
        chain.append(B[r])
        out[r] = chain
    return out


def matrix_to_jsonable(H) -> dict:
    H = np.asarray(H)
    out = {"real": np.real(H).tolist()}
    if np.iscomplexobj(H) and float(np.abs(np.imag(H)).max()) > 0.0:
        out["imag"] = np.imag(H).tolist()
    return out


def matrix_from_jsonable(data: dict) -> np.ndarray:
    H = np.array(data["real"], dtype=float)
    if "imag" in data:
        H = H + 1j * np.array(data["imag"], dtype=float)
    return H


def oracle_defect(FA, FB, FM=None, t=1.0) -> tuple:
    """(defect, scale) of an oracle configuration: f(B) - f(A) for a
    matrix pair A <= B, or t f(A) + (1 - t) f(B) - f(M) for a Jensen
    configuration with FM = f(tA + (1 - t)B).  A defect eigenvalue below
    -tol * scale is a violation; scale is psd_scale of every f-value.
    Stacks of configurations take t as a (rows, 1, 1) array."""
    if FM is None:
        return FB - FA, psd_scale(FA, FB)
    return t * FA + (1.0 - t) * FB - FM, psd_scale(FA, FB, FM)


def _matrix_functions(f, stack: np.ndarray) -> list:
    """matrix_function(f, M) of each matrix of a stack, in one call.  A
    matrix that is not finite is left out and gives _NotFinite; if the
    call raises, the matrices are redone one by one, so each gets its own
    f-value or the ValueError it raises."""
    out: list = [_NotFinite("a matrix is not finite")] * len(stack)
    rows = np.flatnonzero(_finite(stack)).tolist()
    try:
        values = list(matrix_function(f, stack[rows]))
    except ValueError:
        values = []
        for r in rows:
            try:
                values.append(matrix_function(f, stack[r]))
            except ValueError as exc:
                values.append(exc)
    for r, F in zip(rows, values):
        out[r] = F
    return out


def _defect_rows(FA, FB, FM=None, t=None) -> list:
    """(defect, scale) of each configuration of stacks of f-values (t a
    1-D array of weights for Jensen ones), or _NotFinite where an f-value
    or the defect is not finite."""
    if FM is None:
        defect, scale = oracle_defect(FA, FB)
        finite = _finite(FA) & _finite(FB) & _finite(defect)
    else:
        defect, scale = oracle_defect(FA, FB, FM, t[:, None, None])
        finite = _finite(FA) & _finite(FB) & _finite(FM) & _finite(defect)
    return [(D, sc) if ok else _NotFinite("an f-value or the defect is not finite")
            for D, sc, ok in zip(defect, scale.tolist(), finite.tolist())]


def _defects(configs: list) -> list:
    """Rows (A, B, t, defect, scale) of configurations (A, B, f(A), f(B),
    f(M) or None, t), with the defects and scales computed as stacks (t
    is None for a matrix pair).  A configuration that is a ValueError, or
    whose f-values hold one, gives the first; one whose f-values or
    defect are not finite gives _NotFinite."""
    out, good = [], []
    for c in configs:
        error = c if isinstance(c, ValueError) else next(
            (F for F in c[2:5] if isinstance(F, ValueError)), None)
        if error is None:
            good.append(len(out))
        out.append(error)
    picked = [configs[r] for r in good]
    # f(A), f(B), and f(M) and t for Jensen configurations
    fields = (2, 3) if picked and picked[0][4] is None else (2, 3, 4, 5)
    columns = [[c[k] for c in picked] for k in fields]
    for r, c, row in zip(good, picked, _by_stack(_defect_rows, *columns)):
        out[r] = row if isinstance(row, ValueError) else (c[0], c[1], c[5], *row)
    return out


def _search(kind: str, trials: int, seed: int, tol: float, draw, evaluate) -> CriterionRecord:
    """The oracle loop.  Trials are drawn in order, draw(rng, idx) each,
    in batches of 1, 2, 4, ..., SWEEP_BATCH (divdiff.sweep_batches).
    evaluate(indices, drawn) computes every matrix of a batch as stacks
    and returns, per trial, its configurations in order: (A, B, f(A),
    f(B), f(M) or None, t), or the ValueError one raises instead.  The
    defects and scales run as stacks too; then the scan checks each
    configuration with one min_eigenvalue call and stops at the first
    defect eigenvalue below -tol * scale, so an error later in its batch
    is never raised, as in a search that draws one trial at a time.  A
    configuration whose matrices, f-values or defect are not finite
    raises a ValueError naming its trial.  Returns the "matrix-oracle"
    record, whose worst_value is the most negative defect eigenvalue over
    its scale."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_tol(tol)
    rng = np.random.default_rng(seed)
    worst, witness, checked = math.inf, None, 0
    for indices in sweep_batches(trials):
        drawn, failure = [], None
        for idx in indices:
            try:
                drawn.append(draw(rng, idx))
            except ValueError as exc:
                failure = exc
                break
        # overflow shows as a non-finite configuration, named at its trial
        with np.errstate(over="ignore", invalid="ignore"):
            configs = evaluate(indices[: len(drawn)], drawn)
            rows = _defects([c for trial in configs for c in trial])
        trial_of = [idx for idx, trial in zip(indices, configs) for _ in trial]
        for idx, row in zip(trial_of, rows):
            if isinstance(row, _NotFinite):
                raise ValueError(f"matrix oracle trial {idx}: {row}")
            if isinstance(row, ValueError):
                raise row
            A, B, t, defect, scale = row
            checked += 1
            lam_min = min_eigenvalue(defect)
            if lam_min / scale < worst:
                worst = lam_min / scale
                witness = {"kind": kind, "matrix_a": matrix_to_jsonable(A),
                           "matrix_b": matrix_to_jsonable(B),
                           **({} if t is None else {"weight": t}),
                           "min_eigenvalue": lam_min, "threshold": tol * scale}
            if lam_min < -tol * scale:
                return CriterionRecord("matrix-oracle", False, checked, worst, witness, ORACLE_NOTE)
        if failure is not None:
            raise failure
    return CriterionRecord("matrix-oracle", True, checked, worst, witness, ORACLE_NOTE)


def monotonicity_oracle(
    f,
    n: int,
    interval: tuple[float, float],
    trials: int = 400,
    seed: int = 0,
    tol: float = 1e-9,
) -> CriterionRecord:
    """Sampled search for an order violation of f at matrix size n.

    Alternates interlacing projection pairs with random pairs joined by
    rank-one chains; every consecutive pair M <= M' must satisfy
    f(M) <= f(M').  worst_value is the most negative defect eigenvalue
    seen, normalized by the defect's entry scale.
    """
    lo, hi = check_interval(interval)
    span = hi - lo
    margin = end_margin(lo, hi)

    def draw(rng, idx):
        if idx % 2 == 0:
            return sample_distinct_tuple(rng, 2 * n, interval, idx)
        lam = sample_distinct_tuple(rng, n, (lo, lo + 0.7 * span), idx)
        complex_field = bool(rng.integers(0, 2))
        basis = _gaussian(rng, (n, n), complex_field)
        G = _gaussian(rng, (n, n), complex_field)
        D = G @ G.conj().T
        D = 0.5 * (D + D.conj().T)
        # the norm decides whether the uniform draw is made
        norm = float(np.linalg.eigvalsh(D)[-1])
        headroom = (hi - margin) - float(lam[-1])
        if norm > 0.0:
            D *= headroom * float(rng.uniform(0.1, 1.0)) / norm
        return lam, basis, D

    def evaluate(indices, drawn):
        # per trial: its chain of matrices, or the error building it raises
        chains: list = [None] * len(drawn)
        pairs = [b for b, idx in enumerate(indices) if idx % 2 == 0]
        if pairs:
            made = _projection_pairs(np.array([drawn[b] for b in pairs]))
            for b, pair in zip(pairs, made):
                chains[b] = pair if isinstance(pair, ValueError) else [pair.matrix_a, pair.matrix_b]
        odd = [b for b, idx in enumerate(indices) if idx % 2 == 1]
        A = _spectrum_matrices([drawn[b][0] for b in odd], [drawn[b][1] for b in odd])
        made = _by_stack(lambda A, D: _rank_one_chains(A, A + D), A, [drawn[b][2] for b in odd])
        for b, chain in zip(odd, made):
            chains[b] = chain
        mats = [M for chain in chains if isinstance(chain, list) for M in chain]
        values = iter(_by_stack(lambda stack: _matrix_functions(f, stack), mats))
        configs = []
        for chain in chains:
            if isinstance(chain, ValueError):
                configs.append([chain])
                continue
            F = [next(values) for _ in chain]
            configs.append([(Ma, Mb, Fa, Fb, None, None)
                            for Ma, Mb, Fa, Fb in zip(chain, chain[1:], F, F[1:])])
        return configs

    return _search("matrix-pair", trials, seed, tol, draw, evaluate)


def convexity_oracle(
    f,
    n: int,
    interval: tuple[float, float],
    trials: int = 400,
    seed: int = 0,
    tol: float = 1e-9,
) -> CriterionRecord:
    """Sampled search for a Jensen violation of f at matrix size n.

    Three probe families: symmetric rank-one bumps X +- s vv* around a
    common center (the sharpest local probe), independent random pairs
    at t = 1/2, and independent pairs at a uniform weight.
    """
    lo, hi = check_interval(interval)
    span = hi - lo
    margin = end_margin(lo, hi)

    def draw(rng, idx):
        """(spectra, Gaussian bases, t, (s, v) of a bump or None)."""
        complex_field = bool(rng.integers(0, 2))
        if idx % 3 == 0:
            center = (lo + 0.15 * span, hi - 0.15 * span)
            lam = sample_distinct_tuple(rng, n, center, idx)
            basis = _gaussian(rng, (n, n), complex_field)
            v = _gaussian(rng, n, complex_field)
            v = v / np.linalg.norm(v)
            headroom = min(float(lam[0]) - lo - margin, hi - margin - float(lam[-1]))
            s = headroom * float(rng.uniform(0.1, 1.0))
            return [lam], [basis], 0.5, (s, v)
        # both spectra are drawn before both bases
        lams = [sample_distinct_tuple(rng, n, interval, 2 * idx),
                sample_distinct_tuple(rng, n, interval, 2 * idx + 1)]
        bases = [_gaussian(rng, (n, n), complex_field) for _ in lams]
        t = 0.5 if idx % 3 == 1 else float(rng.uniform(0.05, 0.95))
        return lams, bases, t, None

    def evaluate(indices, drawn):
        made = iter(_spectrum_matrices([lam for d in drawn for lam in d[0]],
                                       [basis for d in drawn for basis in d[1]]))
        A, B = [], []
        for _, _, _, bump in drawn:
            X = next(made)
            if bump is None:
                A.append(X)
                B.append(next(made))
            else:
                s, v = bump
                rank_one = s * np.outer(v, v.conj())
                A.append(X + rank_one)
                B.append(X - rank_one)
        t = [d[2] for d in drawn]
        M = _by_stack(lambda A, B, t: t[:, None, None] * A + (1.0 - t[:, None, None]) * B, A, B, t)
        F = _by_stack(lambda stack: _matrix_functions(f, stack), A + B + M)
        k = len(drawn)
        return [[(A[r], B[r], F[r], F[k + r], F[2 * k + r], t[r])] for r in range(k)]

    return _search("jensen", trials, seed, tol, draw, evaluate)
