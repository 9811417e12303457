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

from .divdiff import MARGIN_FRACTION, CriterionRecord, sample_distinct_tuple

HERMITIAN_TOL = 1e-13
ORACLE_NOTE = "sampled matrix pairs; a pass is not a proof"


def _as_matrix(H) -> np.ndarray:
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    return H


def check_hermitian(H) -> np.ndarray:
    """Validate Hermitian symmetry (to HERMITIAN_TOL) and return the symmetrized matrix."""
    H = _as_matrix(H)
    if float(np.abs(H - H.conj().T).max()) > HERMITIAN_TOL * psd_scale(H):
        raise ValueError("matrix is not Hermitian")
    return 0.5 * (H + H.conj().T)


def eigh(H):
    """Eigenvalues (ascending) and unitary Q with H = Q diag(w) Q*."""
    w, Q = np.linalg.eigh(check_hermitian(H))
    return w, Q


def min_eigenvalue(H) -> float:
    return float(np.linalg.eigvalsh(_as_matrix(H))[0])


def psd_scale(*mats) -> float:
    """max(1, max |entry|) over the matrices: the scale of every PSD threshold."""
    return max(1.0, *(float(np.abs(M).max()) for M in mats))


def is_psd(H, tol: float = 1e-9) -> bool:
    """Positive semidefinite up to -tol * psd_scale(H)."""
    H = check_hermitian(H)
    return min_eigenvalue(H) >= -tol * psd_scale(H)


def matrix_function(f, H) -> np.ndarray:
    """The FunctionModel f applied through the spectral decomposition of
    Hermitian H (eigenvalues are domain-checked)."""
    w, Q = eigh(H)
    F = (Q * f.eval(w)) @ Q.conj().T
    return 0.5 * (F + F.conj().T)


def _gaussian(rng: np.random.Generator, shape, complex_field: bool) -> np.ndarray:
    G = rng.normal(size=shape)
    return G + 1j * rng.normal(size=shape) if complex_field else G


def haar_unitary(rng: np.random.Generator, n: int, complex_field: bool = True) -> np.ndarray:
    G = _gaussian(rng, (n, n), complex_field)
    Q, R = np.linalg.qr(G)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def random_spectrum_matrix(
    rng: np.random.Generator, eigenvalues, complex_field: bool = True
) -> np.ndarray:
    """Hermitian matrix with the given spectrum in a Haar-random basis."""
    lam = np.asarray(eigenvalues, dtype=float)
    Q = haar_unitary(rng, lam.size, complex_field)
    H = (Q * lam) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


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

    def validate(self) -> float:
        """Max deviation from the contract; raises when above 1e-8 * scale."""
        bump = np.outer(self.vector, self.vector.conj())
        err = float(np.abs(self.matrix_b - self.matrix_a - bump).max())
        wa = np.linalg.eigvalsh(self.matrix_a)
        wb = np.linalg.eigvalsh(self.matrix_b)
        err = max(err, float(np.abs(wa - np.array(self.targets[0::2])).max()))
        err = max(err, float(np.abs(wb - np.array(self.targets[1::2])).max()))
        scale = max(1.0, max(abs(t) for t in self.targets))
        if err > 1e-8 * scale:
            raise ValueError(f"projection pair deviates by {err:.3e}")
        return err


def make_projection_pair(targets) -> ProjectionPair:
    """Interlacing pair with prescribed spectra from 2n ascending targets.

    B = diag(x_2, x_4, ...) and A = B - vv^T, where
        v_k^2 = prod_j (b_k - a_j) / prod_{j != k} (b_k - b_j)
    forces det(zI - A) = prod_j (z - a_j); interlacing makes every
    v_k^2 positive.
    """
    t = tuple(float(v) for v in targets)
    if len(t) < 2 or len(t) % 2 != 0:
        raise ValueError("need an even number of targets, at least two")
    if any(not u < v for u, v in zip(t, t[1:])):
        raise ValueError("targets must be strictly increasing")
    a = np.array(t[0::2])
    b = np.array(t[1::2])
    n = a.size
    v2 = np.empty(n)
    for k in range(n):
        num = float(np.prod(b[k] - a))
        den = float(np.prod(np.delete(b[k] - b, k))) if n > 1 else 1.0
        v2[k] = num / den
    if np.any(v2 <= 0):
        raise ValueError("targets do not interlace")
    v = np.sqrt(v2)
    B = np.diag(b).astype(float)
    A = B - np.outer(v, v)
    pair = ProjectionPair(A, B, v, t)
    pair.validate()
    return pair


def rank_one_chain(A, B) -> list[np.ndarray]:
    """Matrices A = M_0 <= M_1 <= ... <= M_k = B with rank-one PSD steps.

    Eigen-directions of B - A below 1e-12 of its largest eigenvalue
    are folded into the final step, which lands exactly on B.
    """
    A = check_hermitian(A)
    B = check_hermitian(B)
    D = B - A
    w, Q = np.linalg.eigh(D)
    top = max(float(w[-1]), 0.0)
    if float(w[0]) < -1e-9 * psd_scale(D):
        raise ValueError("B - A is not positive semidefinite")
    kept = [i for i in range(w.size) if float(w[i]) > 1e-12 * max(1.0, top)]
    chain = [A]
    M = A
    for i in kept[:-1]:
        M = M + float(w[i]) * np.outer(Q[:, i], Q[:, i].conj())
        M = 0.5 * (M + M.conj().T)
        chain.append(M)
    chain.append(B)
    return chain


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


def oracle_defect(FA, FB, FM=None, t: float = 1.0) -> tuple[np.ndarray, float]:
    """(defect, scale) of an oracle configuration: f(B) - f(A) for a
    matrix pair A <= B, or t f(A) + (1 - t) f(B) - f(M) for a Jensen
    configuration with FM = f(tA + (1 - t)B).  A defect eigenvalue below
    -tol * scale is a violation; scale is psd_scale of every f-value."""
    if FM is None:
        return FB - FA, psd_scale(FA, FB)
    return t * FA + (1.0 - t) * FB - FM, psd_scale(FA, FB, FM)


def _search(kind: str, trials: int, seed: int, tol: float, draw) -> CriterionRecord:
    """The oracle loop: trial idx checks every configuration draw(rng, idx)
    yields, as (A, B, f(A), f(B), f(M) or None, t), and the search stops at
    the first defect eigenvalue below -tol * scale.  Returns the
    "matrix-oracle" record, whose worst_value is the most negative defect
    eigenvalue over its scale."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst, witness, checked = math.inf, None, 0
    for idx in range(trials):
        for A, B, FA, FB, FM, t in draw(rng, idx):
            checked += 1
            defect, scale = oracle_defect(FA, FB, FM, t)
            lam_min = min_eigenvalue(defect)
            if lam_min / scale < worst:
                worst = lam_min / scale
                witness = {"kind": kind, "matrix_a": matrix_to_jsonable(A),
                           "matrix_b": matrix_to_jsonable(B),
                           **({} if FM is None else {"weight": t}),
                           "min_eigenvalue": lam_min, "threshold": tol * scale}
            if lam_min < -tol * scale:
                return CriterionRecord("matrix-oracle", False, checked, worst, witness, ORACLE_NOTE)
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
    lo, hi = float(interval[0]), float(interval[1])
    span = hi - lo
    margin = MARGIN_FRACTION * span

    def draw(rng, idx):
        if idx % 2 == 0:
            targets = sample_distinct_tuple(rng, 2 * n, interval, idx)
            pair = make_projection_pair(targets.tolist())
            steps = [pair.matrix_a, pair.matrix_b]
        else:
            lam = sample_distinct_tuple(rng, n, (lo, lo + 0.7 * span), idx)
            complex_field = bool(rng.integers(0, 2))
            A = random_spectrum_matrix(rng, lam, complex_field)
            G = _gaussian(rng, (n, n), complex_field)
            D = G @ G.conj().T
            D = 0.5 * (D + D.conj().T)
            norm = float(np.linalg.eigvalsh(D)[-1])
            headroom = (hi - margin) - float(lam[-1])
            if norm > 0.0:
                D *= headroom * float(rng.uniform(0.1, 1.0)) / norm
            steps = rank_one_chain(A, A + D)
        FA = matrix_function(f, steps[0])
        for Ma, Mb in zip(steps, steps[1:]):
            FB = matrix_function(f, Mb)
            yield Ma, Mb, FA, FB, None, 1.0
            FA = FB

    return _search("matrix-pair", trials, seed, tol, draw)


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
    lo, hi = float(interval[0]), float(interval[1])
    span = hi - lo
    margin = MARGIN_FRACTION * span

    def draw(rng, idx):
        complex_field = bool(rng.integers(0, 2))
        if idx % 3 == 0:
            center = (lo + 0.15 * span, hi - 0.15 * span)
            lam = sample_distinct_tuple(rng, n, center, idx)
            X = random_spectrum_matrix(rng, lam, complex_field)
            v = _gaussian(rng, n, complex_field)
            v = v / np.linalg.norm(v)
            headroom = min(float(lam[0]) - lo - margin, hi - margin - float(lam[-1]))
            s = headroom * float(rng.uniform(0.1, 1.0))
            bump = s * np.outer(v, v.conj())
            A = X + bump
            B = X - bump
            t = 0.5
        else:
            lam_a = sample_distinct_tuple(rng, n, interval, 2 * idx)
            lam_b = sample_distinct_tuple(rng, n, interval, 2 * idx + 1)
            A = random_spectrum_matrix(rng, lam_a, complex_field)
            B = random_spectrum_matrix(rng, lam_b, complex_field)
            t = 0.5 if idx % 3 == 1 else float(rng.uniform(0.05, 0.95))
        M = t * A + (1.0 - t) * B
        yield A, B, matrix_function(f, A), matrix_function(f, B), matrix_function(f, M), t

    return _search("jensen", trials, seed, tol, draw)
