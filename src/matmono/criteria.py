"""Positivity criteria for matrix monotone and matrix convex functions.

Each criterion is an exact characterization of n-monotonicity (or
n-convexity) on an interval, checked here by sampling: divided
differences of f * N(q) over node multisets, PSD sweeps of the Loewner
/ extended Loewner / Kraus matrices, sign sweeps of the (2n-1)-st (or
2n-th) derivative of f * N(q), and PSD sweeps of the Dobsch / Hankel
derivative matrices on a t-grid.  certify() runs the full family plus
the matrix oracle and reports per-criterion verdicts.  ktone_check is
the divided-difference sweep with q = 1.  Every sweep, both oracles and
ktone_check return one record type, divdiff.CriterionRecord.

A failing record carries a concrete witness, re-verified in extended
precision before it is reported.  A passing record only says that no
violation was found at the recorded number of configurations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .divdiff import (
    CriterionRecord,
    NodeMultiset,
    dd_threshold,
    divided_difference,
    divided_difference_scaled,
    divided_differences,
    double_settles,
    sample_distinct_tuple,
    sweep_batches,
)
from .expr import EXTENDED_DIGITS, FunctionModel
from .linalg import (
    convexity_oracle,
    matrix_from_jsonable,
    matrix_function,
    matrix_to_jsonable,
    min_eigenvalue,
    monotonicity_oracle,
    oracle_defect,
    psd_scale,
)
from .polynomial import Poly, n_of

MONOTONE_CRITERIA = (
    "dd-real-q",
    "dd-complex-q",
    "dd-confluent",
    "loewner-psd",
    "extended-loewner-psd",
    "product-derivative",
    "dobsch-psd",
)

CONVEX_CRITERIA = (
    "dd-real-q",
    "dd-complex-q",
    "dd-confluent-anchored",
    "dd-confluent-free",
    "kraus-anchored-psd",
    "kraus-free-psd",
    "product-derivative",
    "hankel-psd",
)


# ---------------------------------------------------------------------------
# Criterion matrices


def _check_distinct(points) -> list[float]:
    pts = [float(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    return pts


# Node lists of the upper triangle, row by row, of the divided-difference
# matrices: entry (i, j) of the matrix is the divided difference of f over
# the (i, j) list.


def _loewner_nodes(points) -> list[tuple]:
    pts = _check_distinct(points)
    n = len(pts)
    return [(pts[i], pts[j]) for i in range(n) for j in range(i, n)]


def _extended_loewner_nodes(points) -> list[tuple]:
    pts = sorted(_check_distinct(points))
    n = len(pts)
    return [tuple(pts[: i + 1]) * 2 + tuple(pts[i + 1 : j + 1]) for i in range(n) for j in range(i, n)]


def _kraus_nodes(points, base) -> list[tuple]:
    pts = _check_distinct(points)
    n = len(pts)
    return [(pts[i], pts[j], float(base)) for i in range(n) for j in range(i, n)]


@functools.cache
def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the upper triangle of an n x n matrix, row by row."""
    return np.triu_indices(n)


def _symmetric(tri: np.ndarray) -> np.ndarray:
    """(..., n(n+1)/2) upper triangles, row by row -> (..., n, n) symmetric."""
    n = (math.isqrt(8 * tri.shape[-1] + 1) - 1) // 2
    iu = _triangle(n)
    out = np.empty(tri.shape[:-1] + (n, n))
    out[..., iu[0], iu[1]] = tri
    out[..., iu[1], iu[0]] = tri
    return out


def _dd_triangles(f: FunctionModel, entries: list[list[tuple]], precision: str):
    """Divided differences over the node lists entries[b][k], and their
    error bounds, as (len(entries), k) arrays.

    "double" evaluates every entry of every matrix in one batch; "auto"
    then recomputes in extended precision each entry whose bound does not
    settle its value (double_settles); "extended" evaluates each entry in
    extended precision.
    """
    if precision not in ("auto", "double", "extended"):
        raise ValueError(f"unsupported precision mode {precision!r}")
    flat = [nodes for row in entries for nodes in row]
    if precision == "extended":
        values = np.array([divided_difference(f, nodes, "extended") for nodes in flat])
        bounds = np.zeros(len(flat))
    else:
        values, _, bounds = divided_differences(f, flat)
        if precision == "auto":
            for k in range(len(flat)):
                if not double_settles(values[k], bounds[k]):
                    values[k], bounds[k] = divided_difference(f, flat[k], "extended"), 0.0
    return values.reshape(len(entries), -1), bounds.reshape(len(entries), -1)


def _dd_matrix(f: FunctionModel, nodes: list[tuple], precision: str) -> np.ndarray:
    values, _ = _dd_triangles(f, [nodes], precision)
    return _symmetric(values[0])


def loewner_matrix(f: FunctionModel, points, precision: str = "auto") -> np.ndarray:
    """Matrix of first divided differences [x_i, x_j]_f (diagonal f')."""
    return _dd_matrix(f, _loewner_nodes(points), precision)


def extended_loewner_matrix(
    f: FunctionModel, points, precision: str = "auto"
) -> np.ndarray:
    """Entry (i, j) is [x_1..x_i, x_1..x_j]_f over ascending points."""
    return _dd_matrix(f, _extended_loewner_nodes(points), precision)


def _jet_hankel(jet: list, offset: int, n: int) -> np.ndarray:
    """n x n matrix with entry (i, j) = jet[i + j + offset]."""
    return np.array([[jet[i + j + offset] for j in range(n)] for i in range(n)], dtype=float)


def dobsch_matrix(f: FunctionModel, t: float, n: int, precision: str = "double") -> np.ndarray:
    """Local monotonicity matrix: entries f^(i+j-1)(t)/(i+j-1)!, i,j = 1..n."""
    return _jet_hankel(f.taylor(float(t), 2 * n, precision), 1, n)


def hankel_convex_matrix(
    f: FunctionModel, t: float, n: int, precision: str = "double"
) -> np.ndarray:
    """Local convexity matrix: entries f^(i+j)(t)/(i+j)!, i,j = 1..n."""
    return _jet_hankel(f.taylor(float(t), 2 * n + 1, precision), 2, n)


def kraus_matrix(
    f: FunctionModel, points, base: float, precision: str = "auto"
) -> np.ndarray:
    """Matrix of second divided differences [x_i, x_j, base]_f.

    base may coincide with a point; repeated nodes become confluent.
    """
    return _dd_matrix(f, _kraus_nodes(points, base), precision)


# ---------------------------------------------------------------------------
# q sampling

_Q_CADENCE_NOTE = "q cadence: 1, Gaussian coefficients, roots near nodes, mixed degree"


def _sample_q(
    rng: np.random.Generator,
    max_degree: int,
    nodes: tuple[float, ...],
    span: float,
    idx: int,
    complex_coeffs: bool,
) -> Poly:
    """One polynomial of degree <= max_degree, max |coefficient| = 1.

    The coefficients are built as a list with the arithmetic of
    Poly.from_roots and Poly.scale, and one Poly is made at the end.
    """
    kind = idx % 4
    if kind == 0 or max_degree == 0:
        return Poly.of(1.0)
    if kind == 2:
        deg = int(rng.integers(1, max_degree + 1))
        # the same draw as rng.choice(nodes), at a fraction of its cost
        roots = [float(nodes[int(rng.integers(0, len(nodes)))]) for _ in range(deg)]
        if idx % 8 >= 4:
            roots = [r + float(rng.normal(scale=0.5 * span)) for r in roots]
        if complex_coeffs:
            roots = [r + 1j * float(rng.normal(scale=0.1 * span)) for r in roots]
        coeffs = [1.0 + 0j]
        for r in roots:
            linear = (complex(-r), 1.0 + 0j)
            product = [0j] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(linear):
                    product[i + j] += a * b
            coeffs = product
    else:
        deg = max_degree if kind == 1 else int(rng.integers(0, max_degree + 1))
        values = rng.normal(size=deg + 1)
        if complex_coeffs:
            values = values + 1j * rng.normal(size=deg + 1)
        coeffs = [complex(c) for c in values.tolist()]
    m = max(abs(c) for c in coeffs)
    if not m > 0:
        return Poly.of(1.0)
    s = 1.0 / m
    return Poly.from_coeffs([s * c for c in coeffs])


def _poly_to_jsonable(q: Poly) -> dict:
    out = {"real": [c.real for c in q.coeffs]}
    if any(c.imag != 0.0 for c in q.coeffs):
        out["imag"] = [c.imag for c in q.coeffs]
    return out


def _poly_from_jsonable(data: dict) -> Poly:
    real = data["real"]
    imag = data.get("imag", [0.0] * len(real))
    return Poly(tuple(complex(a, b) for a, b in zip(real, imag)))


# ---------------------------------------------------------------------------
# Report


@dataclass
class CriterionReport:
    """Full certification report: per-criterion records plus agreement."""

    function: str
    order: int
    mode: str
    interval: tuple[float, float]
    seed: int
    tol: float
    records: list[CriterionRecord]
    conflicts: list[dict]
    verdict: str

    @property
    def consistent(self) -> bool:
        return not self.conflicts

    def record(self, criterion: str) -> CriterionRecord:
        for r in self.records:
            if r.criterion == criterion:
                return r
        raise KeyError(criterion)

    def to_jsonable(self) -> dict:
        return {
            "function": self.function,
            "order": self.order,
            "mode": self.mode,
            "interval": list(self.interval),
            "seed": self.seed,
            "tol": self.tol,
            "criteria": [r.to_jsonable() for r in self.records],
            "agreement": {
                "consistent": self.consistent,
                "conflicts": self.conflicts,
            },
            "verdict": self.verdict,
        }


@dataclass
class CertifyConfig:
    """Knobs for certify(): sample counts, seed, tolerance, grid size."""

    samples: int = 1000
    oracle_trials: int = 400
    seed: int = 0
    tol: float = 1e-9
    grid: int = 257
    include_oracle: bool = True


# ---------------------------------------------------------------------------
# Evaluation, confirmation and witnesses
#
# A configuration is a dict of the witness fields that locate it, with
# the nodes and q as NodeMultiset and Poly.  One evaluator per witness
# kind maps (f, configs, precision, tol) to one row per configuration:
# (value, threshold, bound, criterion matrix or None).  The margin is
# value + threshold; bound limits the error of a double-precision value
# (0 where none is known, and in extended precision).  The sweeps, their
# extended-precision re-check and witness replay all go through these
# evaluators.


def _evaluate_dd(f: FunctionModel, configs: list[dict], precision: str, tol: float) -> list:
    """[nodes]_{f N(q)} against the roundoff floor of its table; in double
    precision one batched table with running error bounds."""
    weights = [n_of(c["q"]) for c in configs]
    if precision == "extended":
        rows = []
        for config, weight in zip(configs, weights):
            value, scale = divided_difference_scaled(f, config["nodes"], "extended", weight)
            rows.append((value, dd_threshold(scale, "extended", tol), 0.0, None))
        return rows
    batch = divided_differences(f, [c["nodes"].flatten() for c in configs], weights)
    return [
        (value, dd_threshold(scale, "double", tol), bound, None)
        for value, scale, bound in zip(*(a.tolist() for a in batch))
    ]


_PSD_NODES = {
    "loewner-psd": lambda c: _loewner_nodes(c["points"]),
    "extended-loewner-psd": lambda c: _extended_loewner_nodes(c["points"]),
    "kraus-anchored-psd": lambda c: _kraus_nodes(c["points"], c["base"]),
    "kraus-free-psd": lambda c: _kraus_nodes(c["points"], c["base"]),
}


def _psd_matrix(f: FunctionModel, config: dict, precision: str) -> np.ndarray:
    criterion = config["criterion"]
    if criterion == "loewner-psd":
        return loewner_matrix(f, config["points"], precision)
    if criterion == "extended-loewner-psd":
        return extended_loewner_matrix(f, config["points"], precision)
    if criterion == "dobsch-psd":
        return dobsch_matrix(f, config["t"], config["order"], precision)
    if criterion == "hankel-psd":
        return hankel_convex_matrix(f, config["t"], config["order"], precision)
    return kraus_matrix(f, config["points"], config["base"], precision)


def _psd_row(M: np.ndarray, bound: float, tol: float) -> tuple:
    return min_eigenvalue(M), tol * psd_scale(M), bound, M


def _evaluate_psd(f: FunctionModel, configs: list[dict], precision: str, tol: float) -> list:
    """Minimum eigenvalue of the criterion matrix against tol * its scale.

    Loewner and Kraus matrices in double precision are built in one batch
    with entrywise error bounds E.  When ||E||_F leaves the sign of a
    margin open, the entries with the largest E are recomputed in extended
    precision until the rest of ||E||_F is within half the slack
    max(value, 0) + threshold (a margin below -||E||_F is a violation in
    any case and goes straight to the extended re-check).
    """
    if precision == "extended" or configs[0]["criterion"] not in _PSD_NODES:
        return [_psd_row(_psd_matrix(f, c, precision), 0.0, tol) for c in configs]
    entries = [_PSD_NODES[c["criterion"]](c) for c in configs]
    values, bounds = _dd_triangles(f, entries, "double")
    iu = _triangle(len(configs[0]["points"]))
    # each entry's share of ||E||_F^2; by Weyl's inequality lambda_min moves
    # by at most ||M - M_hat||_2 <= ||E||_F
    squares = np.where(iu[0] == iu[1], 1.0, 2.0) * bounds**2
    matrices = _symmetric(values)
    rows = []
    for b, nodes in enumerate(entries):
        row = _psd_row(matrices[b], math.sqrt(squares[b].sum()), tol)
        value, threshold, bound, _ = row
        if not double_settles(value, bound, threshold) and value + bound + threshold >= 0.0:
            left = squares[b].sum() - (0.5 * (max(value, 0.0) + threshold)) ** 2
            for k in np.argsort(-squares[b]).tolist():
                if left <= 0.0:
                    break
                values[b, k] = divided_difference(f, nodes[k], "extended")
                left -= squares[b, k]
                squares[b, k] = 0.0
            row = _psd_row(_symmetric(values[b]), math.sqrt(squares[b].sum()), tol)
        rows.append(row)
    return rows


def _evaluate_product(f: FunctionModel, configs: list[dict], precision: str, tol: float) -> list:
    """(f N(q))^(order)(t) / order! against the roundoff floor of its terms."""
    rows = []
    for config in configs:
        value, scale = _product_derivative_value(
            f, n_of(config["q"]), config["t"], config["deriv_order"], precision
        )
        rows.append((float(value), float(dd_threshold(scale, precision, tol)), 0.0, None))
    return rows


_EVALUATORS = {
    "dd": _evaluate_dd,
    "psd-matrix": _evaluate_psd,
    "derivative-sign": _evaluate_product,
}


def _witness(kind: str, config: dict, value: float, threshold: float, matrix) -> dict:
    w = {"kind": kind, **config}
    if "nodes" in w:
        w["nodes"] = [list(pair) for pair in w["nodes"].nodes]
    if "q" in w:
        w["q"] = _poly_to_jsonable(w["q"])
    if matrix is None:
        w["value"] = value
    else:
        w["matrix"] = matrix_to_jsonable(matrix)
        w["min_eigenvalue"] = value
    w["threshold"] = threshold
    return w


def _config(witness: dict) -> dict:
    """The configuration a witness records (inverse of _witness)."""
    config = dict(witness)
    if "nodes" in config:
        config["nodes"] = NodeMultiset.from_pairs([tuple(p) for p in config["nodes"]])
    if "q" in config:
        config["q"] = _poly_from_jsonable(config["q"])
    return config


class _Tally:
    """Running state of one sweep: configurations checked, the worst
    margin and its witness, and candidates dismissed on re-check."""

    def __init__(self, f: FunctionModel, criterion: str, kind: str, tol: float):
        self.f, self.criterion, self.kind = f, criterion, kind
        self.evaluate = _EVALUATORS[kind]
        self.tol = tol
        self.configs = 0
        self.worst = math.inf
        self.witness = None
        self.dismissed = 0

    def check(self, config: dict, row: tuple | None = None) -> float:
        """Margin of one configuration; negative means a confirmed violation.

        row is its double-precision evaluation, made here when not given.
        Unless its bound settles the sign of its margin (double_settles),
        the configuration is evaluated again in extended precision, and
        only the second margin counts.  A candidate is dismissed when its
        double margin was negative and the extended one is not.
        """
        self.configs += 1
        if row is None:
            row = self.evaluate(self.f, [config], "double", self.tol)[0]
        value, threshold, bound, matrix = row
        margin = value + threshold
        if not double_settles(value, bound, threshold):
            value, threshold, _, matrix = self.evaluate(self.f, [config], "extended", self.tol)[0]
            if margin < 0.0 <= value + threshold:
                self.dismissed += 1
            margin = value + threshold
        if margin < self.worst:
            self.worst = margin
            self.witness = _witness(self.kind, config, value, threshold, matrix)
        return margin

    def record(self, passed: bool, note: str = "") -> CriterionRecord:
        if passed and self.dismissed:
            dismissed = f"{self.dismissed} candidate(s) dismissed in extended precision"
            note = f"{note}; {dismissed}" if note else dismissed
        return CriterionRecord(
            self.criterion, passed, self.configs, self.worst, self.witness, note
        )

    def run(self, draw, samples: int, note: str = "") -> CriterionRecord:
        """Check draw(0), ..., draw(samples - 1), evaluated a batch at a
        time; stop at the first violation, so later rows of its batch
        count neither in configs nor in the worst margin."""
        if samples < 1:
            raise ValueError("samples must be >= 1")
        for configs in sweep_batches(draw, samples):
            rows = self.evaluate(self.f, configs, "double", self.tol)
            for config, row in zip(configs, rows):
                if self.check(config, row) < 0.0:
                    return self.record(False, note)
        return self.record(True, note)


# ---------------------------------------------------------------------------
# Divided-difference criteria


def _draw_multiset(
    rng: np.random.Generator, shape: str, n: int, interval: tuple[float, float], idx: int
) -> NodeMultiset:
    count = {"distinct-2n": 2 * n, "distinct-2n+1": 2 * n + 1, "doubled-free": n + 1}
    pts = sample_distinct_tuple(rng, count.get(shape, n), interval, idx).tolist()
    if shape.startswith("distinct"):
        return NodeMultiset.from_points(pts)
    mults = [2] * len(pts)
    if shape == "doubled-anchored":
        mults[int(rng.integers(0, n))] = 3
    elif shape == "doubled-free":
        mults[int(rng.integers(0, n + 1))] = 1
    return NodeMultiset.from_pairs(zip(pts, mults))


_DD_SHAPES = {
    ("monotone", "dd-real-q"): "distinct-2n",
    ("monotone", "dd-complex-q"): "distinct-2n",
    ("monotone", "dd-confluent"): "doubled",
    ("convex", "dd-real-q"): "distinct-2n+1",
    ("convex", "dd-complex-q"): "distinct-2n+1",
    ("convex", "dd-confluent-anchored"): "doubled-anchored",
    ("convex", "dd-confluent-free"): "doubled-free",
}


def dd_criterion(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str = "monotone",
    samples: int = 1000,
    seed: int = 0,
    complex_coeffs: bool = False,
    tol: float = 1e-9,
) -> CriterionRecord:
    """Sampled check of [nodes]_{f N(q)} >= 0 over distinct node tuples.

    monotone mode uses 2n nodes, convex mode 2n+1; q runs over the
    structured cadence in degree <= n-1 (real or complex coefficients).
    """
    criterion = "dd-complex-q" if complex_coeffs else "dd-real-q"
    return _run_dd_sweep(f, n, interval, mode, criterion, complex_coeffs, samples, seed, tol)


def confluent_dd_criterion(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str = "monotone",
    samples: int = 1000,
    seed: int = 0,
    base: str = "anchored",
    tol: float = 1e-9,
) -> CriterionRecord:
    """Sampled dd check over doubled nodes (confluent configurations).

    monotone: (x_1, x_1, ..., x_n, x_n).  convex: the same doubled
    block plus a base node, either one of the x_l (base="anchored") or
    a separate simple node (base="free").  q alternates real and
    complex coefficients.
    """
    if base not in ("anchored", "free"):
        raise ValueError(f"base must be 'anchored' or 'free', got {base!r}")
    if mode == "monotone":
        criterion = "dd-confluent"
    else:
        criterion = "dd-confluent-anchored" if base == "anchored" else "dd-confluent-free"
    return _run_dd_sweep(f, n, interval, mode, criterion, None, samples, seed, tol)


def _run_dd_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str,
    criterion: str,
    complex_coeffs: bool | None,
    samples: int,
    seed: int,
    tol: float,
) -> CriterionRecord:
    if (mode, criterion) not in _DD_SHAPES:
        raise ValueError(f"mode must be 'monotone' or 'convex', got {mode!r}")
    rng = np.random.default_rng(seed)
    span = float(interval[1]) - float(interval[0])
    shape = _DD_SHAPES[(mode, criterion)]

    def draw(idx: int) -> dict:
        ms = _draw_multiset(rng, shape, n, interval, idx)
        use_complex = bool(idx % 2) if complex_coeffs is None else complex_coeffs
        q = _sample_q(rng, n - 1, ms.values(), span, idx, use_complex)
        return {"criterion": criterion, "nodes": ms, "q": q}

    return _Tally(f, criterion, "dd", tol).run(draw, samples, _Q_CADENCE_NOTE)


# share of confluent multisets among the k-tone draws (k >= 2)
CONFLUENT_FRACTION = 0.15


def ktone_check(
    f: FunctionModel,
    k: int,
    interval: tuple[float, float],
    samples: int = 1000,
    seed: int = 0,
    tol: float = 1e-9,
) -> CriterionRecord:
    """Sampled test of k-tonicity, [x_0..x_k]_f >= 0 on the interval: the
    "dd" sweep with q = 1, whose failing witness replays through
    re_evaluate_witness.

    Tuples are k+1 nodes, a CONFLUENT_FRACTION of them (k >= 2) with
    repeated nodes.
    """
    rng = np.random.default_rng(seed)
    one = Poly.of(1.0)

    def draw(idx: int) -> dict:
        if rng.uniform() < CONFLUENT_FRACTION and k >= 2:
            distinct = max(2, (k + 2) // 2)
            pts = sample_distinct_tuple(rng, distinct, interval, idx)
            mults = [1] * distinct
            for _ in range(k + 1 - distinct):
                mults[rng.integers(0, distinct)] += 1
            ms = NodeMultiset.from_pairs(zip(pts.tolist(), mults))
        else:
            ms = NodeMultiset.from_points(sample_distinct_tuple(rng, k + 1, interval, idx).tolist())
        return {"criterion": "k-tone", "nodes": ms, "q": one}

    return _Tally(f, "k-tone", "dd", tol).run(draw, samples)


# ---------------------------------------------------------------------------
# PSD sweeps over sampled points (Loewner, extended Loewner, Kraus)

def _run_psd_point_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    criterion: str,
    samples: int,
    seed: int,
    tol: float,
) -> CriterionRecord:
    if criterion not in _PSD_NODES:
        raise ValueError(f"unknown PSD criterion {criterion!r}")
    rng = np.random.default_rng(seed)

    def draw(idx: int) -> dict:
        if criterion == "kraus-free-psd":
            pts = sample_distinct_tuple(rng, n + 1, interval, idx)
            cut = int(rng.integers(0, n + 1))
            points = [float(p) for i, p in enumerate(pts) if i != cut]
            return {"criterion": criterion, "points": points, "base": float(pts[cut])}
        points = [float(p) for p in sample_distinct_tuple(rng, n, interval, idx)]
        if criterion == "kraus-anchored-psd":
            base = points[int(rng.integers(0, n))]
            return {"criterion": criterion, "points": points, "base": base}
        return {"criterion": criterion, "points": points}

    return _Tally(f, criterion, "psd-matrix", tol).run(draw, samples)


# ---------------------------------------------------------------------------
# Derivative-matrix sweeps over a t-grid (Dobsch, Hankel)


def _chebyshev_grid(interval: tuple[float, float], count: int) -> np.ndarray:
    lo, hi = float(interval[0]), float(interval[1])
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * (1.0 - 1e-6)
    k = np.arange(count)
    return mid + half * np.cos(np.pi * (2 * k + 1) / (2 * count))


def _run_derivative_matrix_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    criterion: str,
    grid: int,
    tol: float,
) -> CriterionRecord:
    """PSD sweep of the Dobsch/Hankel matrix over a Chebyshev t-grid.

    A negative minimum eigenvalue at any probe fails immediately (after
    extended-precision re-verification of the entries), so thin dips
    strictly between grid points are the remaining risk; the sweep
    refines around local minima of the smallest eigenvalue by ternary
    search.  Positivity at every probe is reported as a pass for the
    grid, not as an almost-everywhere proof.
    """
    ts = np.sort(_chebyshev_grid(interval, grid))
    tally = _Tally(f, criterion, "psd-matrix", tol)

    def probe(t) -> float:
        return tally.check({"criterion": criterion, "t": float(t), "order": n})

    margins = []
    for t in ts:
        margin = probe(t)
        if margin < 0.0:
            return tally.record(False)
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
                return tally.record(False)
            margin2 = probe(m2)
            if margin2 < 0.0:
                return tally.record(False)
            if margin1 <= margin2:
                b = m2
            else:
                a = m1
    return tally.record(True, f"grid {grid} Chebyshev points")


# ---------------------------------------------------------------------------
# Product-derivative sweep


def _product_derivative_value(
    f: FunctionModel, weight: Poly, t: float, order: int, precision: str = "double"
) -> tuple[float, float]:
    """((f * weight)^(order)(t) / order!, term magnitude scale): coefficient
    `order` of the product of the jets of f and weight at t, and its largest term."""
    fjet = f.taylor(t, order + 1, precision)
    with mpmath.workdps(EXTENDED_DIGITS if precision == "extended" else mpmath.mp.dps):
        wjet = weight.taylor(mpmath.mpf(t) if precision == "extended" else t, order + 1)
        terms = [fc * wc for fc, wc in zip(reversed(fjet), wjet)]
        return sum(terms), max(abs(term) for term in terms)


def _run_product_derivative_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str,
    samples: int,
    seed: int,
    tol: float,
) -> CriterionRecord:
    """Sampled sign check of (f N(q))^(2n-1) (monotone) or ^(2n) (convex)."""
    criterion = "product-derivative"
    order = 2 * n - 1 if mode == "monotone" else 2 * n
    rng = np.random.default_rng(seed)
    lo, hi = float(interval[0]), float(interval[1])
    span = hi - lo
    margin_t = 1e-6 * span

    def draw(idx: int) -> dict:
        t = float(rng.uniform(lo + margin_t, hi - margin_t))
        anchors = (t, lo + 0.25 * span, lo + 0.75 * span)
        q = _sample_q(rng, n - 1, anchors, span, idx, bool(idx % 2))
        return {"criterion": criterion, "t": t, "deriv_order": order, "q": q}

    return _Tally(f, criterion, "derivative-sign", tol).run(draw, samples)


# ---------------------------------------------------------------------------
# Witness replay


def re_evaluate_witness(f: FunctionModel, witness: dict, tol: float = 1e-9) -> dict:
    """Recompute a witness from its stored configuration.

    Returns {"value", "threshold", "confirmed"}.  Criterion witnesses
    go through the evaluator of their sweep in extended precision,
    oracle witnesses (matrix-pair, jensen) through the oracle's own
    defect and threshold scale (linalg.oracle_defect).
    """
    kind = witness["kind"]
    if kind in _EVALUATORS:
        value, threshold, _, _ = _EVALUATORS[kind](f, [_config(witness)], "extended", tol)[0]
    elif kind in ("matrix-pair", "jensen"):
        A = matrix_from_jsonable(witness["matrix_a"])
        B = matrix_from_jsonable(witness["matrix_b"])
        t = float(witness.get("weight", 1.0))
        FM = matrix_function(f, t * A + (1.0 - t) * B) if kind == "jensen" else None
        D, scale = oracle_defect(matrix_function(f, A), matrix_function(f, B), FM, t)
        value = min_eigenvalue(D)
        threshold = tol * scale
    else:
        raise ValueError(f"unknown witness kind {kind!r}")
    return {"value": value, "threshold": threshold, "confirmed": value < -threshold}


# ---------------------------------------------------------------------------
# certify


def _oracle_record(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str,
    trials: int,
    seed: int,
    tol: float,
) -> CriterionRecord:
    oracle = monotonicity_oracle if mode == "monotone" else convexity_oracle
    return oracle(f, n, interval, trials=trials, seed=seed, tol=tol)


# criterion id -> its sweep, called as (f, n, interval, mode, seed, config)
# with the seed certify spawns for it.  The sweep functions are looked up by
# name at call time, so rebinding one of them on this module reaches certify.
_SWEEPS = {
    "dd-real-q": lambda f, n, iv, m, s, c: dd_criterion(f, n, iv, m, c.samples, s, False, c.tol),
    "dd-complex-q": lambda f, n, iv, m, s, c: dd_criterion(f, n, iv, m, c.samples, s, True, c.tol),
    "dd-confluent":
        lambda f, n, iv, m, s, c: confluent_dd_criterion(f, n, iv, m, c.samples, s, tol=c.tol),
    "dd-confluent-anchored":
        lambda f, n, iv, m, s, c: confluent_dd_criterion(f, n, iv, m, c.samples, s, "anchored", c.tol),
    "dd-confluent-free":
        lambda f, n, iv, m, s, c: confluent_dd_criterion(f, n, iv, m, c.samples, s, "free", c.tol),
    "product-derivative":
        lambda f, n, iv, m, s, c: _run_product_derivative_sweep(f, n, iv, m, c.samples, s, c.tol),
    **{
        name: lambda f, n, iv, m, s, c, name=name:
            _run_psd_point_sweep(f, n, iv, name, c.samples, s, c.tol)
        for name in _PSD_NODES
    },
    **{
        name: lambda f, n, iv, m, s, c, name=name: _run_derivative_matrix_sweep(
            f, n, iv, name, c.grid, c.tol
        )
        for name in ("dobsch-psd", "hankel-psd")
    },
}


def certify(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str = "monotone",
    config: CertifyConfig | None = None,
) -> CriterionReport:
    """Run every applicable criterion and assemble the report.

    The overall verdict is the conjunction of the per-criterion
    verdicts.  Disagreements are surfaced in the agreement block:
    criteria splitting pass/fail among themselves, or the matrix
    oracle finding a violation every algebraic criterion missed.  A
    criterion that passes while another fails is a defect signal, not
    something resolved silently.
    """
    if mode not in ("monotone", "convex"):
        raise ValueError(f"mode must be 'monotone' or 'convex', got {mode!r}")
    if n < 1:
        raise ValueError("order must be >= 1")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("interval must have positive length")
    config = config or CertifyConfig()
    if config.samples < 1 or config.grid < 1 or (config.include_oracle and config.oracle_trials < 1):
        raise ValueError("samples, grid and oracle_trials must be >= 1")
    names = MONOTONE_CRITERIA if mode == "monotone" else CONVEX_CRITERIA
    seeds = np.random.SeedSequence(config.seed).spawn(len(names) + 1)
    child = {name: int(s.generate_state(1)[0]) for name, s in zip(names, seeds)}
    oracle_seed = int(seeds[-1].generate_state(1)[0])

    records = [
        _SWEEPS[name](f, n, interval, mode, child[name], config)
        for name in names
    ]
    if config.include_oracle:
        records.append(
            _oracle_record(f, n, interval, mode, config.oracle_trials, oracle_seed, config.tol)
        )

    theory = [r for r in records if r.criterion != "matrix-oracle"]
    passes = [r.criterion for r in theory if r.passed]
    fails = [r.criterion for r in theory if not r.passed]
    conflicts: list[dict] = []
    if passes and fails:
        conflicts.append({"kind": "criteria-split", "pass": passes, "fail": fails})
    oracle = next((r for r in records if r.criterion == "matrix-oracle"), None)
    if oracle is not None and not oracle.passed and not fails:
        conflicts.append(
            {
                "kind": "oracle-vs-criteria",
                "detail": "matrix oracle found a violation that every criterion missed",
            }
        )
    verdict = "fail" if fails or (oracle is not None and not oracle.passed) else "pass"
    return CriterionReport(
        function=f.name,
        order=n,
        mode=mode,
        interval=(lo, hi),
        seed=config.seed,
        tol=config.tol,
        records=records,
        conflicts=conflicts,
        verdict=verdict,
    )
