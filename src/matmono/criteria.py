"""Positivity criteria for matrix monotone and matrix convex functions.

Each criterion is an exact characterization of n-monotonicity (or
n-convexity) on an interval, checked here by sampling: divided
differences of f * N(q) over node multisets, PSD sweeps of the Loewner /
extended Loewner / Kraus matrices, sign sweeps of the (2n-1)-st (or 2n-th)
derivative of f * N(q) (its dd over repeated t), and PSD sweeps of the
Dobsch / Hankel derivative matrices on a t-grid.  certify() runs them plus
the matrix oracle and reports per-criterion verdicts.  ktone_check is
the divided-difference sweep with q = 1.  Every sweep, both oracles and
ktone_check return one record type, divdiff.CriterionRecord.

A failing record carries a concrete witness, re-verified in extended
precision before it is reported.  A passing record only says that no
violation was found at the recorded number of configurations.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .divdiff import (
    LONG_DOUBLE_WIDER,
    CriterionRecord,
    DrawBlock,
    NodeMultiset,
    _GeneratorDraws,
    check_interval,
    check_tol,
    dd_threshold,
    divided_difference_enclosures,
    divided_difference_scaled,
    divided_differences,
    double_settles,
    end_margin,
    extended_divided_differences,
    place_nodes,
    place_width,
    sample_distinct_tuple,
    sweep_batches,
)
from .expr import DomainError, FunctionModel
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
from .polynomial import ONE, Poly, n_coeffs, n_of

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


# The criterion matrices: the nodes of a matrix as one row of values
# (points..., then a Kraus or Hankel matrix's base), and each upper-triangle
# entry, row by row, as the positions of its nodes in that row.  The point
# criteria sample their points; Dobsch and Hankel take copies of t.
POINT_CRITERIA = ("loewner-psd", "extended-loewner-psd", "kraus-anchored-psd", "kraus-free-psd")


def _point_row(criterion: str, points, base=None) -> list[float]:
    """The node row of a criterion matrix: distinct points (ascending for
    the extended Loewner matrix), then the base of a Kraus matrix."""
    pts = [float(p) for p in points]
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    if criterion == "extended-loewner-psd":
        pts.sort()
    return pts if base is None else pts + [float(base)]


@functools.cache
def _layout(criterion: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Positions in the node row of the nodes of each upper-triangle
    entry (i, j) of the criterion matrix over n points: (x_i, x_j) for
    Loewner, (x_1..x_i, x_1..x_j) for extended Loewner and Dobsch, that and
    the base for Hankel (over copies of t), (x_i, x_j, base) for Kraus."""
    iu = [(i, j) for i in range(n) for j in range(i, n)]
    if criterion == "loewner-psd":
        return tuple(iu)
    if criterion.startswith("kraus"):
        return tuple((i, j, n) for i, j in iu)
    base = (n,) if criterion == "hankel-psd" else ()
    return tuple(tuple(range(i + 1)) * 2 + tuple(range(i + 1, j + 1)) + base for i, j in iu)


@functools.lru_cache(maxsize=64)
def _entry_index(layout: tuple, rows: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The positions of a layout's entries by node count, an (entries,
    count) array per count, and where entry k of matrix b of `rows` lies in
    results over their blocks in turn, each (matrix, entry) row-major."""
    groups = [[k for k, pos in enumerate(layout) if len(pos) == c] for c in sorted(set(map(len, layout)))]
    at = np.cumsum([0] + [rows * len(ks) for ks in groups])
    index = np.hstack([np.arange(a, b).reshape(rows, -1) for a, b in zip(at, at[1:])])
    return [np.array([layout[k] for k in ks]) for ks in groups], index[:, np.argsort(sum(groups, []))]


def _over_entries(call, X: np.ndarray, layout) -> list[np.ndarray]:
    """call(blocks) on the node rows of every entry of the matrices X (row b
    matrix b's node row), one block per entry length (_entry_index); each
    array it returns as a (len(X), len(layout)) array."""
    positions, index = _entry_index(layout, len(X))
    return [flat[index] for flat in call([X[:, pos].reshape(-1, pos.shape[1]) for pos in positions])]


def _entries(row: list, layout) -> list[tuple]:
    """The node list of each entry of layout over one node row."""
    return [tuple(row[k] for k in pos) for pos in layout]


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


def _dd_triangles(f: FunctionModel, X: np.ndarray, layout, dtype=float):
    """Divided differences over the entries of a batch of matrices and their
    running error bounds (_over_entries): one divided_differences call, in
    the float type dtype (double, or np.longdouble for the long-double step)."""
    return _over_entries(lambda blocks: divided_differences(f, blocks, None, dtype)[::2], X, layout)


def _dd_matrix(f: FunctionModel, criterion: str, row: list, precision: str) -> np.ndarray:
    """The criterion matrix over one node row in mpmath, one jet per
    distinct node (extended_divided_differences); precision is "extended",
    a parameter perfbench/tracer.py reads to tell a re-check."""
    if precision != "extended":
        raise ValueError(f"unsupported precision mode {precision!r}")
    layout = _layout(criterion, len(row) - criterion.startswith(("kraus", "hankel")))
    return _symmetric(np.array(extended_divided_differences(f, _entries(row, layout))))


def loewner_matrix(f: FunctionModel, points, precision: str = "extended") -> np.ndarray:
    """Matrix of first divided differences [x_i, x_j]_f (diagonal f'), in
    mpmath; precision as in _dd_matrix."""
    return _dd_matrix(f, "loewner-psd", _point_row("loewner-psd", points), precision)


def extended_loewner_matrix(
    f: FunctionModel, points, precision: str = "extended"
) -> np.ndarray:
    """Entry (i, j) is [x_1..x_i, x_1..x_j]_f over ascending points;
    precision as in loewner_matrix."""
    row = _point_row("extended-loewner-psd", points)
    return _dd_matrix(f, "extended-loewner-psd", row, precision)


def dobsch_matrix(f: FunctionModel, t: float, n: int, precision: str = "extended") -> np.ndarray:
    """Local monotonicity matrix: entries f^(i+j-1)(t)/(i+j-1)!, i,j = 1..n,
    the extended Loewner matrix over n copies of t; precision as in loewner_matrix."""
    return _dd_matrix(f, "dobsch-psd", [float(t)] * n, precision)


def hankel_convex_matrix(
    f: FunctionModel, t: float, n: int, precision: str = "extended"
) -> np.ndarray:
    """Local convexity matrix: entries f^(i+j)(t)/(i+j)!, i,j = 1..n, the
    Dobsch layout with a base t appended; precision as in loewner_matrix."""
    return _dd_matrix(f, "hankel-psd", [float(t)] * (n + 1), precision)


def kraus_matrix(
    f: FunctionModel, points, base: float, precision: str = "extended"
) -> np.ndarray:
    """Matrix of second divided differences [x_i, x_j, base]_f; precision
    as in loewner_matrix.

    base may coincide with a point; repeated nodes become confluent.
    """
    return _dd_matrix(f, "kraus-free-psd", _point_row("kraus-free-psd", points, base), precision)


# ---------------------------------------------------------------------------
# q sampling

_Q_CADENCE_NOTE = "q cadence: 1, Gaussian coefficients, roots near nodes, mixed degree"


def _q_width(max_degree: int) -> int:
    """Numbers of a DrawBlock row that _q_coeffs reads at most: the degree,
    a node and two normals per root (cadence slot 2), or the degree and
    2 (max_degree + 1) normals (slots 1 and 3); a normal reads two."""
    return 0 if max_degree == 0 else max(1 + 5 * max_degree, 5 + 4 * max_degree)


def _q_coeffs(
    draws, max_degree: int, nodes, span: float, idx: int, complex_coeffs: bool
) -> list[complex] | None:
    """The q cadence: the coefficients of one polynomial of degree <=
    max_degree, max |coefficient| = 1, ascending; None for q = 1.

    Cadence slot idx % 4: 0 is q = 1; 1 has Gaussian coefficients at the
    full degree, 3 at a random degree; 2 has roots at random nodes, shifted
    by normal draws in half of its turns (idx % 8 >= 4), off the real line
    when complex_coeffs.  draws is a DrawBlock row, or a Generator's calls
    (_sample_q).  The coefficients are built with the arithmetic of
    Poly.from_roots and Poly.scale.
    """
    kind = idx % 4
    if kind == 0 or max_degree == 0:
        return None
    if kind == 2:
        deg = draws.integers(1, max_degree + 1)
        roots = [float(nodes[draws.integers(0, len(nodes))]) for _ in range(deg)]
        if idx % 8 >= 4:
            shifts = draws.normal(0.5 * span, deg)
            roots = [r + s for r, s in zip(roots, shifts)]
        if complex_coeffs:
            shifts = draws.normal(0.1 * span, deg)
            roots = [r + 1j * s for r, s in zip(roots, shifts)]
        coeffs = [1.0 + 0j]
        for r in roots:
            linear = (complex(-r), 1.0 + 0j)
            product = [0j] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                for j, b in enumerate(linear):
                    product[i + j] += a * b
            coeffs = product
    else:
        deg = max_degree if kind == 1 else draws.integers(0, max_degree + 1)
        if complex_coeffs:
            parts = draws.normal(1.0, 2 * (deg + 1))
            coeffs = [complex(a, b) for a, b in zip(parts[: deg + 1], parts[deg + 1 :])]
        else:
            coeffs = [complex(c) for c in draws.normal(1.0, deg + 1)]
    m = max(map(abs, coeffs))
    if not m > 0:
        return None
    s = 1.0 / m
    return [s * c for c in coeffs]


def _sample_q(
    rng: np.random.Generator,
    max_degree: int,
    nodes: tuple[float, ...],
    span: float,
    idx: int,
    complex_coeffs: bool,
) -> Poly:
    """One q of the cadence (_q_coeffs) from the generator's own calls.

    Normal draws of one kind share a generator call, which consumes the
    stream of as many scalar calls; the roots' node indices stay scalar
    integers calls (rng.choice(nodes)'s draw).
    """
    return _q_poly(_q_coeffs(_GeneratorDraws(rng), max_degree, nodes, span, idx, complex_coeffs))


def _q_poly(coeffs: list[complex] | None) -> Poly:
    return ONE if coeffs is None else Poly.from_coeffs(coeffs)


def _q_array(qs: list, k: int) -> np.ndarray:
    """(len(qs), k) complex coefficients of _q_coeffs results, zero-padded."""
    one = [1.0 + 0j] + [0j] * (k - 1)
    return np.array([one if q is None else q + [0j] * (k - len(q)) for q in qs], dtype=complex)


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
# A configuration is a dict of the witness fields that locate it, with the
# nodes and q as NodeMultiset and Poly.  A row is (value, threshold,
# bound, criterion matrix or None); the margin is value + threshold, and
# bound limits the error of a value computed below mpmath.  Every sweep
# evaluates a batch in double precision from its arrays, as dd rows
# (_dd_rows) or matrices of dd entries with a Weyl bound (_point_rows),
# and the rows a bound leaves open climb the rest of the ladder short of
# mpmath in one call for many batches (_escalate with _escalate_dd or
# _escalate_points).  One evaluator per witness kind maps (f, configs, tol)
# to the rows of the configurations in mpmath: the re-check of a row no
# bound settles and the witness replay, on the configuration materialized
# for that row.  (f N(q))^(k)(t)/k! is the divided difference of f N(q)
# over k + 1 copies of t (Hermite-Genocchi), so a product-derivative
# configuration (t, deriv_order, q) is such a dd row, and a Dobsch or
# Hankel matrix at t that of a point row over copies of t (_layout).


def _open(value: float, threshold: float, bound: float) -> bool:
    """The bound leaves the sign of the margin value + threshold open: it
    neither settles it (double_settles) nor proves it negative."""
    return not double_settles(value, bound, threshold) and value + bound + threshold >= 0.0


def _enclosures(f: FunctionModel, nodes, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """divided_difference_enclosures, with NaN bounds (no enclosure) for
    every row when some box is possibly outside f's domain."""
    try:
        return divided_difference_enclosures(f, nodes, weights)
    except DomainError:
        unknown = np.full(sum(map(len, nodes)) if isinstance(nodes, list) else len(nodes), np.nan)
        return unknown, unknown


def _by_batch(enclose, rows: list[int], batch: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """enclose(rows), the bounds (lo, hi) of the listed rows from one
    enclosure call (_enclosures).  A box possibly outside f's domain costs
    every row of its call its bounds, so when the rows come from several
    batches (batch[r] is the batch of row r) and none of them got a bound,
    each batch's rows are enclosed again on their own, as a batch
    escalated alone is."""
    lo, hi = enclose(rows)
    if batch[rows[0]] != batch[rows[-1]] and np.isnan(lo).all():
        parts = [list(at) for _, at in itertools.groupby(rows, batch.__getitem__)]
        lo, hi = map(np.concatenate, zip(*map(enclose, parts)))
    return lo, hi


def _escalate(escalate, f: FunctionModel, batches: list, tol: float) -> None:
    """Run the precision ladder past double on the open rows (_open) of
    several batches in one call, in place.  batches holds (rows, data,
    start): a batch's double rows, the arrays escalate reads for them (one
    entry per row each; _dd_rows, _point_rows) and its first row still to
    be checked.  A row's result does not depend on the other rows of its
    call, except through _by_batch's rule."""
    opened = [[i for i in range(start, len(rows)) if _open(*rows[i][:3])] for rows, _, start in batches]
    batch = [b for b, at in enumerate(opened) for _ in at]
    if not batch:
        return
    parts = [[a[at] for a in data] for (_, data, _), at in zip(batches, opened)]
    merged = [np.concatenate(arrays) for arrays in zip(*parts)]
    done = iter(escalate(f, [rows[i] for (rows, _, _), at in zip(batches, opened) for i in at],
                         merged, batch, tol))
    for (rows, _, _), at in zip(batches, opened):
        for i in at:
            rows[i] = next(done)


def _dd_rows(f: FunctionModel, nodes: np.ndarray, weights: np.ndarray, tol: float) -> tuple[list, tuple]:
    """Rows of [nodes]_{f N(q)} over a (rows, nodes) array, weights the
    n_coeffs rows of the N(q), in double precision: one batched table with
    running error bounds.  Returns the rows and what _escalate_dd reads
    for them, (nodes, weights, largest |table entry|)."""
    value, scale, bound = divided_differences(f, nodes, weights)
    # a row of one node is its top seed: its bound covers its roundoff, which its lower seeds overstate
    threshold = np.where(nodes.min(axis=1) == nodes.max(axis=1), tol, dd_threshold(scale, "double", tol))
    rows = [(*row, None) for row in zip(value.tolist(), threshold.tolist(), bound.tolist())]
    return rows, (nodes, weights, scale)


def _escalate_dd(f: FunctionModel, rows: list, data: list, batch: list[int], tol: float) -> list:
    """The open dd rows of _dd_rows (from any number of batches) by the
    precision ladder short of mpmath.

    Where the platform's long double is wider, the rows are re-run as one
    long-double batch; the rows still open take one batch of enclosures
    [lo, hi] (divided_difference_enclosures, _by_batch).  The long-double
    step and the enclosure hold a row to the extended floor, so they settle
    only margins the extended re-check would find nonnegative: an enclosed
    row settles when lo + that floor >= 0, and then reports its value
    clipped to [lo, hi] with bound value - lo.  Every other row keeps its
    double (or long-double) evaluation, and _Tally.check sends it to mpmath.
    """
    nodes, weights, scale = data
    rows, redo = list(rows), list(range(len(rows)))
    if LONG_DOUBLE_WIDER:
        value, wide_scale, bound = divided_differences(f, nodes, weights, np.longdouble)
        threshold = dd_threshold(wide_scale, "extended", tol)
        rows = [(*row, None) for row in zip(value.tolist(), threshold.tolist(), bound.tolist())]
        redo = [i for i, row in enumerate(rows) if _open(*row[:3])]
    if redo:
        floor = dd_threshold(scale[redo], "extended", tol).tolist()
        lo, hi = _by_batch(lambda at: _enclosures(f, nodes[at], weights[at]), redo, batch)
        for i, low, high, th in zip(redo, lo.tolist(), hi.tolist(), floor):
            if low + th >= 0.0:
                v = min(max(rows[i][0], low), high)
                rows[i] = (v, th, v - low, None)
    return rows


def _evaluate_dd(f: FunctionModel, configs: list[dict], tol: float) -> list:
    """[nodes]_{f N(q)} in mpmath against the roundoff floor of its table;
    a product-derivative configuration's nodes are t, deriv_order + 1 times."""
    rows = []
    for config in configs:
        nodes = config.get("nodes") or NodeMultiset.from_pairs([(config["t"], config["deriv_order"] + 1)])
        value, scale = divided_difference_scaled(f, nodes, "extended", n_of(config["q"]))
        rows.append((value, dd_threshold(scale, "extended", tol), 0.0, None))
    return rows


def _psd_matrix(f: FunctionModel, config: dict) -> np.ndarray:
    criterion = config["criterion"]
    if criterion == "loewner-psd":
        return loewner_matrix(f, config["points"])
    if criterion == "extended-loewner-psd":
        return extended_loewner_matrix(f, config["points"])
    if criterion == "dobsch-psd":
        return dobsch_matrix(f, config["t"], config["order"])
    if criterion == "hankel-psd":
        return hankel_convex_matrix(f, config["t"], config["order"])
    return kraus_matrix(f, config["points"], config["base"])


def _psd_rows(mats: np.ndarray, bounds, tol: float) -> list:
    """Rows (min eigenvalue, tol * psd_scale, bound, matrix) of a (rows, n, n)
    stack, with one eigvalsh call for the stack.  numpy runs the same
    LAPACK routine on each matrix of a stack, so each row is the one
    min_eigenvalue gives."""
    lam = np.linalg.eigvalsh(mats)[:, 0].tolist()
    scale = (tol * psd_scale(mats)).tolist()
    return list(zip(lam, scale, bounds, mats))


def _shares(entries: int) -> np.ndarray:
    """Each upper-triangle entry's share of ||E||_F^2 (2 off the diagonal)."""
    iu = _triangle((math.isqrt(8 * entries + 1) - 1) // 2)
    return np.where(iu[0] == iu[1], 1.0, 2.0)


def _point_rows(f: FunctionModel, X: np.ndarray, layout, tol: float) -> tuple[list, tuple]:
    """Minimum eigenvalue of each criterion matrix of a batch of node rows
    X (_layout) against tol * its scale, in double precision.

    The matrices are built in one batch with entrywise error bounds E; by
    Weyl's inequality lambda_min moves by at most ||M - M_hat||_2 <=
    ||E||_F, each row's bound.  Returns the rows and what _escalate_points
    reads for them, (X, entries, each entry's share of ||E||_F^2).
    """
    values, bounds = _dd_triangles(f, X, layout)
    squares = _shares(len(layout)) * bounds**2
    rows = _psd_rows(_symmetric(values), np.sqrt(squares.sum(axis=1)).tolist(), tol)
    return rows, (X, values, squares)


def _escalate_points(f: FunctionModel, rows: list, data: list, batch: list[int], tol: float,
                     layout) -> list:
    """The open rows of _point_rows (from any number of batches) by the
    precision ladder.

    The matrices are rebuilt as one long-double batch where the platform's
    long double is wider.  For those still open, each entry takes an
    enclosure (divided_difference_enclosures, one batch for every entry,
    _by_batch), and an entry whose enclosure radius is below its bound
    takes the enclosure's midpoint and that radius as its value and bound;
    Weyl's bound then decides the matrix again.  For those still open, the
    entries with the largest E are recomputed in extended precision, in one
    call per matrix that shares their mpmath jets, until the rest of
    ||E||_F is within half the slack max(value, 0) + threshold (a margin
    below -||E||_F is a violation in any case and goes straight to the
    extended re-check).
    """
    X, values, squares = data
    share = _shares(len(layout))
    rows = list(rows)
    if LONG_DOUBLE_WIDER:
        values, bound = _dd_triangles(f, X, layout, np.longdouble)
        squares = share * bound**2
        rows = _psd_rows(_symmetric(values), np.sqrt(squares.sum(axis=1)).tolist(), tol)
    left = [b for b, row in enumerate(rows) if _open(*row[:3])]
    if left:
        def enclose(mats: list[int]):  # every entry of the matrices mats
            return _over_entries(lambda blocks: _enclosures(f, blocks), X[mats], layout)

        lo, hi = _by_batch(enclose, left, batch)
        with np.errstate(invalid="ignore", over="ignore"):  # unknown or huge enclosures
            mid = 0.5 * (lo + hi)
            radius = np.nextafter(np.maximum(hi - mid, mid - lo), np.inf)
            square = share * radius**2
            take = square < squares[left]
            values[left] = np.where(take, mid, values[left])
            squares[left] = np.where(take, square, squares[left])
        redone = _psd_rows(_symmetric(values[left]), np.sqrt(squares[left].sum(axis=1)).tolist(), tol)
        for b, row in zip(left, redone):
            rows[b] = row
    for b in range(len(rows)):
        value, threshold, bound, _ = rows[b]
        if _open(value, threshold, bound):
            half = 0.5 * (max(value, 0.0) + threshold)
            left = squares[b].sum() - half * half  # inf, not OverflowError, near the float range
            picked = []
            for k in np.argsort(-squares[b]).tolist():
                if left <= 0.0:
                    break
                picked.append(k)
                left -= squares[b, k]
            entries = _entries(X[b].tolist(), [layout[k] for k in picked])
            values[b, picked] = extended_divided_differences(f, entries)
            squares[b, picked] = 0.0
            rows[b] = _psd_rows(_symmetric(values[b : b + 1]), [math.sqrt(squares[b].sum())], tol)[0]
    return rows


def _evaluate_psd(f: FunctionModel, configs: list[dict], tol: float) -> list:
    """Minimum eigenvalue of the criterion matrix, built in mpmath,
    against tol * its scale."""
    mats = np.array([_psd_matrix(f, c) for c in configs])
    return _psd_rows(mats, [0.0] * len(configs), tol)


_EVALUATORS = {
    "dd": _evaluate_dd,
    "psd-matrix": _evaluate_psd,
    "derivative-sign": _evaluate_dd,
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
    """Running state of one sweep: the margins checked, in order, the worst
    margin and its witness, and candidates dismissed on re-check."""

    def __init__(self, f: FunctionModel, criterion: str, kind: str, tol: float):
        self.f, self.criterion, self.kind = f, criterion, kind
        self.evaluate = _EVALUATORS[kind]
        self.tol = check_tol(tol)
        self.margins: list[float] = []
        self.worst = math.inf
        self.witness = None
        self.dismissed = 0

    def check(self, row: tuple, config, i: int = 0) -> float:
        """Margin of one configuration; negative means a confirmed violation.

        row is its double-precision evaluation (with the sweep's
        long-double and enclosure steps); config(i) materializes the
        configuration, only when it is needed.  Unless the row's bound
        settles the sign of its margin (double_settles), the configuration
        is evaluated again in mpmath, and only the second margin counts.  A
        candidate is dismissed when the margin of its row was negative and
        the mpmath one is not.  A new worst margin keeps the configuration
        as the witness.  A margin that is not finite decides nothing and
        raises a ValueError naming the criterion.
        """
        value, threshold, bound, matrix = row
        margin = value + threshold
        made = None
        if not double_settles(value, bound, threshold):
            made = config(i)
            value, threshold, _, matrix = self.evaluate(self.f, [made], self.tol)[0]
            if margin < 0.0 <= value + threshold:
                self.dismissed += 1
            margin = value + threshold
        if not math.isfinite(margin):
            raise ValueError(f"{self.criterion}: the margin of configuration "
                             f"{len(self.margins)} is not finite ({margin})")
        self.margins.append(margin)
        if margin < self.worst:
            self.worst = margin
            made = config(i) if made is None else made
            self.witness = _witness(self.kind, made, value, threshold, matrix)
        return margin

    def record(self, passed: bool, note: str = "") -> CriterionRecord:
        if passed and self.dismissed:
            dismissed = f"{self.dismissed} candidate(s) dismissed in extended precision"
            note = f"{note}; {dismissed}" if note else dismissed
        return CriterionRecord(
            self.criterion, passed, len(self.margins), self.worst, self.witness, note
        )

    def run(self, draw, samples: int, escalate, note: str = "") -> CriterionRecord:
        """Check the configurations 0, ..., samples - 1 in order, in the
        batches of sweep_batches, and stop at the first violation (sweep)."""
        if samples < 1:
            raise ValueError("samples must be >= 1")
        return self.record(not self.sweep(draw, sweep_batches(samples), escalate), note)

    def sweep(self, draw, batches, escalate) -> bool:
        """Check the configurations of batches (ranges of indices) in order;
        True at the first violation, so later rows count neither in configs
        nor in the worst margin.

        draw(indices) draws the configurations of a batch of indices and
        returns (rows, config, data): their double rows, config(i), which
        materializes the i-th of them, and the arrays escalate reads for them
        (_dd_rows and _escalate_dd, _point_rows and _escalate_points).  While
        no row waits, a row whose bound settles its sign or proves it negative
        is checked at once.  An open row (_open) waits for the rest of the
        precision ladder, and so does every later row of the sweep.  The
        waiting rows are flushed at the end of a batch that holds a waiting
        candidate violation (value + bound + threshold < 0) and at the end of
        the sweep: their open rows escalate in one call (_escalate), then they
        are checked in order.  So a sweep pays one long-double batch and one
        enclosure call per flush, and its record is that of a sweep that
        escalates and checks each batch in turn.  A batch drawn or evaluated
        after a waiting row may raise: the exception surfaces only when the
        waiting rows do not stop the sweep.
        """
        waiting = []  # (rows, config, data, first waiting row) of each batch
        for indices in batches:
            try:
                rows, config, data = draw(indices)
            except Exception:
                if self._flush(waiting, escalate):
                    return True
                raise
            start = 0
            while not waiting and start < len(rows) and not _open(*rows[start][:3]):
                if self.check(rows[start], config, start) < 0.0:
                    return True
                start += 1
            if start < len(rows):
                waiting.append((rows, config, data, start))
                if any(v + b + th < 0.0 for v, th, b, _ in rows[start:]):
                    if self._flush(waiting, escalate):
                        return True
                    waiting = []
        return self._flush(waiting, escalate)

    def _flush(self, waiting: list, escalate) -> bool:
        """Escalate the open rows of the waiting batches in one call, then
        check the waiting rows in order; True at a confirmed violation.
        When the merged call raises, the batches are flushed one by one,
        so the exception surfaces only where a batch escalated alone
        raises and the batches before it do not stop the sweep."""
        try:
            _escalate(escalate, self.f, [(rows, data, start) for rows, _, data, start in waiting],
                      self.tol)
        except Exception:
            if len(waiting) < 2:
                raise
            return any(self._flush([batch], escalate) for batch in waiting)
        return any(self.check(rows[i], config, i) < 0.0
                   for rows, config, _, start in waiting for i in range(start, len(rows)))


# ---------------------------------------------------------------------------
# Divided-difference criteria


def _draw_dd(rng, shape: str, n: int, interval, complex_coeffs: bool | None, indices) -> list:
    """The dd draws of a range of indices, from one DrawBlock of the
    sweep's generator rng: (points, multiplicities, flattened nodes, q
    coefficients) each, multiplicities None for a distinct shape.  Doubled
    shapes double every point; the anchored one then triples one of them,
    the free one keeps one of its n + 1 points simple.  complex_coeffs None
    alternates real and complex q."""
    lo, hi = check_interval(interval)
    count = {"distinct-2n": 2 * n, "distinct-2n+1": 2 * n + 1, "doubled-free": n + 1}.get(shape, n)
    # a row reads its nodes, a doubled shape's choice of a point, and q
    width = place_width(count) + shape.startswith("doubled-") + _q_width(n - 1)
    block = DrawBlock(rng, len(indices), width)
    drawn = []
    for idx in block.rows(indices):
        pts = flat = place_nodes(block, count, lo, hi, idx)
        mults = None
        if shape.startswith("doubled"):
            mults = [2] * count
            if shape == "doubled-anchored":
                mults[block.integers(0, n)] = 3
            elif shape == "doubled-free":
                mults[block.integers(0, n + 1)] = 1
            flat = [v for v, m in zip(pts, mults) for _ in range(m)]
        use_complex = bool(idx % 2) if complex_coeffs is None else complex_coeffs
        drawn.append((pts, mults, flat, _q_coeffs(block, n - 1, pts, hi - lo, idx, use_complex)))
    return drawn


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
    shape = _DD_SHAPES[(mode, criterion)]

    def draw(indices):
        drawn = _draw_dd(rng, shape, n, interval, complex_coeffs, indices)

        def config(i: int) -> dict:
            pts, mults, _, q = drawn[i]
            if mults is None:
                nodes = NodeMultiset.from_points(pts)
            else:
                nodes = NodeMultiset.from_pairs(zip(pts, mults))
            return {"criterion": criterion, "nodes": nodes, "q": _q_poly(q)}

        nodes = np.array([d[2] for d in drawn])
        weights = n_coeffs(_q_array([d[3] for d in drawn], n))
        rows, data = _dd_rows(f, nodes, weights, tol)
        return rows, config, data

    return _Tally(f, criterion, "dd", tol).run(draw, samples, _escalate_dd, _Q_CADENCE_NOTE)


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

    def draw_one(idx: int) -> dict:
        if rng.random() < CONFLUENT_FRACTION and k >= 2:
            distinct = max(2, (k + 2) // 2)
            pts = sample_distinct_tuple(rng, distinct, interval, idx)
            mults = [1] * distinct
            for _ in range(k + 1 - distinct):
                mults[rng.integers(0, distinct)] += 1
            ms = NodeMultiset.from_pairs(zip(pts.tolist(), mults))
        else:
            ms = NodeMultiset.from_points(sample_distinct_tuple(rng, k + 1, interval, idx).tolist())
        return {"criterion": "k-tone", "nodes": ms, "q": ONE}

    def draw(indices):
        configs = [draw_one(idx) for idx in indices]
        nodes = np.array([c["nodes"].flatten() for c in configs])
        rows, data = _dd_rows(f, nodes, n_coeffs([c["q"] for c in configs]), tol)
        return rows, configs.__getitem__, data

    return _Tally(f, "k-tone", "dd", tol).run(draw, samples, _escalate_dd)


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
    """Sampled PSD check of a point criterion's matrix: n points, and for
    Kraus a base, one of the points (anchored) or a further point (free)."""
    if criterion not in POINT_CRITERIA:
        raise ValueError(f"unknown PSD criterion {criterion!r}")
    rng = np.random.default_rng(seed)
    lo, hi = check_interval(interval)
    kraus = criterion.startswith("kraus")
    count = n + 1 if criterion == "kraus-free-psd" else n
    width = place_width(count) + kraus
    layout = _layout(criterion, n)

    def draw(indices):
        block = DrawBlock(rng, len(indices), width)
        X = []
        for idx in block.rows(indices):
            row = place_nodes(block, count, lo, hi, idx)
            if criterion == "kraus-free-psd":
                row.append(row.pop(block.integers(0, n + 1)))
            elif kraus:
                row.append(row[block.integers(0, n)])
            X.append(row)

        def config(i: int) -> dict:
            if not kraus:
                return {"criterion": criterion, "points": X[i]}
            return {"criterion": criterion, "points": X[i][:n], "base": X[i][n]}

        rows, data = _point_rows(f, np.array(X), layout, tol)
        return rows, config, data

    escalate = functools.partial(_escalate_points, layout=layout)
    return _Tally(f, criterion, "psd-matrix", tol).run(draw, samples, escalate)


# ---------------------------------------------------------------------------
# Derivative-matrix sweeps over a t-grid (Dobsch, Hankel)


def _run_derivative_matrix_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    criterion: str,
    grid: int,
    tol: float,
) -> CriterionRecord:
    """PSD sweep of the Dobsch/Hankel matrix over a Chebyshev t-grid.

    A probe at t is the point row (_point_rows) of n copies of t (n + 1 for
    Hankel), escalated as a Loewner or Kraus row is.  Thin dips between grid
    points are the remaining risk, so the sweep then refines around the
    five lowest local minima of the grid margins by ternary search, every
    bracket in lockstep: each of 30 rounds checks the inner points of every
    bracket as one batch, and a bracket whose ends coincide (grid 1) is not
    refined.  A pass holds for the grid, not almost everywhere.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    lo, hi, k = float(interval[0]), float(interval[1]), np.arange(grid)
    half = 0.5 * (hi - lo) * (1.0 - 1e-6)
    ts = np.sort(0.5 * (lo + hi) + half * np.cos(np.pi * (2 * k + 1) / (2 * grid))).tolist()
    layout = _layout(criterion, n)
    tally = _Tally(f, criterion, "psd-matrix", tol)
    escalate = functools.partial(_escalate_points, layout=layout)

    def failed(points: list[float], batches) -> bool:
        def draw(indices):
            t = points[indices.start : indices.stop]
            X = np.repeat(np.array(t)[:, None], n + (criterion == "hankel-psd"), axis=1)
            rows, data = _point_rows(f, X, layout, tol)
            return rows, lambda i: {"criterion": criterion, "t": t[i], "order": n}, data
        return tally.sweep(draw, batches, escalate)

    if failed(ts, sweep_batches(grid)):
        return tally.record(False)
    m = tally.margins
    minima = [i for i in range(grid) if m[i] <= min(m[max(i - 1, 0)], m[min(i + 1, grid - 1)])]
    brackets = [(ts[max(i - 1, 0)], ts[min(i + 1, grid - 1)])
                for i in sorted(minima, key=m.__getitem__)[:5]]
    brackets = [(a, b) for a, b in brackets if a < b]
    for _ in range(30 if brackets else 0):
        probes = [x for a, b in brackets for x in (a + (b - a) / 3.0, b - (b - a) / 3.0)]
        if failed(probes, [range(len(probes))]):
            return tally.record(False)
        got = tally.margins[-len(probes):]
        brackets = [(a, m2) if g1 <= g2 else (m1, b) for (a, b), m1, m2, g1, g2
                    in zip(brackets, probes[::2], probes[1::2], got[::2], got[1::2])]
    return tally.record(True, f"grid {grid} Chebyshev points")


# ---------------------------------------------------------------------------
# Product-derivative sweep


def _product_derivative_value(
    f: FunctionModel, weight: Poly, t: float, order: int, precision: str = "extended"
) -> tuple[float, float]:
    """((f * weight)^(order)(t) / order!, max |table entry|): the mpmath divided
    difference over order + 1 copies of t.  perfbench/tracer.py patches it by name."""
    return divided_difference_scaled(f, NodeMultiset.from_pairs([(t, order + 1)]), precision, weight)


def _run_product_derivative_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str,
    samples: int,
    seed: int,
    tol: float,
) -> CriterionRecord:
    """Sampled sign check of (f N(q))^(2n-1) (monotone) or ^(2n) (convex)
    divided by its factorial: the dd rows of order + 1 copies of t."""
    criterion = "product-derivative"
    order = 2 * n - 1 if mode == "monotone" else 2 * n
    rng = np.random.default_rng(seed)
    lo, hi = check_interval(interval)
    span = hi - lo
    margin_t = end_margin(lo, hi)
    width = 1 + _q_width(n - 1)

    def draw(indices):
        block = DrawBlock(rng, len(indices), width)
        ts, qs = [], []
        for idx in block.rows(indices):
            t = block.uniform(lo + margin_t, hi - margin_t)
            anchors = (t, lo + 0.25 * span, lo + 0.75 * span)
            ts.append(t)
            qs.append(_q_coeffs(block, n - 1, anchors, span, idx, bool(idx % 2)))

        def config(i: int) -> dict:
            return {"criterion": criterion, "t": ts[i], "deriv_order": order, "q": _q_poly(qs[i])}

        nodes = np.repeat(np.array(ts)[:, None], order + 1, axis=1)
        rows, data = _dd_rows(f, nodes, n_coeffs(_q_array(qs, n)), tol)
        return rows, config, data

    return _Tally(f, criterion, "derivative-sign", tol).run(draw, samples, _escalate_dd)


# ---------------------------------------------------------------------------
# Witness replay


def re_evaluate_witness(f: FunctionModel, witness: dict, tol: float = 1e-9) -> dict:
    """Recompute a witness from its stored configuration.

    Returns {"value", "threshold", "confirmed"}.  Criterion witnesses
    go through the evaluator of their sweep in extended precision,
    oracle witnesses (matrix-pair, jensen) through the oracle's own
    defect and threshold scale (linalg.oracle_defect).
    """
    check_tol(tol)
    kind = witness["kind"]
    if kind in _EVALUATORS:
        value, threshold, _, _ = _EVALUATORS[kind](f, [_config(witness)], tol)[0]
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
        for name in POINT_CRITERIA
    },
    **{
        name: lambda f, n, iv, m, s, c, name=name:
            _run_derivative_matrix_sweep(f, n, iv, name, c.grid, c.tol)
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
    lo, hi = check_interval(interval)
    config = config or CertifyConfig()
    check_tol(config.tol)
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
