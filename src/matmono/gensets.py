"""Monotonicity on finite sets, gluing, and the non-extendability example.

On a finite set F, n-monotonicity is equivalent to nonnegativity of
the divided differences [x_{i_0}, ..., x_{i_{2k-1}}]_{f N(q)} over
ascending subsets of F and polynomials q of degree < k, for every
k = 1..n; when #F > 2n the single level k = n suffices.  The checks
here evaluate N(q) pointwise as |q(x)|^2, so the weights are exactly
nonnegative and a clean function never produces a spurious violation.

One float64 kernel (_weighted_terms) evaluates the product formula
over stacked rows of nodes, values and q coefficients.  A level sweep
holds its whole level as arrays: the subsets as an index array (a
cached combinations table tiled for an exhaustive level), then every
row's q drawn per kind in a few generator calls (_level_q), evaluated
in chunks of _LEVEL_CHUNK rows up to the first violating row.  The
level's draws do not depend on where it fails, so the generator the
levels of one check share is always left after the whole level.
Extension feasibility builds its windows (the subsets with x0 sorted
in) and their q as arrays too, evaluates all of its constraints in one
call and reads the feasible interval exactly off the constraints'
half-lines (_feasible_interval), with no y-grid; replay is a one-row
call.  Each row gets the operations of the one-term-at-a-time formula
in the same order, so a row's value does not depend on the rows beside
it.  A sampled level draws its random subsets in one generator call
that reproduces the stream of one rng.choice(m, size, replace=False)
per subset (_index_subsets; tested on numpy 2.4.6), and its thresholds
in one dd_threshold call.

The counterexample construction assembles a finite function from two
distinct rational Pick functions that agree on the middle points; it
is n-monotone on F but admits no n-monotone extension to any point of
the gap interval, which extension_feasibility exhibits as a pair of
contradictory binding constraints.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

# _sample_q is no longer called here; it stays bound because the benchmark
# tracer (perfbench/tracer.py) patches gensets._sample_q by name
from .criteria import _poly_from_jsonable, _sample_q, _witness  # noqa: F401
from .divdiff import check_tol, dd_threshold, record_jsonable
from .expr import FunctionModel
from .polynomial import Poly


@dataclass(frozen=True)
class FiniteFunction:
    """A function given by a value table over strictly increasing points."""

    points: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.values):
            raise ValueError("points and values must have equal length")
        if len(self.points) == 0:
            raise ValueError("empty finite function")
        for x, y in zip(self.points, self.values):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite pair ({x!r}, {y!r}) in the table")
        if any(not a < b for a, b in zip(self.points, self.points[1:])):
            raise ValueError("points must be strictly increasing")

    @staticmethod
    def from_pairs(pairs) -> "FiniteFunction":
        pairs = sorted((float(x), float(y)) for x, y in pairs)
        return FiniteFunction(
            tuple(x for x, _ in pairs), tuple(y for _, y in pairs)
        )

    @staticmethod
    def from_model(model: FunctionModel, points) -> "FiniteFunction":
        pts = tuple(sorted(float(p) for p in points))
        return FiniteFunction(pts, tuple(model.eval_deriv(0, p) for p in pts))

    @property
    def size(self) -> int:
        return len(self.points)

    def value_at(self, x: float) -> float:
        try:
            return self.values[self.points.index(float(x))]
        except ValueError:
            raise KeyError(f"{x} is not a point of this finite function") from None

    def union(self, other: "FiniteFunction", tol: float = 1e-9) -> "FiniteFunction":
        """Merge two tables; common points must carry equal values."""
        check_tol(tol)
        merged = dict(zip(self.points, self.values))
        for x, y in zip(other.points, other.values):
            if x in merged and abs(merged[x] - y) > tol * max(1.0, abs(y)):
                raise ValueError(f"inconsistent values at shared point {x}")
            merged.setdefault(x, y)
        return FiniteFunction.from_pairs(merged.items())


def read_points_file(path) -> FiniteFunction:
    """Two-column text (point, value), one pair per line, # comments."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            pairs.append((float(fields[0]), float(fields[1])))
    if not pairs:
        raise ValueError(f"{path}: no data lines")
    return FiniteFunction.from_pairs(pairs)


def write_points_file(path, f: FiniteFunction, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        for x, y in zip(f.points, f.values):
            fh.write(f"{x!r} {y!r}\n")


# ---------------------------------------------------------------------------
# Finite divided differences with |q|^2 weights


def _q_rows(qs) -> np.ndarray:
    """Ascending coefficients of the polynomials qs as complex rows, zero-padded."""
    width = max(1, max(len(q.coeffs) for q in qs))
    return np.array([q.coeffs + (0j,) * (width - len(q.coeffs)) for q in qs], dtype=complex)


def _weighted_terms(P, V, Q) -> np.ndarray:
    """Terms v_i |q(x_i)|^2 / prod_{j != i} (x_i - x_j) of [x]_{f |q|^2}.

    P and V hold node and value rows (rows, 2k), Q the coefficient rows
    of q (rows, k), complex and ascending; V may be a scalar.  Every entry
    takes the operations of the scalar product formula in its order, so a
    row's terms do not depend on the rows beside it: the denominator is
    multiplied in j order, q(x_i) is Horner on the real and imaginary
    parts (as Python's complex Horner, zero signs aside), and |q|^2 is
    hypot(re, im) ** 2.0 through float_power (x * x differs from
    abs(z) ** 2 in about 1 of 1200 doubles).  The work runs on (rows, 2k)
    arrays, updated in place where the operation allows, so a call holds
    only a few of them at a time and no (rows, 2k, 2k) difference cube.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=complex)
    denom = np.ones_like(P)
    diff = np.empty_like(P)
    for j in range(P.shape[1]):
        np.subtract(P, P[:, j : j + 1], out=diff)
        diff[:, j] = 1.0
        denom *= diff
    re, im = Q.real[:, -1:], Q.imag[:, -1:]
    for c in range(Q.shape[1] - 2, -1, -1):
        re = re * P
        re += Q.real[:, c : c + 1]
        im = im * P
        im += Q.imag[:, c : c + 1]
    w = np.hypot(re, im)
    np.float_power(w, 2.0, out=w)
    return np.divide(np.asarray(V, dtype=float) * w, denom, out=denom)


def _row_sums(terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sum of each row's terms in column order, max |term|, at least 0)."""
    total = np.zeros(len(terms))
    for col in terms.T:
        total = total + col
    return total, np.fmax.reduce(np.abs(terms), axis=1, initial=0.0)


def _weighted_dd(P, V, Q) -> tuple[np.ndarray, np.ndarray]:
    """([x]_{f |q|^2} via the product formula, max |term| scale), row by row."""
    return _row_sums(_weighted_terms(P, V, Q))


def _linear_constraints(P, V, holes, Q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[x]_{f |q|^2} = alpha + beta * y, y = f(x_hole), row by row.

    Returns (alpha, beta, scale); V at each row's hole is ignored.  Each
    term is v * (|q|^2 / denom), the unit-weight term times v.
    """
    w = _weighted_terms(P, 1.0, Q)
    at = (np.arange(len(w)), np.asarray(holes))
    terms = np.asarray(V, dtype=float) * w
    terms[at] = 0.0
    alpha, scale = _row_sums(terms)
    beta = w[at]
    return alpha, beta, np.fmax(scale, np.abs(beta))


# ---------------------------------------------------------------------------
# genset_check


@dataclass
class GensetLevelRecord:
    """Outcome of the order-(2k-1) divided-difference sweep at one k."""

    k: int
    passed: bool
    configs: int
    worst_value: float
    witness: dict | None = None
    note: str = ""


@dataclass
class GensetReport:
    """Verdict of the finite-set monotonicity check."""

    order: int
    size: int
    rule: str
    levels: list[GensetLevelRecord]
    auxiliary_levels: list[GensetLevelRecord]
    verdict: str
    seed: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def level(self, k: int) -> GensetLevelRecord:
        for rec in self.levels + self.auxiliary_levels:
            if rec.k == k:
                return rec
        raise KeyError(k)

    def to_jsonable(self) -> dict:
        return {
            "order": self.order,
            "size": self.size,
            "rule": self.rule,
            "seed": self.seed,
            "levels": [record_jsonable({"k": r.k}, r) for r in self.levels],
            "auxiliary_levels": [record_jsonable({"k": r.k}, r) for r in self.auxiliary_levels],
            "verdict": self.verdict,
        }


@functools.lru_cache(maxsize=64)
def _combinations(m: int, size: int) -> np.ndarray:
    """Every ascending index subset of range(m) of the given size, in
    itertools.combinations order, as a read-only (comb, size) array."""
    table = np.array(list(itertools.combinations(range(m), size)), dtype=np.intp)
    table = table.reshape(-1, size)
    table.flags.writeable = False
    return table


def _index_subsets(m: int, size: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending index subsets of range(m) of the given size, one per row:
    all of them when there are at most count (rng untouched), else the
    sliding windows topped up to count with random subsets.

    The random subsets are those of sorted(rng.choice(m, size,
    replace=False)) called once per subset, drawn in one rng.integers
    call.  choice runs Floyd's algorithm (a draw in [0, j] for j =
    m-size..m-1, j itself if the draw is already in the subset) and then
    shuffles the subset (a draw in [0, i] for i = size-1..1); every one
    of these is the bounded draw integers makes against an array of
    upper bounds, so the subsets and the generator state after them are
    choice's (tested against it on numpy 2.4.6).  The shuffle's draws only
    advance the stream, since the subsets are sorted.  (choice shuffles a
    full arange instead when m > 10000 and size > m // 50, which needs a
    level of order above 100.)
    """
    if math.comb(m, size) <= count:
        return _combinations(m, size)
    windows = np.arange(m - size + 1)[:, None] + np.arange(size)
    rows = count - len(windows)
    if rows <= 0:
        return windows
    floyd = np.arange(m - size, m)
    highs = np.concatenate([floyd + 1, np.arange(size, 1, -1)])
    draws = rng.integers(0, np.tile(highs, rows)).reshape(rows, -1)[:, :size]
    for t in range(1, size):
        taken = (draws[:, :t] == draws[:, t : t + 1]).any(axis=1)
        draws[taken, t] = floyd[t]
    draws.sort(axis=1)
    return np.concatenate([windows, draws])


def _level_subsets(m: int, size: int, samples: int, rng: np.random.Generator):
    """(index rows of a level's subsets, the level's note): every subset
    repeated samples // comb times when there are at most samples of
    them, else samples sampled subsets (_index_subsets)."""
    total = math.comb(m, size)
    subsets = _index_subsets(m, size, samples, rng)
    if total > samples:
        return subsets, f"sampled from {total} subsets; all sliding windows included"
    reps = samples // total
    return np.tile(subsets, (reps, 1)), f"all {total} subsets, {reps} q draw(s) each"


def _level_q(
    rng: np.random.Generator, k: int, P: np.ndarray, span: float, idx: np.ndarray | None = None
) -> np.ndarray:
    """Coefficient rows (rows, k), complex and ascending, of the q of a
    level whose row r has the nodes P[r] and the cadence index idx[r]
    (default r), by criteria._sample_q's cadence on idx (with complex
    coefficients on odd idx):

    - idx % 4 == 0: q = 1;
    - idx % 4 == 1: complex Gaussian coefficients, degree k-1;
    - idx % 4 == 2: real, degree uniform in 1..k-1, with roots at
      uniformly chosen nodes of the row, each shifted by
      N(0, (0.5 span)^2) where idx % 8 >= 4;
    - idx % 4 == 3: complex Gaussian coefficients, degree uniform in 0..k-1.

    Every row is scaled to largest |coefficient| 1; a zero row becomes 1.
    The draws cover the whole level, kind by kind, in this order: one
    normal call for the kind-1 rows; for kind 2 an integers call for the
    degrees, one for the root nodes and a normal call for the shifted
    rows' shifts; for kind 3 an integers call for the degrees and a
    normal call.  Each call draws for every row of its kind at full
    degree, so the stream depends only on the seed and the cadence
    indices.  k = 1 draws nothing.
    """
    rows = len(P)
    Q = np.zeros((rows, k), dtype=complex)
    Q[:, 0] = 1.0
    if k == 1:
        return Q
    degrees = np.arange(k)
    idx = np.arange(rows) if idx is None else np.asarray(idx)
    slot = idx % 4

    one = np.flatnonzero(slot == 1)
    parts = rng.normal(size=(len(one), 2, k))
    Q[one] = parts[:, 0] + 1j * parts[:, 1]

    two = np.flatnonzero(slot == 2)
    deg = rng.integers(1, k, size=len(two))
    picks = rng.integers(0, P.shape[1], size=(len(two), k - 1))
    roots = np.take_along_axis(P[two], picks, axis=1)
    shifted = idx[two] % 8 >= 4
    roots[shifted] += rng.normal(scale=0.5 * span, size=(int(shifted.sum()), k - 1))
    coeffs = np.zeros((len(two), k))
    coeffs[:, 0] = 1.0
    for j in range(k - 1):
        # times (x - root j) on the rows whose degree reaches j + 1
        times = -roots[:, j : j + 1] * coeffs
        times[:, 1:] += coeffs[:, :-1]
        coeffs = np.where((j < deg)[:, None], times, coeffs)
    Q[two] = coeffs

    three = np.flatnonzero(slot == 3)
    deg = rng.integers(0, k, size=len(three))
    parts = rng.normal(size=(len(three), 2, k))
    Q[three] = np.where(degrees <= deg[:, None], parts[:, 0] + 1j * parts[:, 1], 0.0)

    peak = np.abs(Q).max(axis=1)
    live = peak > 0
    Q[live] *= (1.0 / peak[live])[:, None]
    Q[~live] = (degrees == 0).astype(complex)
    return Q


# rows of a level evaluated by one kernel call
_LEVEL_CHUNK = 2048


def _level_sweep(
    f: FiniteFunction,
    k: int,
    samples: int,
    rng: np.random.Generator,
    tol: float,
) -> GensetLevelRecord:
    m = f.size
    size = 2 * k
    if m < size:
        return GensetLevelRecord(k, True, 0, math.inf, None, "no subsets of this size")
    subsets, note = _level_subsets(m, size, samples, rng)
    P, V = np.array(f.points)[subsets], np.array(f.values)[subsets]
    Q = _level_q(rng, k, P, f.points[-1] - f.points[0])

    worst = math.inf
    worst_witness = None
    for start in range(0, len(P), _LEVEL_CHUNK):
        chunk = slice(start, start + _LEVEL_CHUNK)
        value, scale = _weighted_dd(P[chunk], V[chunk], Q[chunk])
        threshold = dd_threshold(scale, "double", tol)
        failing = np.flatnonzero(value < -threshold)
        stop = int(failing[0]) + 1 if len(failing) else len(value)
        # the first row with the least margin up to the first failure, as a
        # row-by-row sweep keeps it (a NaN margin never replaces the worst)
        margin = (value + threshold)[:stop]
        best = int(np.argmin(np.where(np.isnan(margin), np.inf, margin)))
        if margin[best] < worst:
            worst = float(margin[best])
            row = start + best
            config = {
                "k": k,
                "subset": P[row].tolist(),
                "values": V[row].tolist(),
                "q": Poly.from_coeffs(Q[row].tolist()),
            }
            worst_witness = _witness(
                "genset-dd", config, float(value[best]), float(threshold[best]), None
            )
        if len(failing):
            return GensetLevelRecord(k, False, start + stop, worst, worst_witness, note)
    return GensetLevelRecord(k, True, len(P), worst, worst_witness, note)


def genset_check(
    f: FiniteFunction,
    n: int,
    samples: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> GensetReport:
    """Finite-set n-monotonicity check.

    #F > 2n: the level k = n alone decides (ascending 2n-subsets).
    #F <= 2n: all levels k = 1..n are checked and conjoined.  For
    #F in (2n, 2n+2] the lower levels are also run and surfaced as
    auxiliary records, since the single-level reduction is sharp only
    above 2n points.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_tol(tol)
    rng = np.random.default_rng(seed)
    if f.size > 2 * n:
        rule = "k=n"
        ks = [n]
        aux_ks = list(range(1, n)) if f.size <= 2 * n + 2 else []
    else:
        rule = "all-k"
        ks = list(range(1, n + 1))
        aux_ks = []
    levels = [_level_sweep(f, k, samples, rng, tol) for k in ks]
    aux = [_level_sweep(f, k, samples, rng, tol) for k in aux_ks]
    verdict = "pass" if all(rec.passed for rec in levels) else "fail"
    return GensetReport(n, f.size, rule, levels, aux, verdict, seed)


def re_evaluate_genset_witness(witness: dict, tol: float = 1e-9) -> dict:
    """Recompute a stored genset-dd witness from its own data."""
    check_tol(tol)
    if witness.get("kind") != "genset-dd":
        raise ValueError(f"not a genset witness: {witness.get('kind')!r}")
    pts = [float(x) for x in witness["subset"]]
    vals = [float(v) for v in witness["values"]]
    q = _poly_from_jsonable(witness["q"])
    value, scale = (float(a[0]) for a in _weighted_dd([pts], [vals], _q_rows([q])))
    threshold = dd_threshold(scale, "double", tol)
    return {"value": value, "threshold": threshold, "confirmed": value < -threshold}


# ---------------------------------------------------------------------------
# Gluing


@dataclass
class GlueReport:
    """Union check of two overlapping finite functions."""

    overlap_count: int
    hypothesis_met: bool
    first: GensetReport
    second: GensetReport
    union: GensetReport
    consistent: bool

    @property
    def verdict(self) -> str:
        return self.union.verdict


def glue_check(
    f1: FiniteFunction,
    f2: FiniteFunction,
    n: int,
    samples: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> GlueReport:
    """Check that passing pieces glue to a passing union.

    The gluing statement needs at least 2n-1 shared points; with fewer,
    the union is still checked and reported, but a pass/fail mismatch
    is no longer an inconsistency.
    """
    merged = f1.union(f2, tol)
    common = sorted(set(f1.points) & set(f2.points))
    hypothesis_met = len(common) >= 2 * n - 1
    rep1 = genset_check(f1, n, samples, seed, tol)
    rep2 = genset_check(f2, n, samples, seed + 1, tol)
    rep_union = genset_check(merged, n, samples, seed + 2, tol)
    consistent = not (
        hypothesis_met and rep1.passed and rep2.passed and not rep_union.passed
    )
    return GlueReport(len(common), hypothesis_met, rep1, rep2, rep_union, consistent)


# ---------------------------------------------------------------------------
# The non-extendable counterexample


@dataclass(frozen=True)
class RationalPick:
    """Rational Pick function c - sum_k w_k / (x - p_k) with w_k > 0."""

    constant: float
    poles: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.poles) != len(self.weights):
            raise ValueError("poles and weights must have equal length")
        if any(w <= 0 for w in self.weights):
            raise ValueError("Pick form requires strictly positive weights")

    def eval(self, x: float) -> float:
        x = float(x)
        return self.constant - sum(
            w / (x - p) for w, p in zip(self.weights, self.poles)
        )

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def to_jsonable(self) -> dict:
        return {
            "constant": self.constant,
            "poles": list(self.poles),
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class CounterexampleBundle:
    """Finite function that is n-monotone but extends to no gap point.

    r1 is the residue-positive split of g (vanishing at infinity), r2
    the residue-negative split plus the constant 1; `first` names the
    one the finite function follows on the first 2n points, which is
    whichever is smaller at x_{2n+1} so that the mixed middle window
    stays nonnegative.
    """

    order: int
    finite_function: FiniteFunction
    r1: RationalPick
    r2: RationalPick
    gap_interval: tuple[float, float]
    aux_poles: tuple[float, ...]
    first: str

    @property
    def first_function(self) -> RationalPick:
        return self.r1 if self.first == "r1" else self.r2

    @property
    def last_function(self) -> RationalPick:
        return self.r2 if self.first == "r1" else self.r1

    def to_jsonable(self) -> dict:
        return {
            "order": self.order,
            "points": list(self.finite_function.points),
            "values": list(self.finite_function.values),
            "r1": self.r1.to_jsonable(),
            "r2": self.r2.to_jsonable(),
            "first": self.first,
            "gap_interval": list(self.gap_interval),
            "aux_poles": list(self.aux_poles),
        }


def build_counterexample(
    n: int,
    points,
    aux_poles,
    samples: int = 1500,
    seed: int = 0,
    tol: float = 1e-9,
) -> CounterexampleBundle:
    """Assemble the two-Pick-function bundle over 2n+2 points.

    g(z) = prod_{i=3}^{2n} (z - x_i) / prod_j (z - lambda_j) splits by
    residue sign into r2 - r1 with both parts Pick on the hull,
    r1(inf) = 0 and r2(inf) = 1.  F takes r1 on the first 2n points
    and r2 on the last 2n; the overlap is exactly where g vanishes.
    """
    if n < 2:
        raise ValueError("the construction needs order >= 2")
    pts = tuple(sorted(float(p) for p in points))
    if len(pts) != 2 * n + 2 or len(set(pts)) != len(pts):
        raise ValueError(f"need 2n+2 = {2 * n + 2} distinct points")
    poles = tuple(float(p) for p in aux_poles)
    if len(poles) != 2 * n - 2 or len(set(poles)) != len(poles):
        raise ValueError(f"need 2n-2 = {2 * n - 2} distinct auxiliary poles")
    lo, hi = pts[0], pts[-1]
    if any(lo <= p <= hi for p in poles):
        raise ValueError("auxiliary poles must lie strictly outside the point hull")

    num_roots = pts[2 : 2 * n]  # the middle 2n-2 points
    scale = max(abs(v) for v in pts + poles)
    residues = []
    for j, lam in enumerate(poles):
        num = 1.0
        for r in num_roots:
            num *= lam - r
        den = 1.0
        for k, other in enumerate(poles):
            if k != j:
                den *= lam - other
        c = num / den
        if abs(c) < 1e-12 * max(1.0, scale):
            raise ValueError(f"degenerate pole placement: residue {c} at {lam}")
        residues.append(c)

    pos = [(lam, c) for lam, c in zip(poles, residues) if c > 0]
    neg = [(lam, c) for lam, c in zip(poles, residues) if c < 0]
    if len(pos) != n - 1 or len(neg) != n - 1:
        raise ValueError(
            f"residue signs split {len(neg)}/{len(pos)}, expected {n - 1}/{n - 1}"
        )
    # g = r2 - r1 with r1(inf) = 0, r2(inf) = 1, both Pick on the hull
    r1 = RationalPick(0.0, tuple(l for l, _ in pos), tuple(c for _, c in pos))
    r2 = RationalPick(1.0, tuple(l for l, _ in neg), tuple(-c for _, c in neg))

    # The mixed window [x_2 .. x_{2n+1}] dominates the pure one only if
    # the function on the first block is the smaller at x_{2n+1}; the
    # sign of g there decides which split that is.
    g_top = r2.eval(pts[2 * n]) - r1.eval(pts[2 * n])
    first_name = "r1" if g_top > 0 else "r2"
    head = r1 if first_name == "r1" else r2
    tail = r2 if first_name == "r1" else r1

    values = [head.eval(x) for x in pts[: 2 * n]] + [tail.eval(x) for x in pts[2 * n :]]
    for x in num_roots:
        a, b = r1.eval(x), r2.eval(x)
        if abs(a - b) > 1e-10 * max(1.0, abs(a), abs(b)):
            raise ValueError(f"r1 and r2 disagree at middle point {x}")
    F = FiniteFunction(pts, tuple(values))

    gap = (pts[n], pts[n + 1])
    mid = 0.5 * (gap[0] + gap[1])
    sep = abs(r1.eval(mid) - r2.eval(mid))
    if sep <= 1e-10 * max(1.0, abs(r1.eval(mid)), abs(r2.eval(mid))):
        raise ValueError("r1 and r2 coincide on the gap interval")

    report = genset_check(F, n, samples=samples, seed=seed, tol=tol)
    if not report.passed or not all(rec.passed for rec in report.auxiliary_levels):
        raise RuntimeError(
            "bundle self-check failed: the assembled finite function is not "
            f"n-monotone at n={n} (witness {report.levels[0].witness})"
        )
    return CounterexampleBundle(n, F, r1, r2, gap, poles, first_name)


# ---------------------------------------------------------------------------
# Extension feasibility


@dataclass
class FeasibilityResult:
    """Feasible extension values at x0: the first and last double y of the
    padded y range at which every sampled constraint holds (or none), plus
    a bundle's binding solve."""

    x0: float
    feasible_intervals: list[tuple[float, float]]
    binding: dict
    constraint_count: int

    @property
    def empty(self) -> bool:
        return not self.feasible_intervals


def _windows(f: FiniteFunction, subsets: np.ndarray, x0: float):
    """(nodes, values, holes) of the index rows subsets with x0 inserted
    in order: each row's points and values, 0.0 at x0, and x0's column."""
    rows, width = subsets.shape
    nodes = np.empty((rows, width + 1))
    nodes[:, :width] = np.array(f.points)[subsets]
    nodes[:, width] = x0
    values = np.zeros((rows, width + 1))
    values[:, :width] = np.array(f.values)[subsets]
    order = np.argsort(nodes, axis=1, kind="stable")
    holes = np.argmax(order == width, axis=1)
    return (
        np.take_along_axis(nodes, order, axis=1),
        np.take_along_axis(values, order, axis=1),
        holes,
    )


def _binding_solve(f: FiniteFunction, window_idx, x0: float, q: Poly) -> float:
    """y forced by the two consecutive 2n-windows of window + {x0}.

    With q's roots at the poles of the Pick function the window values
    come from, both constraints are equalities at y = r(x0); their
    solutions must agree.
    """
    nodes, values, holes = _windows(f, np.array([window_idx]), x0)
    size = len(window_idx)
    hole = int(holes[0])
    starts = [start for start in (0, 1) if start <= hole < start + size]
    alpha, beta, scale = _linear_constraints(
        [nodes[0, start : start + size] for start in starts],
        [values[0, start : start + size] for start in starts],
        [hole - start for start in starts],
        _q_rows([q] * len(starts)),
    )
    solutions = [
        -a / b
        for a, b, s in zip(alpha.tolist(), beta.tolist(), scale.tolist())
        if not abs(b) < 1e-14 * max(1.0, s)
    ]
    if not solutions:
        raise RuntimeError("binding windows produced no solvable constraint")
    spread = max(solutions) - min(solutions)
    if spread > 1e-7 * max(1.0, max(abs(s) for s in solutions)):
        raise RuntimeError(f"binding constraints disagree: {solutions}")
    return sum(solutions) / len(solutions)


_MAGNITUDE = (1 << 63) - 1


def _key(y) -> int:
    """The place of the double y among the ordered doubles (0 at +-0)."""
    bits = int(np.float64(y).view(np.int64))
    return bits if bits >= 0 else -(bits & _MAGNITUDE)


def _double(key: int) -> np.float64:
    y = np.int64(abs(key)).view(np.float64)
    return -y if key < 0 else y


def _switch(test, lo: int, hi: int, start: int, side: bool) -> int:
    """The greatest key in [lo, hi) at which test is side, for a test that
    is side at lo, not at hi and changes once between them.  The search
    steps from start one double at a time, then in doubling steps, and
    bisects the last step."""
    k = min(max(start, lo), hi)
    step = 1
    if k < hi and test(k) == side:
        lo = k
        while True:
            k = min(lo + step, hi)
            if k == hi or test(k) != side:
                hi = k
                break
            lo, step = k, 2 * step
    else:
        hi = k
        while True:
            k = max(hi - step, lo)
            if k == lo or test(k) == side:
                lo = k
                break
            hi, step = k, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if test(mid) == side:
            lo = mid
        else:
            hi = mid
    return lo


@np.errstate(all="ignore")
def _feasible_interval(a, b, th, y_lo: float, y_hi: float) -> tuple[float, float] | None:
    """(first, last) double y in [y_lo, y_hi] at which every row's
    a + b * y >= -th holds as evaluated, or None when there is none.

    A row's test holds on a prefix or a suffix of the doubles of the range
    (float multiply and add are monotone): b > 0 gives a lower end, b < 0
    an upper end, b == 0 everywhere or nowhere, a NaN nowhere.  The one
    exception is a row with a finite, b infinite and th = inf, which fails
    at y = 0 alone (inf * 0 is NaN); with th = inf a row with a = -inf
    turns b's direction round.  So the rows are classed by their tests at
    the two ends: one that holds at neither holds nowhere, those that
    fail at y_lo and hold at y_hi fix the first double, the least at which
    they all hold, and those that hold at y_lo and fail at y_hi fix the
    last.  Each end is searched from the rows' crossings (-th - a) / b and
    then steps past y = 0 if a row fails there.  Every double in between
    passes every row, except y = 0 for such an exceptional row.
    """
    nth = -th

    def holds(y):
        return a + b * y >= nth

    def edge(rows, pick, side):
        ar, br, nr = a[rows], b[rows], nth[rows]

        def test(k):
            return bool((ar + br * _double(k) >= nr).all())

        return _switch(test, lo, hi, _key(pick((nr - ar) / br)), side)

    at_lo, at_hi = holds(y_lo), holds(y_hi)
    if not (at_lo | at_hi).all():
        return None
    lo, hi = _key(y_lo), _key(y_hi)
    rising, falling = at_hi & ~at_lo, at_lo & ~at_hi
    first = edge(rising, np.fmax.reduce, False) + 1 if rising.any() else lo
    last = edge(falling, np.fmin.reduce, True) if falling.any() else hi
    while first <= last and not holds(_double(first)).all():
        first += 1
    while first <= last and not holds(_double(last)).all():
        last -= 1
    return (float(_double(first)), float(_double(last))) if first <= last else None


def extension_feasibility(
    target,
    x0: float,
    grid: int = 10_000,
    samples: int = 600,
    seed: int = 0,
    tol: float = 1e-9,
    n: int | None = None,
) -> FeasibilityResult:
    """Feasible values y for extending the finite function to x0.

    Every constraint is linear in y: [S]_{f |q|^2} = alpha + beta y for
    a 2n-subset S containing x0, whose rows (each window q_per times
    with drawn q, then once with each special q) and q are built as
    arrays.  The answer is the first and last double of the padded y
    range at which every constraint holds as evaluated, read off the
    constraints' half-lines (_feasible_interval): exact over the sampled
    constraints, with no y-grid.  For a counterexample bundle the two
    binding windows (q with roots at the poles of r1, and the r2 mirror)
    force y = r1(x0) and y = r2(x0) simultaneously, so the feasible set
    is empty.  A bundle carries its order; an n that differs from it is
    an error.  grid no longer shapes the answer; it is kept, and checked
    to be >= 1, only for callers that still pass it.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    check_tol(tol)
    bundle = target if isinstance(target, CounterexampleBundle) else None
    if bundle is not None:
        if n is not None and n != bundle.order:
            raise ValueError(f"n = {n} conflicts with the bundle's order {bundle.order}")
        f = bundle.finite_function
        n = bundle.order
        glo, ghi = bundle.gap_interval
        if not glo < x0 < ghi:
            raise ValueError(f"x0 must lie in the gap interval ({glo}, {ghi})")
    else:
        f = target
        if n is None:
            raise ValueError("order n is required for a plain finite function")
        if not f.points[0] < x0 < f.points[-1]:
            raise ValueError("x0 must lie strictly inside the point hull")
    x0 = float(x0)
    if x0 in f.points:
        raise ValueError(f"{x0} is already a point of the finite function")

    m = f.size
    others = 2 * n - 1
    if m < others:
        raise ValueError("not enough points for a single constraint window")
    rng = np.random.default_rng(seed)
    span = max(f.points[-1], x0) - min(f.points[0], x0)

    subsets = _index_subsets(m, others, 2000, rng)
    q_per = max(1, samples // len(subsets))

    special_q = []
    if bundle is not None:
        for r in (bundle.first_function, bundle.last_function):
            if r.poles:
                special_q.append(Poly.from_roots(tuple(r.poles), 1.0))

    nodes, values, holes = _windows(f, subsets, x0)
    # every window takes q_per drawn q, on the cadence 0..q_per-1, then
    # each special q
    windows, per = len(nodes), q_per + len(special_q)
    Q = np.empty((windows, per, n), dtype=complex)
    Q[:, :q_per] = _level_q(
        rng, n, np.repeat(nodes, q_per, axis=0), span, np.tile(np.arange(q_per), windows)
    ).reshape(windows, q_per, n)
    if special_q:
        Q[:, q_per:] = _q_rows(special_q)
    a, b, scale = _linear_constraints(
        np.repeat(nodes, per, axis=0),
        np.repeat(values, per, axis=0),
        np.repeat(holes, per),
        Q.reshape(-1, n),
    )
    th = dd_threshold(scale, "double", tol)

    if bundle is not None:
        y_marks = (bundle.r1.eval(x0), bundle.r2.eval(x0))
    else:
        y_marks = (min(f.values), max(f.values))
    y_lo, y_hi = min(y_marks), max(y_marks)
    pad = 0.2 * max(y_hi - y_lo, 1e-3 * max(1.0, abs(y_lo), abs(y_hi)))
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not math.isfinite(y_hi - y_lo):
        raise ValueError(f"the y range ({y_lo!r}, {y_hi!r}) overflows a double")
    run = _feasible_interval(a, b, th, y_lo, y_hi)

    binding = {}
    if bundle is not None:
        first_w = tuple(range(0, 2 * n))
        last_w = tuple(range(2, 2 * n + 2))
        other = "r2" if bundle.first == "r1" else "r1"
        binding[bundle.first] = _binding_solve(f, first_w, x0, special_q[0])
        binding[other] = _binding_solve(f, last_w, x0, special_q[1])

    return FeasibilityResult(x0, [run] if run else [], binding, len(a))


# ---------------------------------------------------------------------------
# Affine rigidity on unbounded sets


@dataclass
class RigidityRecord:
    m: float
    constraint_value: float
    bound: float
    violated: bool


@dataclass
class RigidityReport:
    """Per-M constraint records for the asymptotic-affineness argument."""

    triple: tuple[float, float, float]
    second_dd: float
    weighted_dd: float
    records: list[RigidityRecord]
    verdict: str
    fit_exponent: float | None

    @property
    def passed(self) -> bool:
        return self.verdict == "affine-consistent"


def affine_rigidity_check(
    f: FiniteFunction,
    triple,
    m_values=None,
    tol: float = 1e-9,
) -> RigidityReport:
    """Constraint forcing second divided differences to vanish as F widens.

    For M in F, [x, y, z, M]_{f (t-M)^2} = E - M D with D = [x,y,z]_f
    and E = [x,y,z]_{t f(t)} (the f(M) term carries a (M-M)^2 factor).
    n-monotonicity (n >= 2) makes this nonnegative for every M of both
    signs, so |D| <= |E| / |M| -> 0: only asymptotically affine
    functions survive on unbounded sets.
    """
    check_tol(tol)
    triple = tuple(sorted(float(t) for t in triple))
    if len(set(triple)) != 3:
        raise ValueError("need three distinct base points")
    for t in triple:
        if t not in f.points:
            raise ValueError(f"base point {t} is not in the finite set")
    tmax = max(abs(t) for t in triple)
    if m_values is None:
        cut = 2.0 * max(tmax, 1.0)
        m_values = [p for p in f.points if abs(p) > cut]
    ms = [float(m) for m in m_values]
    for m in ms:
        if m not in f.points:
            raise ValueError(f"M value {m} is not in the finite set")
        if m in triple:
            raise ValueError(f"M value {m} is a base point")
    if not any(m > tmax for m in ms) or not any(m < -tmax for m in ms):
        raise ValueError(
            "insufficient spread: need M values beyond the triple on both sides"
        )

    pts = list(triple)
    vals = [f.value_at(t) for t in triple]
    value, _ = _weighted_dd(
        [pts, pts], [vals, [t * v for t, v in zip(pts, vals)]], _q_rows([Poly.of(1.0)] * 2)
    )
    d_val, e_val = value.tolist()

    records = []
    for m in sorted(ms, key=abs):
        value = e_val - m * d_val
        scale = max(1.0, abs(e_val), abs(m * d_val))
        bound = abs(e_val) / abs(m)
        records.append(RigidityRecord(m, value, bound, value < -tol * scale))

    verdict = "affine-consistent" if not any(r.violated for r in records) else "violated"
    fit = None
    mags = sorted({abs(r.m) for r in records})
    if len(mags) >= 2 and all(r.bound > 0 for r in records):
        xs = np.log([abs(r.m) for r in records])
        ys = np.log([r.bound for r in records])
        fit = float(np.polyfit(xs, ys, 1)[0])
    return RigidityReport(triple, d_val, e_val, records, verdict, fit)
