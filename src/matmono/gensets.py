"""Monotonicity on finite sets, gluing, and the non-extendability example.

On a finite set F, n-monotonicity is equivalent to nonnegativity of
the divided differences [x_{i_0}, ..., x_{i_{2k-1}}]_{f N(q)} over
ascending subsets of F and polynomials q of degree < k, for every
k = 1..n; when #F > 2n the single level k = n suffices.  The checks
here evaluate N(q) pointwise as |q(x)|^2, so the weights are exactly
nonnegative and a clean function never produces a spurious violation.

One float64 kernel (_weighted_terms) evaluates the product formula
over stacked rows of nodes, values and q coefficients.  A level sweep
draws its q in generator order and evaluates them in batches of 1, 2,
4, ..., SWEEP_BATCH rows (divdiff.sweep_batches), stopping at the first
violating row; extension feasibility evaluates all of its constraints
in one call, and replay is a one-row call.  Each row gets the
operations of the one-term-at-a-time formula in the same order, so
reports do not depend on the batch size.

The counterexample construction assembles a finite function from two
distinct rational Pick functions that agree on the middle points; it
is n-monotone on F but admits no n-monotone extension to any point of
the gap interval, which extension_feasibility exhibits as a pair of
contradictory binding constraints.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .criteria import _poly_from_jsonable, _sample_q, _witness
from .divdiff import dd_threshold, sweep_batches
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

    def with_point(self, x: float, y: float) -> "FiniteFunction":
        if float(x) in self.points:
            raise ValueError(f"{x} is already a point")
        return FiniteFunction.from_pairs(
            list(zip(self.points, self.values)) + [(x, y)]
        )

    def union(self, other: "FiniteFunction", tol: float = 1e-9) -> "FiniteFunction":
        """Merge two tables; common points must carry equal values."""
        merged = dict(zip(self.points, self.values))
        for x, y in zip(other.points, other.values):
            if x in merged and abs(merged[x] - y) > tol * max(1.0, abs(y)):
                raise ValueError(f"inconsistent values at shared point {x}")
            merged.setdefault(x, y)
        return FiniteFunction.from_pairs(merged.items())

    def restrict(self, points) -> "FiniteFunction":
        keep = set(float(p) for p in points)
        pairs = [(x, y) for x, y in zip(self.points, self.values) if x in keep]
        if len(pairs) != len(keep):
            raise ValueError("restriction contains points outside the set")
        return FiniteFunction.from_pairs(pairs)


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
    abs(z) ** 2 in about 1 of 1200 doubles).
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=complex)
    diff = P[:, :, None] - P[:, None, :]
    idx = np.arange(P.shape[1])
    diff[:, idx, idx] = 1.0
    denom = np.ones_like(P)
    for j in idx:
        denom = denom * diff[:, :, j]
    re, im = Q.real[:, -1:], Q.imag[:, -1:]
    for c in range(Q.shape[1] - 2, -1, -1):
        re = re * P + Q.real[:, c : c + 1]
        im = im * P + Q.imag[:, c : c + 1]
    return np.asarray(V, dtype=float) * np.float_power(np.hypot(re, im), 2.0) / denom


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
        def level_json(rec: GensetLevelRecord) -> dict:
            out = {
                "k": rec.k,
                "verdict": "pass" if rec.passed else "fail",
                "configs": rec.configs,
                "worst_value": rec.worst_value,
            }
            if rec.note:
                out["note"] = rec.note
            if not rec.passed and rec.witness is not None:
                out["witness"] = rec.witness
            return out

        return {
            "order": self.order,
            "size": self.size,
            "rule": self.rule,
            "seed": self.seed,
            "levels": [level_json(r) for r in self.levels],
            "auxiliary_levels": [level_json(r) for r in self.auxiliary_levels],
            "verdict": self.verdict,
        }


def _index_subsets(m: int, size: int, count: int, rng: np.random.Generator) -> list[tuple]:
    """Ascending index subsets of range(m) of the given size: all of them
    when there are at most count, else the sliding windows topped up to
    count with rng.choice draws."""
    if math.comb(m, size) <= count:
        return list(itertools.combinations(range(m), size))
    subsets = [tuple(range(i, i + size)) for i in range(m - size + 1)]
    while len(subsets) < count:
        subsets.append(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
    return subsets


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
    span = f.points[-1] - f.points[0]
    total = math.comb(m, size)
    subsets = _index_subsets(m, size, samples, rng)
    if total <= samples:
        reps = samples // total
        subsets = subsets * reps
        note = f"all {total} subsets, {reps} q draw(s) each"
    else:
        note = f"sampled from {total} subsets; all sliding windows included"
    points, values = np.array(f.points), np.array(f.values)

    def draw(idx: int) -> Poly:
        nodes = operator.itemgetter(*subsets[idx])(f.points)
        return _sample_q(rng, k - 1, nodes, span, idx, bool(idx % 2))

    worst = math.inf
    worst_witness = None
    start = 0
    state = rng.bit_generator.state
    for qs in sweep_batches(draw, len(subsets)):
        rows = np.array(subsets[start : start + len(qs)])
        P, V = points[rows], values[rows]
        value, scale = _weighted_dd(P, V, _q_rows(qs))
        threshold = np.array([dd_threshold(s, "double", tol) for s in scale.tolist()])
        failing = np.flatnonzero(value < -threshold)
        stop = int(failing[0]) + 1 if len(failing) else len(qs)
        # the first row with the least margin up to the first failure, as a
        # row-by-row sweep keeps it (a NaN margin never replaces the worst)
        margin = (value + threshold)[:stop]
        best = int(np.argmin(np.where(np.isnan(margin), np.inf, margin)))
        if margin[best] < worst:
            worst = float(margin[best])
            config = {"k": k, "subset": P[best].tolist(), "values": V[best].tolist(), "q": qs[best]}
            worst_witness = _witness(
                "genset-dd", config, float(value[best]), float(threshold[best]), None
            )
        if len(failing):
            # the levels of one check share rng: leave it after the failing
            # row's draw, where a row-by-row sweep stops
            rng.bit_generator.state = state
            for idx in range(start, start + stop):
                draw(idx)
            return GensetLevelRecord(k, False, start + stop, worst, worst_witness, note)
        start += len(qs)
        state = rng.bit_generator.state
    return GensetLevelRecord(k, True, len(subsets), worst, worst_witness, note)


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

# grid columns scanned at a time against every constraint
_GRID_CHUNK = 256


@dataclass
class FeasibilityResult:
    """Feasible extension values at x0, from grid scan plus binding solve."""

    x0: float
    feasible_intervals: list[tuple[float, float]]
    binding: dict
    constraint_count: int

    @property
    def empty(self) -> bool:
        return not self.feasible_intervals


def _binding_solve(f: FiniteFunction, window_idx, x0: float, q: Poly) -> float:
    """y forced by the two consecutive 2n-windows of window + {x0}.

    With q's roots at the poles of the Pick function the window values
    come from, both constraints are equalities at y = r(x0); their
    solutions must agree.
    """
    pts = sorted([f.points[i] for i in window_idx] + [x0])
    size = len(pts) - 1
    vals = [f.value_at(x) if x != x0 else 0.0 for x in pts]
    starts = [start for start in (0, 1) if x0 in pts[start : start + size]]
    subs = [pts[start : start + size] for start in starts]
    alpha, beta, scale = _linear_constraints(
        subs,
        [vals[start : start + size] for start in starts],
        [sub.index(x0) for sub in subs],
        _q_rows([q] * len(subs)),
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
    a 2n-subset S containing x0.  The grid scan over y is a safety
    net; for a counterexample bundle the two binding windows (q with
    roots at the poles of r1, and the r2 mirror) force y = r1(x0) and
    y = r2(x0) simultaneously, so the feasible set is empty.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    bundle = target if isinstance(target, CounterexampleBundle) else None
    if bundle is not None:
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
    size = 2 * n
    others = size - 1
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

    P, V, holes, qs = [], [], [], []
    for subset in subsets:
        pts = sorted([f.points[i] for i in subset] + [x0])
        hole = pts.index(x0)
        vals = [f.value_at(x) if x != x0 else 0.0 for x in pts]
        draws = [
            _sample_q(rng, n - 1, tuple(pts), span, idx, bool(idx % 2))
            for idx in range(q_per)
        ]
        for q in draws + special_q:
            P.append(pts)
            V.append(vals)
            holes.append(hole)
            qs.append(q)
    a, b, scale = _linear_constraints(P, V, holes, _q_rows(qs))
    th = np.array([dd_threshold(s, "double", tol) for s in scale.tolist()])

    if bundle is not None:
        y_marks = (bundle.r1.eval(x0), bundle.r2.eval(x0))
    else:
        y_marks = (min(f.values), max(f.values))
    y_lo, y_hi = min(y_marks), max(y_marks)
    pad = 0.2 * max(y_hi - y_lo, 1e-3 * max(1.0, abs(y_lo), abs(y_hi)))
    y_lo, y_hi = y_lo - pad, y_hi + pad
    ys = np.linspace(y_lo, y_hi, grid)
    # column chunks keep the (constraints x chunk) temporaries small
    feasible = np.empty(grid, dtype=bool)
    for lo in range(0, grid, _GRID_CHUNK):
        cols = ys[lo : lo + _GRID_CHUNK]
        feasible[lo : lo + len(cols)] = (
            (a[:, None] + b[:, None] * cols[None, :]) >= -th[:, None]
        ).all(axis=0)

    # each constraint holds on a prefix or a suffix of the ascending grid
    # (float multiply and add are monotone), so the feasible points form
    # at most one run
    run = np.flatnonzero(feasible)
    intervals = [(float(ys[run[0]]), float(ys[run[-1]]))] if len(run) else []

    binding = {}
    if bundle is not None:
        first_w = tuple(range(0, 2 * n))
        last_w = tuple(range(2, 2 * n + 2))
        other = "r2" if bundle.first == "r1" else "r1"
        binding[bundle.first] = _binding_solve(f, first_w, x0, special_q[0])
        binding[other] = _binding_solve(f, last_w, x0, special_q[1])

    return FeasibilityResult(x0, intervals, binding, len(qs))


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
