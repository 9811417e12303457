"""Divided differences over node multisets, and their integral weight.

The confluent (Hermite) table seeds repeated-node blocks with the Taylor
jet f^(j)(x)/j! of the function model (times the jet of an optional
polynomial weight), so multisets like (x, x, y, y) are first-class.

Tables run in double precision a batch at a time, over (rows, nodes)
arrays, and carry a running error bound (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 3).  One rule, double_settles, decides from
that bound whether a double result stands; a table it does not settle is
recomputed in extended precision, with digits scaled to the node gaps.

peano_weight returns the density w with
    [x_0, ..., x_n]_f = int f^(n)(t)/n! * w(t) dt,
a B-spline over the node multiset normalized to integral 1 (the
normalization is forced by f = x^n, where both sides equal 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .expr import EXTENDED_DIGITS, cauchy
from .polynomial import Poly

# Running error bound of a double table.  A seed g_k = sum_j w_j f_(k-j)
# (weight w = sum_i c_i t^i) errs by at most SEED_ERROR * eps *
# sum_j |f_(k-j)| W_j, W the jet of the Horner bound sum_i |c_i| |t|^i at
# |x|; a difference quotient adds (E[i+1] + E[i]) / |gap| plus
# STEP_ERROR * eps * |entry| for its own subtraction and division.
_EPS = float(np.finfo(float).eps)
SEED_ERROR = 64.0
STEP_ERROR = 4.0
# a standalone value stays double when its bound is within this share of it
VALUE_RTOL = 1e-12
# sweeps evaluate their draws in batches of 1, 2, 4, ..., SWEEP_BATCH rows
SWEEP_BATCH = 256


@dataclass(frozen=True)
class NodeMultiset:
    """Sorted nodes with multiplicities; (value, multiplicity) pairs."""

    nodes: tuple[tuple[float, int], ...]

    @staticmethod
    def from_points(points) -> "NodeMultiset":
        vals = sorted(float(p) for p in points)
        if not vals:
            raise ValueError("empty node multiset")
        pairs: list[tuple[float, int]] = []
        for v in vals:
            if pairs and pairs[-1][0] == v:
                pairs[-1] = (v, pairs[-1][1] + 1)
            else:
                pairs.append((v, 1))
        return NodeMultiset(tuple(pairs))

    @staticmethod
    def from_pairs(pairs) -> "NodeMultiset":
        pairs = tuple((float(v), int(m)) for v, m in pairs)
        if not pairs:
            raise ValueError("empty node multiset")
        for (v0, m0), (v1, _) in zip(pairs, pairs[1:]):
            if not v0 < v1:
                raise ValueError("node values must be strictly increasing")
        if any(m < 1 for _, m in pairs):
            raise ValueError("multiplicities must be >= 1")
        return NodeMultiset(pairs)

    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.nodes)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.nodes)

    def flatten(self) -> tuple[float, ...]:
        return tuple(
            itertools.chain.from_iterable([v] * m for v, m in self.nodes)
        )

    @property
    def total(self) -> int:
        return sum(m for _, m in self.nodes)

    @property
    def order(self) -> int:
        return self.total - 1

    @property
    def max_multiplicity(self) -> int:
        return max(m for _, m in self.nodes)

    def is_distinct(self) -> bool:
        return self.max_multiplicity == 1

    def min_gap(self) -> float:
        vals = self.values()
        if len(vals) < 2:
            return math.inf
        return min(b - a for a, b in zip(vals, vals[1:]))

    def hull(self) -> tuple[float, float]:
        vals = self.values()
        return vals[0], vals[-1]


def _as_multiset(nodes) -> NodeMultiset:
    if isinstance(nodes, NodeMultiset):
        return nodes
    return NodeMultiset.from_points(nodes)


def double_settles(value, bound, threshold=None) -> bool:
    """The precision rule of every divided-difference table.

    A double-precision result with running error bound `bound` stands
    when the bound cannot change the answer asked of it.  A sign test
    with tolerance `threshold` (a sweep row, whose margin is value +
    threshold) stands when value - bound + threshold >= 0 proves the
    margin nonnegative; a standalone value (threshold None) stands when
    the bound is within VALUE_RTOL * |value|.  Anything else is
    recomputed in extended precision.
    """
    if threshold is None:
        return bound <= VALUE_RTOL * abs(value)
    return value - bound + threshold >= 0.0


def sweep_batches(draw, samples: int):
    """draw(0), ..., draw(samples - 1) in lists of 1, 2, 4, ..., SWEEP_BATCH.

    A sweep that fails at its first rows evaluates few extra ones; a long
    sweep runs one table per batch.  Draws keep their order, so a sweep's
    result does not depend on the batch size.
    """
    start, size = 0, 1
    while start < samples:
        stop = min(start + size, samples)
        yield [draw(idx) for idx in range(start, stop)]
        start, size = stop, min(2 * size, SWEEP_BATCH)


def _poly_jets(coeffs: np.ndarray, z: np.ndarray, count: int) -> list:
    """[p_r^(k)(z_r)/k! for k < count] of the polynomials whose ascending
    coefficients are the rows of coeffs, at the node rows z, by the
    repeated synthetic division of Poly.taylor."""
    cols, out = list(coeffs[:, :, None].transpose(1, 0, 2)), []
    for _ in range(count):
        acc, partial = 0.0 * z, []
        for c in reversed(cols):
            acc = acc * z + c
            partial.append(acc)
        out.append(acc)
        cols = partial[-2::-1]
    return out


def _hermite_batch(f, z: np.ndarray, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton/Hermite tables over the sorted node rows z (rows, nodes):
    (value, max |table entry|, running error bound), one per row."""
    rows, m = z.shape
    K = 1  # longest run of equal nodes in any row
    while K < m and (z[:, K:] == z[:, :-K]).any():
        K += 1
    fjet = [c if isinstance(c, np.ndarray) else np.full(z.shape, c) for c in f.taylor(z, K)]
    fabs = [np.abs(c) for c in fjet]
    if weights is None:
        seeds, seed_err = fjet, fabs
    else:
        d = max(len(w.coeffs) for w in weights) or 1
        coeffs = np.array([w.real_coeffs() + (0.0,) * (d - len(w.coeffs)) for w in weights])
        # the weight's jet and the jet of its Horner bound in one pass
        both = _poly_jets(np.concatenate([coeffs, np.abs(coeffs)]), np.concatenate([z, np.abs(z)]), K)
        seeds = cauchy([c[:rows] for c in both], fjet, K)
        seed_err = cauchy([c[rows:] for c in both], fabs, K)
    seed_err = [SEED_ERROR * _EPS * e for e in seed_err]
    col, err = seeds[0], seed_err[0]
    entries = np.empty((rows, m * (m + 1) // 2))  # |table entries|, column by column
    entries[:, :m] = np.abs(col)
    at = m
    for j in range(1, m):
        gap = z[:, j:] - z[:, :-j]
        if j < K:
            same = gap == 0.0
            gap[same] = 1.0
        col = (col[:, 1:] - col[:, :-1]) / gap
        if j < K:
            col = np.where(same, seeds[j][:, : m - j], col)
        size = np.abs(col)
        entries[:, at : at + m - j] = size
        at += m - j
        err = (err[:, 1:] + err[:, :-1]) / gap + (STEP_ERROR * _EPS) * size
        if j < K:
            err = np.where(same, seed_err[j][:, : m - j], err)
    return col[:, 0], entries.max(axis=1), err[:, 0]


def divided_differences(f, rows, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Double-precision divided differences of many node multisets at once.

    rows are node sequences (repeats allowed, any order); weights, if
    given, holds one real Poly per row.  Returns float arrays (value,
    scale, bound): [row]_{f * weight}, the largest |table entry| and a
    running bound on the value's error.  Rows with the same node count
    share one Newton/Hermite table over (rows, nodes) arrays.
    """
    groups: dict[int, list[int]] = {}
    for r, z in enumerate(rows):
        groups.setdefault(len(z), []).append(r)
    if len(groups) == 1:
        return _hermite_batch(f, np.sort(np.array(rows, dtype=float), axis=1), weights)
    out = np.empty((3, len(rows)))
    for idx in groups.values():
        z = np.sort(np.array([rows[r] for r in idx], dtype=float), axis=1)
        out[:, idx] = _hermite_batch(f, z, None if weights is None else [weights[r] for r in idx])
    return out[0], out[1], out[2]


def _seed_values(f, nodes: NodeMultiset, weight: Poly | None, digits: int):
    """Jets [g^(j)(v)/j! for j < multiplicity] of g = f * weight at each node,
    in mpmath at the working precision."""
    seeds = {}
    for v, m in nodes.nodes:
        seeds[v] = f.taylor(v, m, "extended", digits)
        if weight is not None:
            seeds[v] = cauchy(weight.taylor(mpmath.mpf(v), m), seeds[v], m)
    return seeds


def _dd_table(f, nodes: NodeMultiset, precision: str, weight: Poly | None, digits: int):
    """Newton/Hermite table of one multiset: (value, max |table entry|, bound).

    Double precision is a batch of one row.  Extended precision runs the
    recursion in mpmath at `digits`; its bound is the rounding of the
    value to a float.
    """
    if precision == "double":
        batch = divided_differences(f, [nodes.flatten()], None if weight is None else [weight])
        return tuple(float(a[0]) for a in batch)
    z = nodes.flatten()
    m = len(z)
    with mpmath.workdps(digits):
        seeds = _seed_values(f, nodes, weight, digits)
        # node gaps must be formed at working precision: a double-rounded
        # denominator under an exact numerator breaks the cancellations
        # the recursion relies on
        zv = [mpmath.mpf(v) for v in z]
        col = [seeds[z[i]][0] for i in range(m)]
        max_abs = max(abs(c) for c in col)
        for j in range(1, m):
            nxt = []
            for i in range(m - j):
                if z[i + j] == z[i]:
                    entry = seeds[z[i]][j]
                else:
                    entry = (col[i + 1] - col[i]) / (zv[i + j] - zv[i])
                nxt.append(entry)
                if abs(entry) > max_abs:
                    max_abs = abs(entry)
            col = nxt
        value = float(col[0])
    return value, float(max_abs), _EPS * abs(value)


def divided_difference(
    f, nodes, precision: str = "auto", weight: Poly | None = None
) -> float:
    """Divided difference [nodes]_g with g = f * weight (weight optional).

    f is a FunctionModel, whose Taylor jets seed repeated nodes; weight
    is a real polynomial whose jet multiplies the seeds.
    precision is "double", "extended", or "auto".  A double table carries
    a running error bound: each seed errs by at most 64 eps times the
    product of |f|'s jet with the jet of the weight's Horner bound
    sum_i |c_i| |x|^i, and each column adds (E[i+1] + E[i]) / |gap| +
    4 eps |entry|.  "auto" keeps the double value when that bound is
    within VALUE_RTOL of it (double_settles) and otherwise recomputes the
    table in extended precision, with digits growing with
    order * log10(1 / min gap), and never fewer than EXTENDED_DIGITS.
    """
    value, _ = divided_difference_scaled(f, nodes, precision, weight)
    return value


def divided_difference_scaled(
    f, nodes, precision: str = "auto", weight: Poly | None = None
) -> tuple[float, float]:
    """Like divided_difference, also returns max |table entry|.

    The second value scales the attainable roundoff: the recursion's
    absolute error is bounded by a small multiple of eps * that max.
    """
    if precision not in ("auto", "double", "extended"):
        raise ValueError(f"unsupported precision mode {precision!r}")
    ms = _as_multiset(nodes)
    if precision != "extended":
        value, scale, bound = _dd_table(f, ms, "double", weight, EXTENDED_DIGITS)
        if precision == "double" or double_settles(value, bound):
            return value, scale
    digits = max(EXTENDED_DIGITS, _needed_digits(ms))
    value, scale, _ = _dd_table(f, ms, "extended", weight, digits)
    return value, scale


def _needed_digits(nodes: NodeMultiset) -> int:
    """Working precision that keeps the table roundoff near 1e-12.

    Seed errors can grow by up to gap^-order through the recursion, so
    the digit count must scale with order * log10(1/gap); a fixed
    allotment silently returns noise for very tight clusters.
    """
    gap = nodes.min_gap()
    if not math.isfinite(gap) or gap <= 0 or gap >= 1:
        return EXTENDED_DIGITS
    return min(400, int(nodes.order * math.log10(1.0 / gap)) + 30)


def dd_threshold(max_entry: float, precision: str, tol: float) -> float:
    """Threshold of every divided-difference sign test (value >= -threshold):
    tol, or the roundoff bound of a table with largest |entry| max_entry."""
    eps = 2.3e-16 if precision == "double" else 10.0 ** (1 - EXTENDED_DIGITS)
    return max(tol, 64.0 * eps * max(max_entry, 1.0))


# ---------------------------------------------------------------------------
# Refinement: one multiset's divided difference as a nonnegative
# combination of sliding windows of a finer node sequence


def refinement_coefficients(x, y) -> list[float]:
    """Coefficients t_j >= 0 with [x]_f = sum_j t_j [y_j..y_{j+k}]_f.

    x (k+1 distinct nodes) must be a subset of y (n+1 distinct nodes);
    the windows are the consecutive (k+1)-tuples of y.  Built by
    inserting the nodes of y \\ x one at a time; each insertion splits
    every straddled window into a convex combination of its two
    neighbors, so nonnegativity is structural.
    """
    xs = list(_as_multiset(x).values())
    ys = list(_as_multiset(y).values())
    if _as_multiset(x).max_multiplicity > 1 or _as_multiset(y).max_multiplicity > 1:
        raise ValueError("refinement needs distinct nodes")
    if not set(xs) <= set(ys):
        raise ValueError("x is not a subsequence of y")
    k = len(xs) - 1
    seq = xs[:]
    coeffs = {0: 1.0}  # window start index -> coefficient
    for w in sorted(set(ys) - set(xs)):
        pos = 0
        while pos < len(seq) and seq[pos] < w:
            pos += 1
        nxt: dict[int, float] = {}

        def bump(idx: int, c: float):
            nxt[idx] = nxt.get(idx, 0.0) + c

        for i, c in coeffs.items():
            if i + k < pos:
                bump(i, c)
            elif i >= pos:
                bump(i + 1, c)
            else:
                # window elements seq[i..i+k] straddle w
                t = (w - seq[i]) / (seq[i + k] - seq[i])
                bump(i, c * t)
                bump(i + 1, c * (1.0 - t))
        seq.insert(pos, w)
        coeffs = nxt
    return [coeffs.get(j, 0.0) for j in range(len(ys) - k)]


# ---------------------------------------------------------------------------
# Peano weight: normalized B-spline over the node multiset


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial over consecutive breakpoints; zero outside.

    pieces[i] is written in the local variable t - breakpoints[i]: the
    global monomial basis is unusable here, since spline coefficients in
    it grow like (node / gap)^degree and their rounding alone can cost
    eight digits on clustered knots.
    """

    breakpoints: tuple[float, ...]
    pieces: tuple[Poly, ...]

    def __post_init__(self):
        if len(self.pieces) != len(self.breakpoints) - 1:
            raise ValueError("need one piece per breakpoint interval")

    def eval(self, t: float) -> float:
        bp = self.breakpoints
        if t < bp[0] or t > bp[-1]:
            return 0.0
        for i in range(len(self.pieces)):
            if t <= bp[i + 1]:
                return float(self.pieces[i].eval(t - bp[i]).real)
        return 0.0

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            return np.array([self.eval(float(v)) for v in t])
        return self.eval(t)

    def integral(self) -> float:
        total = 0.0
        for i, piece in enumerate(self.pieces):
            anti = piece.antiderivative()
            width = self.breakpoints[i + 1] - self.breakpoints[i]
            total += anti.eval(width).real
        return total

    def support(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    def scale(self, s: float) -> "PiecewisePoly":
        return PiecewisePoly(self.breakpoints, tuple(p.scale(s) for p in self.pieces))

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        if self.breakpoints != other.breakpoints:
            raise ValueError("breakpoint mismatch")
        return PiecewisePoly(
            self.breakpoints, tuple(a + b for a, b in zip(self.pieces, other.pieces))
        )

    def mul_linear(self, c0: float, c1: float) -> "PiecewisePoly":
        """Multiply by the affine polynomial c0 + c1 * t."""
        # rewritten per piece in its local variable: c0 + c1 * (s + bp_i)
        return PiecewisePoly(
            self.breakpoints,
            tuple(
                p * Poly.of(c0 + c1 * b, c1)
                for p, b in zip(self.pieces, self.breakpoints)
            ),
        )


def peano_weight(nodes) -> PiecewisePoly:
    """Density w with [nodes]_f = int f^(n)(t)/n! w(t) dt, int w = 1.

    w is the B-spline over the flattened knot vector (multiplicities
    allowed up to the spline degree + 1), supported on the node hull.
    Degenerate one-point multisets (zero-width hull) are rejected.
    """
    ms = _as_multiset(nodes)
    z = ms.flatten()
    n = ms.order
    if n < 1 or z[0] == z[-1]:
        raise ValueError("peano weight needs nodes with nonzero span")
    bp = ms.values()
    zero = PiecewisePoly(bp, tuple(Poly() for _ in range(len(bp) - 1)))

    def indicator(lo: float, hi: float) -> PiecewisePoly:
        pieces = []
        for i in range(len(bp) - 1):
            inside = lo <= bp[i] and bp[i + 1] <= hi
            pieces.append(Poly.of(1.0) if inside else Poly())
        return PiecewisePoly(bp, tuple(pieces))

    degree = n - 1
    # Cox-de Boor over knots z_0..z_n; basis[i] is N_{i,r} at level r
    basis = [indicator(z[i], z[i + 1]) for i in range(n)]
    for r in range(1, degree + 1):
        nxt = []
        for i in range(n - r):
            left = zero
            right = zero
            if z[i + r] != z[i]:
                s = 1.0 / (z[i + r] - z[i])
                left = basis[i].mul_linear(-z[i] * s, s)
            if z[i + r + 1] != z[i + 1]:
                s = 1.0 / (z[i + r + 1] - z[i + 1])
                right = basis[i + 1].mul_linear(z[i + r + 1] * s, -s)
            nxt.append(left + right)
        basis = nxt
    spline = basis[0]
    total = spline.integral()
    return spline.scale(1.0 / total)


# ---------------------------------------------------------------------------
# Node sampling and the record of a sampled check


# Node sampler shape: share of cluster draws (width scale * span, scales
# in turn), the end margin as a share of the span, and the minimum gap of
# a free draw as span / SEPARATION_PARTS.
CLUSTER_FRACTION = 0.3
CLUSTER_SCALES = (1e-1, 1e-2, 1e-3)
MARGIN_FRACTION = 1e-6
SEPARATION_PARTS = 1000.0


def _halton(index: int, base: int) -> float:
    f = 1.0
    r = 0.0
    i = index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def sample_distinct_tuple(
    rng: np.random.Generator,
    count: int,
    interval: tuple[float, float],
    index: int,
) -> np.ndarray:
    """One ascending tuple of `count` >= 1 distinct nodes strictly inside
    the interval lo < hi; every sampled check draws its nodes here."""
    a, b = interval
    if count < 1:
        raise ValueError(f"node count must be >= 1, got {count}")
    if not a < b:
        raise ValueError(f"interval ({a}, {b}) is empty: need lo < hi")
    span = b - a
    margin = span * MARGIN_FRACTION
    delta = span / SEPARATION_PARTS
    u = rng.uniform(size=count)
    if index % 3 == 0:
        u = np.array(
            [_halton(index + 1, _HALTON_BASES[d % len(_HALTON_BASES)]) for d in range(count)]
        )
        u = 0.999 * u + 0.0005
    if rng.uniform() < CLUSTER_FRACTION:
        scale = CLUSTER_SCALES[index % len(CLUSTER_SCALES)]
        center = rng.uniform(a + margin, b - margin)
        width = scale * span
        x = center + width * (np.sort(u) - 0.5)
        x = np.clip(x, a + margin, b - margin)
        # force strict ascent; duplicates collapse to tiny separations
        eps = max(width, 4 * margin) * 1e-9
        for i in range(1, count):
            if x[i] <= x[i - 1]:
                x[i] = x[i - 1] + eps
        if x[-1] >= b - margin:
            x -= x[-1] - (b - margin)
        return x
    free = span - 2 * margin - (count - 1) * delta
    if free <= 0:
        raise ValueError("interval too small for the requested separation")
    return a + margin + free * np.sort(u) + delta * np.arange(count)


@dataclass
class CriterionRecord:
    """Outcome of one sampled check (a criterion sweep, a matrix oracle or
    the k-tone check); true when it passed.  worst_value is the least
    margin seen, or for an oracle the least defect eigenvalue over its
    scale; witness holds the configuration where it was seen."""

    criterion: str
    passed: bool
    configs: int
    worst_value: float
    witness: dict | None = None
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed

    def to_jsonable(self) -> dict:
        out = {
            "id": self.criterion,
            "verdict": "pass" if self.passed else "fail",
            "configs": self.configs,
            "worst_value": self.worst_value,
        }
        if self.note:
            out["note"] = self.note
        if not self.passed and self.witness is not None:
            out["witness"] = self.witness
        return out
