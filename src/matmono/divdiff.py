"""Divided differences over node multisets, and their integral weight.

The confluent (Hermite) table seeds repeated-node blocks with the Taylor
jet f^(j)(x)/j! of the function model (times the jet of an optional
polynomial weight), so multisets like (x, x, y, y) are first-class.  High
orders and near-coincident nodes are numerically hostile in double
precision; the table switches to extended precision automatically when
the order or the node separation crosses the configured thresholds.

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

from .expr import EXTENDED_DIGITS, FunctionModel, cauchy
from .polynomial import Poly

# auto-switch thresholds: divided differences of this order or with any
# two distinct nodes closer than this run in extended precision
EXTENDED_ORDER_THRESHOLD = 6
EXTENDED_GAP_THRESHOLD = 1e-3


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


def _choose_precision(nodes: NodeMultiset, precision: str) -> str:
    if precision in ("double", "extended"):
        return precision
    if precision != "auto":
        raise ValueError(f"unsupported precision mode {precision!r}")
    if nodes.order >= EXTENDED_ORDER_THRESHOLD:
        return "extended"
    gap = nodes.min_gap()
    if gap < EXTENDED_GAP_THRESHOLD:
        return "extended"
    # seed roundoff can amplify by up to gap^-order through the table;
    # escalate whenever that would push the error above ~1e-11
    if math.isfinite(gap) and gap**nodes.order < 2.2e-5:
        return "extended"
    return "double"


def _seed_values(f, nodes: NodeMultiset, weight: Poly | None, precision: str, digits: int):
    """Jets [g^(j)(v)/j! for j < multiplicity] of g = f * weight at each node."""
    seeds = {}
    for v, m in nodes.nodes:
        xv = mpmath.mpf(v) if precision == "extended" else v
        if isinstance(f, FunctionModel):
            seeds[v] = f.taylor(v, m, precision, digits)
        elif m > 1:
            raise ValueError("repeated nodes need the Taylor jets of a FunctionModel")
        else:
            seeds[v] = [f(xv)]
        if weight is not None:
            seeds[v] = cauchy(weight.taylor(xv, m), seeds[v], m)
    return seeds


def _dd_table(f, nodes: NodeMultiset, precision: str, weight: Poly | None, digits: int):
    """Newton/Hermite table; returns (value, max |table entry|)."""
    use_mp = precision == "extended"
    z = nodes.flatten()
    m = len(z)
    with mpmath.workdps(digits if use_mp else mpmath.mp.dps):
        seeds = _seed_values(f, nodes, weight, precision, digits)
        # node gaps must be formed at working precision: a double-rounded
        # denominator under an exact numerator breaks the cancellations
        # the recursion relies on
        zv = [mpmath.mpf(v) for v in z] if use_mp else z
        col = [seeds[z[i]][0] for i in range(m)]
        max_abs = max((abs(c) for c in col), default=0.0)
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
        value = col[0]
    return float(value), float(max_abs)


def divided_difference(
    f,
    nodes,
    precision: str = "auto",
    weight: Poly | None = None,
    digits: int = EXTENDED_DIGITS,
) -> float:
    """Divided difference [nodes]_g with g = f * weight (weight optional).

    f is a FunctionModel (required when any node repeats) or a plain
    callable; weight is a real polynomial whose jet multiplies the seeds.
    precision is "auto" (escalate to extended for order >= 6 or node
    separation < 1e-3), "double", or "extended".
    """
    value, _ = divided_difference_scaled(f, nodes, precision, weight, digits)
    return value


def divided_difference_scaled(
    f,
    nodes,
    precision: str = "auto",
    weight: Poly | None = None,
    digits: int = EXTENDED_DIGITS,
) -> tuple[float, float]:
    """Like divided_difference, also returns max |table entry|.

    The second value scales the attainable roundoff: the recursion's
    absolute error is bounded by a small multiple of eps * that max.
    """
    ms = _as_multiset(nodes)
    mode = _choose_precision(ms, precision)
    if mode == "extended":
        digits = max(digits, _needed_digits(ms))
    return _dd_table(f, ms, mode, weight, digits)


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


def dd_noise_floor(max_entry: float, precision: str, digits: int = EXTENDED_DIGITS) -> float:
    """Conservative bound on table roundoff for a given entry scale."""
    eps = 2.3e-16 if precision == "double" else 10.0 ** (1 - digits)
    return 64.0 * eps * max(max_entry, 1.0)


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

    def _binary(self, other: "PiecewisePoly", sub: bool) -> "PiecewisePoly":
        if self.breakpoints != other.breakpoints:
            raise ValueError("breakpoint mismatch")
        return PiecewisePoly(
            self.breakpoints,
            tuple(
                (a - b) if sub else (a + b) for a, b in zip(self.pieces, other.pieces)
            ),
        )

    def __add__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        return self._binary(other, sub=False)

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
# Node sampling and the k-tone check


# Node sampler shape: shares of cluster draws (width scale * span, scales
# in turn) and of confluent k-tone tuples, the end margin as a share of
# the span, and the minimum gap of a free draw as span / SEPARATION_PARTS.
CLUSTER_FRACTION = 0.3
CLUSTER_SCALES = (1e-1, 1e-2, 1e-3)
CONFLUENT_FRACTION = 0.15
MARGIN_FRACTION = 1e-6
SEPARATION_PARTS = 1000.0


@dataclass
class SamplerConfig:
    """Seed and draw count of a node-tuple sampler over an open interval.

    Tuples mix low-discrepancy (Halton) draws, uniform draws and
    deliberately near-coincident clusters (see the constants above).
    """

    seed: int = 0
    samples: int = 1000

    def rng(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))


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
    """One ascending tuple of `count` distinct nodes strictly inside."""
    a, b = interval
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
class CheckResult:
    """Outcome of a sampled nonnegativity sweep."""

    passed: bool
    configs: int
    seed: int
    witness: dict | None = None
    worst_value: float = math.inf

    def __bool__(self) -> bool:
        return self.passed


def ktone_check(
    f,
    k: int,
    interval: tuple[float, float],
    sampler: SamplerConfig | None = None,
    tol: float = 1e-9,
) -> CheckResult:
    """Sampled test of k-tonicity: [x_0..x_k]_f >= 0 on the interval.

    Tuples are k+1 nodes; confluent multisets are included when f has
    Taylor jets (a FunctionModel).  Fails with the worst witness found.
    """
    sampler = sampler or SamplerConfig()
    rng = sampler.rng()
    worst = math.inf
    witness = None
    configs = 0
    for idx in range(sampler.samples):
        confluent = isinstance(f, FunctionModel) and rng.uniform() < CONFLUENT_FRACTION and k >= 2
        if confluent:
            distinct = max(2, (k + 2) // 2)
            pts = sample_distinct_tuple(rng, distinct, interval, idx)
            mults = [1] * distinct
            for _ in range(k + 1 - distinct):
                mults[rng.integers(0, distinct)] += 1
            ms = NodeMultiset.from_pairs(tuple(zip(pts.tolist(), mults)))
        else:
            pts = sample_distinct_tuple(rng, k + 1, interval, idx)
            ms = NodeMultiset.from_points(pts.tolist())
        value, scale = divided_difference_scaled(f, ms)
        configs += 1
        mode = _choose_precision(ms, "auto")
        floor = dd_noise_floor(scale, mode)
        if value < worst:
            worst = value
            witness = {
                "nodes": [list(pair) for pair in ms.nodes],
                "value": value,
                "threshold": max(tol, floor),
            }
        if value < -max(tol, floor):
            return CheckResult(False, configs, sampler.seed, witness, worst)
    return CheckResult(True, configs, sampler.seed, witness, worst)
