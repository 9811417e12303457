"""Divided differences over node multisets, and their integral weight.

The confluent (Hermite) table seeds repeated-node blocks with the Taylor
jet f^(j)(x)/j! of the function model (times the jet of an optional
polynomial weight), so multisets like (x, x, y, y) are first-class.

Tables run in double precision a batch at a time, over (rows, nodes)
arrays, and carry a running error bound (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 3).  One rule, double_settles, decides from
that bound whether a result stands.  The precision ladder is double ->
long double -> interval enclosure -> mpmath: where the platform's long
double is wider than double (LONG_DOUBLE_WIDER, x86), the sweeps re-run
the rows double leaves open as one long-double batch under the same
bound; the rows still open take one batch of enclosures
(divided_difference_enclosures: Hermite-Genocchi in Taylor form over
interval jets, matmono.interval); what no enclosure settles is
recomputed in mpmath, with digits scaled to the node gaps.  Elsewhere
the ladder is double -> enclosure -> mpmath.  A sweep holds its open
rows back and sends those of many batches up the ladder together, one
long-double batch and one enclosure call per flush (criteria._Tally.sweep):
a row's result does not depend on the other rows of its call.  The
mpmath tables run on raw mpf tuples (mpmath.libmp), one libmp call per
mpf operation at the context precision, rounding to nearest: bit for bit
the table mpf arithmetic gives.  The mpmath entries of one criterion
matrix share one jet per distinct node (extended_divided_differences).

Every sampled check places its nodes by one rule, written twice to the
same bits: place_nodes places one row on Python floats, place_block every
row of a DrawBlock in one numpy pass.  A DrawBlock holds a batch's
numbers, drawn from the sweep's generator in one call, a fixed-size
block per row, so the stream does not depend on the batch size
(sweep_batches).  The criterion sweeps place a batch of
criteria.ROW_RULE_ROWS rows or more with place_block, and a smaller one
row by row, where numpy's cost per call exceeds the row rule's.  The
matrix oracle and the k-tone check keep the row rule, fed by their
generator's own calls (sample_distinct_tuple): they draw from one
generator in order, so a row starts where the one before it stopped (a
cluster reads one number more), and a block of fixed-width rows would
move their streams.

peano_weight returns the density w with
    [x_0, ..., x_n]_f = int f^(n)(t)/n! * w(t) dt,
a B-spline over the node multiset normalized to integral 1 (the
normalization is forced by f = x^n, where both sides equal 1).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath
import numpy as np
from mpmath.libmp import (
    from_float,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_sub,
    round_nearest as _RND,
    to_float,
)

from .expr import EXTENDED_DIGITS, cauchy
from .interval import Interval, around
from .polynomial import Poly, taylor_shift

# Running error bound of a double table.  A seed g_k = sum_j w_j f_(k-j)
# (weight w = sum_i c_i t^i) errs by at most SEED_ERROR * eps *
# sum_j |f_(k-j)| W_j, W the jet of the Horner bound sum_i |c_i| |t|^i at
# |x|; a difference quotient adds (E[i+1] + E[i]) / |gap| plus
# STEP_ERROR * eps * |entry| for its own subtraction and division.
_EPS = float(np.finfo(float).eps)
# long double is wider than double on x86, the same type elsewhere
# (Windows, macOS arm64), where the long-double step is skipped
LONG_DOUBLE_WIDER = bool(np.finfo(np.longdouble).eps < _EPS)
SEED_ERROR = 64.0
STEP_ERROR = 4.0
# sweeps evaluate their draws in batches of 1, 2, 4, ..., SWEEP_BATCH rows
SWEEP_BATCH = 256
# Taylor order m of the enclosure rung (divided_difference_enclosures); even,
# so that its remainder factor (xi - c)^m is nonnegative
ENCLOSURE_ORDER = 4
_TAU = 2.0 * math.pi


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


def double_settles(value, bound, threshold) -> bool:
    """The precision rule of every sampled sign test.

    A row evaluated below mpmath (double, long double or an enclosure),
    with running error bound `bound` and margin value + threshold, stands
    when value - bound + threshold >= 0 proves that margin nonnegative;
    any other row is recomputed in extended precision.
    """
    return value - bound + threshold >= 0.0


def sweep_batches(samples: int):
    """range(0, samples) in consecutive ranges of 1, 2, 4, ..., SWEEP_BATCH.

    A sweep that fails at its first rows evaluates few extra ones; a long
    sweep runs one table per batch.  A batch only groups evaluation: a
    sampled sweep draws row idx from its own block of numbers (DrawBlock)
    and the oracle draws its trials from one generator in order, so a
    sweep's result does not depend on the batch size.
    """
    start, size = 0, 1
    while start < samples:
        stop = min(start + size, samples)
        yield range(start, stop)
        start, size = stop, min(2 * size, SWEEP_BATCH)


def _hermite_batch(f, z, weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton/Hermite tables over the sorted node rows z (rows, nodes), or
    over each block of a list of such arrays: (value, max |table entry|,
    running error bound), one per row, blocks in order, in the float type
    of z, whose eps the bound uses; weights as in divided_differences.

    f's jet runs once for the batch, at its longest run.  A block of one
    repeated node per row takes its seeds, weight jets included, at one
    node per row as its tables."""
    blocks = z if isinstance(z, list) else [z]
    eps = _EPS if blocks[0].dtype.type is np.float64 else float(np.finfo(blocks[0].dtype).eps)
    # equal[j - 1] marks the nodes equal to the one j places on: in sorted
    # rows, runs of j + 1 equal nodes (None where every row is one node);
    # lengths holds each block's longest run
    runs = []
    for z in blocks:
        equal = None if (z[:, 0] == z[:, -1]).all() else [z[:, 1:] == z[:, :-1]]
        while equal and equal[-1].any():
            equal.append(equal[-1][:, :-1] & equal[0][:, len(equal) :])
        runs.append(equal)
    lengths = [z.shape[1] if equal is None else len(equal) for z, equal in zip(blocks, runs)]
    nodes = [z[:, :1] if equal is None else z for z, equal in zip(blocks, runs)]
    flat = np.concatenate([x.ravel() for x in nodes])
    jet = np.empty((max(lengths), len(flat)), flat.dtype)
    for k, c in enumerate(f.taylor(flat, len(jet))):
        jet[k] = c
    out, start = [], 0
    for z, x, equal, K in zip(blocks, nodes, runs, lengths):
        rows, m = z.shape
        fjet = jet[:K, start : start + x.size].reshape(K, *x.shape)
        start += x.size
        fabs = np.abs(fjet)
        if weights is None:
            seeds, seed_err = fjet, fabs
        else:
            # the weight's jet and the jet of its Horner bound in one pass
            cols = np.concatenate([weights, np.abs(weights)]).T[:, :, None]
            both = taylor_shift(cols, np.concatenate([x, np.abs(x)]), K)
            seeds = cauchy([c[:rows] for c in both], fjet, K)
            seed_err = cauchy([c[rows:] for c in both], fabs, K)
        if equal is None:  # value the top seed, scale the largest |seed|
            out.append((seeds[-1][:, 0], np.abs(seeds).max(axis=0)[:, 0],
                        SEED_ERROR * eps * seed_err[-1][:, 0]))
            continue
        seed_err = [SEED_ERROR * eps * e for e in seed_err]
        col, err = seeds[0], seed_err[0]
        entries = np.empty((rows, m * (m + 1) // 2), z.dtype)  # |table entries|, column by column
        np.abs(col, out=entries[:, :m])
        at = m
        for j in range(1, m):
            gap = z[:, j:] - z[:, :-j]
            if j < K:
                same = equal[j - 1]
                gap[same] = 1.0
            col = (col[:, 1:] - col[:, :-1]) / gap
            if j < K:
                col = np.where(same, seeds[j][:, : m - j], col)
            size = np.abs(col, out=entries[:, at : at + m - j])
            at += m - j
            err = (err[:, 1:] + err[:, :-1]) / gap + (STEP_ERROR * eps) * size
            if j < K:
                err = np.where(same, seed_err[j][:, : m - j], err)
        out.append((col[:, 0], entries.max(axis=1), err[:, 0]))
    return tuple(np.concatenate(parts) for parts in zip(*out))


def divided_differences(
    f, rows, weights=None, dtype=float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Divided differences of many node multisets at once, in one
    Newton/Hermite table batch in the float type dtype (double, or
    np.longdouble for the long-double step).

    rows is a (rows, nodes) array of node sequences (repeats allowed, any
    order), or, without weights, a list of such arrays with different node
    counts, results in that order; weights, if given, is a (rows, d) array
    of real weight coefficients, ascending and zero-padded
    (polynomial.n_coeffs gives those of N(q)).  Returns float arrays
    (value, scale, bound): [row]_{f * weight}, the largest |table entry|
    and a running bound on the value's error.  A long-double value is
    rounded to a float, and its bound gains eps * |value| for that rounding.
    """
    blocks = rows if isinstance(rows, list) and np.ndim(rows[0]) == 2 else [rows]
    blocks = [np.sort(np.asarray(b, dtype=dtype), axis=1) for b in blocks]
    value, scale, bound = _hermite_batch(f, blocks, weights)
    if dtype is not float and np.finfo(dtype).eps < _EPS:
        value, scale = value.astype(float), scale.astype(float)
        bound = bound.astype(float) + _EPS * np.abs(value)
    return value, scale, bound


def _part(x, index):
    """The boxes `index` of a jet coefficient: an Interval, an array of
    exact values, or an exact float or constant's box for every box."""
    return x[index] if isinstance(x, (Interval, np.ndarray)) and len(x) > 1 else x


def divided_difference_enclosures(f, rows, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) that hold the exact [row]_{f * weight} of each row of
    a (rows, N) node array (repeats allowed, any order), weights as in
    divided_differences; or of each row of a list of such arrays with
    different N and no weights, one jet serving them all, the bounds in
    that order.

    Hermite-Genocchi (de Boor, Divided differences, 2005) in Taylor form
    about the midpoint c of a row's hull [a, b], of radius r: with m =
    ENCLOSURE_ORDER and g_j = g^(j)/j! for g = f * weight,

        [x]g in sum_{k<m} g_{N-1+k}(c) h_k(x - c)
                + C(N-1+m, m) g_{N-1+m}([a, b]) [0, r^m],

    h_k the complete homogeneous symmetric polynomial of degree k, the
    divided difference of (t - c)^(N-1+k).  One interval jet of f
    (expr.jet on an interval.Interval) at the points c and the boxes
    [a, b], times the interval jet of the weight, whose coefficients are
    exact doubles, gives the g_j.  h_k runs in double by its recurrence
    over the nodes, widened by 2 (N + 2k + 1) eps C(N-1+k, k) max|x - c|^k:
    each of its terms is a product of k rounded differences through at most
    N + k further roundings (Higham, ch. 3).  Both bounds of a row are NaN
    where overflow lost its enclosure (interval); raises DomainError where
    a box is possibly outside f's domain.
    """
    blocks = [np.asarray(z, dtype=float) for z in ([rows] if isinstance(rows, np.ndarray) else rows)]
    m = ENCLOSURE_ORDER
    with np.errstate(all="ignore"):
        a = [z.min(axis=1) for z in blocks]
        b = [z.max(axis=1) for z in blocks]
        c = [0.5 * (lo + hi) for lo, hi in zip(a, b)]
        total = sum(len(z) for z in blocks)
        at = Interval(np.concatenate(c + a), np.concatenate(c + b))
        fjet = f.taylor(at, max(z.shape[1] for z in blocks) + m)
        if weights is not None:
            cols = list(np.concatenate([weights, weights]).T)
            wjet = taylor_shift(cols, at, min(len(fjet), len(cols)))
        bounds, start = [], 0
        for z, lo, hi, mid in zip(blocks, a, b, c):
            count, N = z.shape
            points, boxes = slice(start, start + count), slice(total + start, total + start + count)
            start += count
            if weights is None:
                g = fjet[N - 1 : N + m]
            else:
                g = [sum(wjet[j] * fjet[k - j] for j in range(min(k + 1, len(wjet))))
                     for k in range(N - 1, N + m)]
            y = z - mid[:, None]
            rho = np.abs(y).max(axis=1)
            # h_k(y_1..y_i) = h_k(y_1..y_(i-1)) + y_i h_(k-1)(y_1..y_i), as running sums
            h = np.ones_like(y)
            dd = _part(g[0], points)
            for k in range(1, m):
                h = np.cumsum(y * h, axis=1)
                err = 2.0 * (N + 2 * k + 1) * _EPS * math.comb(N - 1 + k, k) * rho**k
                dd = dd + _part(g[k], points) * around(h[:, -1], err)
            r = np.nextafter(np.maximum(hi - mid, mid - lo), np.inf)
            reach = Interval(0.0, (Interval(r) ** m).hi)
            dd = dd + math.comb(N - 1 + m, m) * _part(g[m], boxes) * reach
            bounds.append(np.broadcast_to(dd.v if isinstance(dd, Interval) else dd, (2, count)))
    lo, hi = np.concatenate(bounds, axis=1)
    return lo, hi


def _mpf_taylor(coeffs: list, t: tuple, count: int, prec: int) -> list:
    """taylor_shift on raw mpf tuples: the jet of the polynomial with
    ascending coefficients `coeffs` at t."""
    out = []
    for _ in range(count):
        acc, partial = fzero, []
        for c in reversed(coeffs):
            acc = mpf_add(mpf_mul(acc, t, prec, _RND), c, prec, _RND)
            partial.append(acc)
        out.append(acc)
        coeffs = partial[-2::-1]
    return out


def _mpf_cauchy(a: list, b: list, count: int, prec: int) -> list:
    """expr.cauchy on raw mpf tuples."""
    out = []
    for k in range(count):
        acc = mpf_mul(a[0], b[k], prec, _RND)
        for j in range(1, k + 1):
            acc = mpf_add(acc, mpf_mul(a[j], b[k - j], prec, _RND), prec, _RND)
        out.append(acc)
    return out


def _raw_jet(jet: list) -> list:
    """A jet as raw mpf tuples: mpf numbers converted, raw tuples as they
    are.  A table's jet(v) gives either: extended_divided_differences shares
    raw jets, and a jet handed to divided_difference_scaled is f.taylor's
    mpf numbers."""
    return jet if isinstance(jet[0], tuple) else [c._mpf_ for c in jet]


def _seed_values(f, nodes: NodeMultiset, weight: Poly | None, digits: int, xs: dict, jet=None):
    """Jets [g^(j)(v)/j! for j < multiplicity] of g = f * weight at each node,
    as raw mpf tuples at the working precision; xs[v] is node v as an mpf
    tuple, and jet(v), if given, is f's mpmath jet at v (at least that
    long), as mpf numbers or raw tuples (_raw_jet)."""
    prec = mpmath.mp.prec
    if weight is not None:
        coeffs = [from_float(c) for c in weight.real_coeffs()]
    seeds = {}
    for v, m in nodes.nodes:
        seeds[v] = _raw_jet(f.taylor(v, m, "extended", digits) if jet is None else jet(v))
        if weight is not None:
            wjet = _mpf_taylor(coeffs, xs[v], m, prec)
            seeds[v] = _mpf_cauchy(wjet, seeds[v], m, prec)
    return seeds


def _dd_table(f, nodes: NodeMultiset, precision: str, weight: Poly | None, digits: int, jet=None):
    """mpmath Newton/Hermite table of one multiset: (value, max |table
    entry|, bound); precision is "extended" (perfbench/tracer.py reads it).

    The recursion runs at `digits`, seeded from jet(v) where given, on raw
    mpf tuples: each step is the libmp call an mpf operator makes at the
    context precision, rounding to nearest, so the table is bit for bit
    the one mpf arithmetic gives.  Its bound is the rounding of the value
    to a float.
    """
    z = nodes.flatten()
    m = len(z)
    with mpmath.workdps(digits):
        prec = mpmath.mp.prec
        # each distinct node converted once (exactly), for the gaps and the weight jet
        xs = {v: from_float(v) for v, _ in nodes.nodes}
        seeds = _seed_values(f, nodes, weight, digits, xs, jet)
        # node gaps must be formed at working precision: a double-rounded
        # denominator under an exact numerator breaks the cancellations
        # the recursion relies on
        zv = [xs[v] for v in z]
        # one node: the seeds are the table's entries, the top one its value
        col = [seeds[z[i]][0] for i in range(m)] if len(xs) > 1 else seeds[z[0]][m - 1 :: -1]
        # abs rounds to the working precision, as mpf's does: a shared jet
        # may carry more digits than this table
        max_abs = mpf_abs(col[0], prec, _RND)
        for c in col[1:]:
            size = mpf_abs(c, prec, _RND)
            if mpf_gt(size, max_abs):
                max_abs = size
        for j in range(1, m if len(xs) > 1 else 1):
            nxt = []
            for i in range(m - j):
                if z[i + j] == z[i]:
                    entry = seeds[z[i]][j]
                else:
                    entry = mpf_div(
                        mpf_sub(col[i + 1], col[i], prec, _RND),
                        mpf_sub(zv[i + j], zv[i], prec, _RND),
                        prec,
                        _RND,
                    )
                nxt.append(entry)
                size = mpf_abs(entry, prec, _RND)
                if mpf_gt(size, max_abs):
                    max_abs = size
            col = nxt
    value = to_float(col[0], rnd=_RND)
    return value, to_float(max_abs, rnd=_RND), _EPS * abs(value)


def divided_difference(
    f, nodes, precision: str = "extended", weight: Poly | None = None
) -> float:
    """Divided difference [nodes]_g with g = f * weight (weight optional).

    f is a FunctionModel, whose Taylor jets seed repeated nodes; weight
    is a real polynomial whose jet multiplies the seeds.  The table runs
    in mpmath, at digits growing with order * log10(1 / min gap) and never
    fewer than EXTENDED_DIGITS; precision must be "extended" (the double
    tables are the sweeps' batches, divided_differences).
    """
    return divided_difference_scaled(f, nodes, precision, weight)[0]


def divided_difference_scaled(
    f, nodes, precision: str = "extended", weight: Poly | None = None, jet=None
) -> tuple[float, float]:
    """Like divided_difference, also returns max |table entry|.

    The second value scales the attainable roundoff: the recursion's
    absolute error is bounded by a small multiple of eps * that max.
    jet(v), if given, supplies f's mpmath jet at each node to an
    extended table (see extended_divided_differences).
    """
    if precision != "extended":
        raise ValueError(f"unsupported precision mode {precision!r}")
    ms = _as_multiset(nodes)
    value, scale, _ = _dd_table(f, ms, precision, weight, _needed_digits(ms), jet)
    return value, scale


def extended_divided_differences(f, node_lists) -> list[float]:
    """Extended-precision divided differences over node lists that share
    their nodes, such as the entries of one criterion matrix.

    Each distinct node takes one mpmath jet, at the longest length and the
    most digits any list needs, converted to raw mpf tuples once, and every
    table is seeded from those jets; each recursion runs at its own list's
    digits.
    """
    multisets = [_as_multiset(nodes) for nodes in node_lists]
    length: dict[float, int] = {}
    for ms in multisets:
        for v, m in ms.nodes:
            length[v] = max(length.get(v, 0), m)
    digits = max((_needed_digits(ms) for ms in multisets), default=EXTENDED_DIGITS)
    jets: dict[float, list] = {}

    def jet(v: float) -> list:
        if v not in jets:
            jets[v] = _raw_jet(f.taylor(v, length[v], "extended", digits))
        return jets[v]

    return [divided_difference_scaled(f, ms, "extended", None, jet)[0] for ms in multisets]


def _needed_digits(nodes: NodeMultiset) -> int:
    """Working precision that keeps the table roundoff near 1e-12, never
    below EXTENDED_DIGITS.

    Seed errors can grow by up to gap^-order through the recursion, so
    the digit count must scale with order * log10(1/gap); a fixed
    allotment silently returns noise for very tight clusters.
    """
    gap = nodes.min_gap()
    if not math.isfinite(gap) or gap <= 0 or gap >= 1:
        return EXTENDED_DIGITS
    inverse = 1.0 / gap
    # a subnormal gap's inverse overflows
    decades = math.log10(inverse) if math.isfinite(inverse) else -math.log10(gap)
    return max(EXTENDED_DIGITS, min(400, int(nodes.order * decades) + 30))


def dd_threshold(max_entry, precision: str, tol: float):
    """Threshold of every divided-difference sign test (value >= -threshold):
    tol, or the roundoff bound of a table with largest |entry| max_entry.

    An array of max entries gives the array of their thresholds, entry by
    entry as the scalar rule (a NaN entry gives tol, as max(tol, nan) does).
    """
    eps = 2.3e-16 if precision == "double" else 10.0 ** (1 - EXTENDED_DIGITS)
    if isinstance(max_entry, np.ndarray):
        return np.fmax(tol, 64.0 * eps * np.maximum(max_entry, 1.0))
    return max(tol, 64.0 * eps * max(max_entry, 1.0))


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


@functools.cache
def _primes(count: int) -> tuple[int, ...]:
    """The first count primes: the Halton bases of a count-node row."""
    found: list[int] = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return tuple(found)


# every third draw of a sweep takes a Halton row: 334 rows for 1000 draws
@functools.lru_cache(maxsize=2048)
def _halton_row(index: int, count: int) -> tuple[float, ...]:
    """Halton point index + 1 in the first count prime bases, mapped into
    (0.0005, 0.9995): count distinct coordinates."""
    return tuple(0.999 * _halton(index + 1, base) + 0.0005 for base in _primes(count))


def check_interval(interval) -> tuple[float, float]:
    """(lo, hi) as floats; ValueError naming the interval unless lo < hi
    are both finite."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"interval ({lo}, {hi}) needs finite endpoints")
    if not lo < hi:
        raise ValueError(f"interval ({lo}, {hi}) is empty: need lo < hi")
    return lo, hi


def check_tol(tol: float) -> float:
    """tol itself; ValueError unless it is a finite number > 0.  Every
    threshold scales tol: a NaN or infinite one passes any margin, and
    one <= 0 refutes a function whose margins are exact zeros."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite number > 0, got {tol}")
    return tol


class _GeneratorDraws:
    """A Generator's calls as the draw rules make them, answered in Python
    floats and ints: one generator call each, in the order made."""

    __slots__ = ("rng",)

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def random(self, size=None):
        return self.rng.random() if size is None else self.rng.random(size).tolist()

    def uniform(self, low: float, high: float) -> float:
        return self.rng.uniform(low, high)

    def integers(self, low: int, high: int) -> int:
        return int(self.rng.integers(low, high))

    def normal(self, scale: float, size: int) -> list[float]:
        return self.rng.normal(scale=scale, size=size).tolist()


class DrawBlock:
    """The numbers of the draws `indices` (a range) of a sweep, taken from
    its generator in one call: `width` uniform doubles per draw, row-major,
    so the row of draw idx holds the same numbers however the draws are
    batched.

    The block rules (place_block, criteria._q_block) read every row at
    once from the (rows, width) array `table`, each row at its own offsets
    (gather, gather_integers, gather_normals).  The row rules (place_nodes,
    criteria._q_coeffs) step through the rows (rows()) and read the
    current row's numbers in order through the calls a Generator answers
    (_GeneratorDraws), on Python floats.  Both read a number the same way:
    uniform(low, high) is low + (high - low) * u, integers(low, high) is
    low + floor((high - low) * u), and a normal is scale * sqrt(-2 log(1 -
    u)) cos(2 pi u') from two numbers (Box-Muller), with math.log and
    math.cos on each number: numpy's vectorized log can differ from the C
    library's in the last bit.  A row that reads more than width numbers
    raises.
    """

    __slots__ = ("table", "indices", "index", "width", "u", "at")

    def __init__(self, rng: np.random.Generator, indices, width: int):
        self.table = rng.random(len(indices) * width)
        self.indices = indices
        self.index = np.arange(indices.start, indices.stop)
        self.width = width
        self.u = None
        self.at = 0

    def _past(self, row: int) -> RuntimeError:
        return RuntimeError(f"draw {self.indices[row]} read past its {self.width} numbers")

    def rows(self):
        """Each index of the block, with the block at the start of its row."""
        if self.u is None:
            self.u = self.table.tolist()
        for r, idx in enumerate(self.indices):
            self.at = r * self.width
            yield idx
            if self.at > (r + 1) * self.width:
                raise self._past(r)

    def gather(self, rows, cols) -> np.ndarray:
        """The number at column cols[i] of row rows[i], for every i (the
        two broadcast together)."""
        if np.greater_equal(cols, self.width).any():
            rows, cols = np.broadcast_arrays(rows, cols)
            raise self._past(rows[cols >= self.width][0])
        return self.table[rows * self.width + cols]

    def gather_integers(self, rows, cols, low, high: int) -> np.ndarray:
        """integers(low, high) read at column cols[i] of row rows[i]."""
        return np.minimum(low + ((high - low) * self.gather(rows, cols)).astype(np.int64), high - 1)

    def gather_normals(self, rows: np.ndarray, start: np.ndarray, count: np.ndarray,
                       scale: np.ndarray) -> np.ndarray:
        """normal(scale, count[i]) read from column start[i] of row rows[i],
        scale[i, k] the scale of its k-th normal: an array the shape of
        scale, zero past each row's count."""
        at = np.repeat(np.arange(len(rows)), count)
        k = np.arange(len(at)) - np.repeat(np.cumsum(count) - count, count)
        cols = start[at] + 2 * k
        u, v = self.gather(rows[at], cols), self.gather(rows[at], cols + 1)
        log = np.fromiter(map(math.log, (1.0 - u).tolist()), float, len(at))
        cos = np.fromiter(map(math.cos, (_TAU * v).tolist()), float, len(at))
        out = np.zeros(scale.shape)
        out[at, k] = scale[at, k] * np.sqrt(-2.0 * log) * cos
        return out

    def random(self, size=None):
        at = self.at
        if size is None:
            self.at = at + 1
            return self.u[at]
        self.at = at + size
        return self.u[at : at + size]

    def uniform(self, low: float, high: float) -> float:
        self.at += 1
        return low + (high - low) * self.u[self.at - 1]

    def integers(self, low: int, high: int) -> int:
        self.at += 1
        return min(low + int((high - low) * self.u[self.at - 1]), high - 1)

    def normal(self, scale: float, size: int) -> list[float]:
        u, at = self.u, self.at
        self.at = at + 2 * size
        return [
            scale * math.sqrt(-2.0 * math.log(1.0 - u[i])) * math.cos(_TAU * u[i + 1])
            for i in range(at, at + 2 * size, 2)
        ]


class NarrowIntervalError(ValueError):
    """The interval holds too few doubles for the nodes a check places."""


def end_margin(a: float, b: float) -> float:
    """The gap every sampled check keeps from the ends of a < b: the
    share MARGIN_FRACTION of the span, and at least 4 ulps of the larger
    end, so that a + margin and b - margin lie strictly inside the
    interval wherever it sits on the float line."""
    return max((b - a) * MARGIN_FRACTION, 4 * math.ulp(max(-a, b)))


def place_width(count: int) -> int:
    """Numbers the placement rule reads for a count-node tuple: the count
    uniforms, the cluster choice and the cluster centre."""
    return count + 2


def place_nodes(draws, count: int, a: float, b: float, index: int) -> list[float]:
    """The placement rule of every sampled check: one ascending list of
    `count` >= 1 distinct nodes strictly inside a < b (check_interval),
    read from draws (a DrawBlock row, or a Generator's calls through
    sample_distinct_tuple) on Python floats.

    Every third index takes its uniforms from a Halton row (the uniforms
    are still drawn); a CLUSTER_FRACTION of draws place the nodes in a
    cluster of width scale * span around a uniform centre, the others
    spread them with at least span / SEPARATION_PARTS between neighbours.
    Raises NarrowIntervalError where the doubles of the interval cannot
    keep `count` nodes apart.
    """
    if count < 1:
        raise ValueError(f"node count must be >= 1, got {count}")
    span = b - a
    margin = end_margin(a, b)
    delta = span / SEPARATION_PARTS
    u = draws.random(count)
    if index % 3 == 0:
        u = list(_halton_row(index, count))
    u.sort()
    if draws.random() < CLUSTER_FRACTION:
        scale = CLUSTER_SCALES[index % len(CLUSTER_SCALES)]
        lo, hi = a + margin, b - margin
        center = draws.uniform(lo, hi)
        width = scale * span
        x = []
        for s in u:
            # np.clip's rule: max(v, lo) is lo unless v > lo
            v = center + width * (s - 0.5)
            v = v if v > lo else lo
            x.append(v if v < hi else hi)
        # force strict ascent; duplicates collapse to tiny separations, of
        # at least a few ulps of the node moved
        eps = max(width, 4 * margin) * 1e-9
        for i in range(1, count):
            if x[i] <= x[i - 1]:
                x[i] = x[i - 1] + max(eps, 4 * math.ulp(x[i]))
        if x[-1] >= hi:
            shift = x[-1] - hi
            x = [v - shift for v in x]
        if not a < x[0] <= x[-1] < b:
            raise NarrowIntervalError(f"interval ({a}, {b}) is too narrow for {count} distinct nodes")
        return x
    free = span - 2 * margin - (count - 1) * delta
    if free <= 0 or delta < 4 * math.ulp(max(-a, b)):
        raise NarrowIntervalError(f"interval ({a}, {b}) is too narrow for {count} distinct nodes")
    base = a + margin
    return [base + free * s + delta * i for i, s in enumerate(u)]


def place_block(block: DrawBlock, count: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """place_nodes over every row of a block, bit for bit: the (rows,
    count) nodes and each row's offset past the numbers it read (count + 1,
    and 1 more for a cluster's centre).

    One numpy pass: the Halton rows are gathered from _halton_row, the
    cluster and spread rows are chosen by mask, and a cluster's strict
    ascent is fixed column by column, np.spacing(|x|) standing for
    math.ulp(x).  Raises place_nodes' NarrowIntervalError where any row
    would.
    """
    if count < 1:
        raise ValueError(f"node count must be >= 1, got {count}")
    span = b - a
    margin = end_margin(a, b)
    delta = span / SEPARATION_PARTS
    index, rows = block.index, np.arange(len(block.index))
    u = block.gather(rows[:, None], np.arange(count + 1))
    halton = np.flatnonzero(index % 3 == 0)
    if halton.size:
        u[halton, :count] = [_halton_row(i, count) for i in index[halton].tolist()]
    cluster = u[:, count] < CLUSTER_FRACTION
    u = np.sort(u[:, :count], axis=1)
    narrow = NarrowIntervalError(f"interval ({a}, {b}) is too narrow for {count} distinct nodes")
    x = np.empty_like(u)
    if not cluster.all():
        free = span - 2 * margin - (count - 1) * delta
        if free <= 0 or delta < 4 * math.ulp(max(-a, b)):
            raise narrow
        x = (a + margin) + free * u + delta * np.arange(count)
    if cluster.any():
        lo, hi = a + margin, b - margin
        at = np.flatnonzero(cluster)
        center = lo + (hi - lo) * block.gather(at, count + 1)
        width = np.array(CLUSTER_SCALES)[index[at] % len(CLUSTER_SCALES)] * span
        v = center[:, None] + width[:, None] * (u[at] - 0.5)
        v = np.where(v > lo, v, lo)
        v = np.where(v < hi, v, hi)
        # the rows with ties: only there does the row rule move a node
        tied = np.flatnonzero((v[:, 1:] <= v[:, :-1]).any(axis=1))
        if tied.size:
            w, eps = v[tied], np.maximum(width[tied], 4 * margin) * 1e-9
            for i in range(1, count):
                step = np.maximum(eps, 4 * np.spacing(np.abs(w[:, i])))
                w[:, i] = np.where(w[:, i] <= w[:, i - 1], w[:, i - 1] + step, w[:, i])
            v[tied] = w
        top = v[:, -1:]
        v = np.where(top >= hi, v - (top - hi), v)
        if not ((a < v[:, 0]) & (v[:, 0] <= v[:, -1]) & (v[:, -1] < b)).all():
            raise narrow
        x[at] = v
    return x, count + 1 + cluster


def sample_distinct_tuple(
    rng: np.random.Generator,
    count: int,
    interval: tuple[float, float],
    index: int,
) -> np.ndarray:
    """place_nodes fed by the generator's own calls, as an array: the
    matrix oracle and the k-tone check draw their nodes here.

    Generator.random gives uniform()'s doubles from the same stream, and
    the arithmetic runs on Python floats: the IEEE double operations numpy
    arrays would make, without their per-call cost on a handful of nodes.
    """
    a, b = check_interval(interval)
    return np.array(place_nodes(_GeneratorDraws(rng), count, a, b, index))


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
        return record_jsonable({"id": self.criterion}, self)


def record_jsonable(head: dict, rec) -> dict:
    """The report entry of a sampled check's record (a CriterionRecord or
    a genset level): the keys of head, then verdict, configs, worst_value,
    the note when there is one and the witness of a failure."""
    out = {
        **head,
        "verdict": "pass" if rec.passed else "fail",
        "configs": rec.configs,
        "worst_value": rec.worst_value,
    }
    if rec.note:
        out["note"] = rec.note
    if not rec.passed and rec.witness is not None:
        out["witness"] = rec.witness
    return out
