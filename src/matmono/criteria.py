"""Positivity criteria for matrix monotone and matrix convex functions.

Each criterion is an exact characterization of n-monotonicity (or
n-convexity) on an interval, checked here by sampling: divided
differences of f * N(q) over node multisets, PSD sweeps of the Loewner
/ extended Loewner / Kraus matrices, sign sweeps of the (2n-1)-st (or
2n-th) derivative of f * N(q), and PSD sweeps of the Dobsch / Hankel
derivative matrices on a t-grid.  certify() runs the full family plus
the matrix oracle and reports per-criterion verdicts.

A failing record carries a concrete witness, re-verified in extended
precision before it is reported.  A passing record only says that no
violation was found at the recorded number of configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .divdiff import (
    NodeMultiset,
    SamplerConfig,
    _choose_precision,
    dd_noise_floor,
    divided_difference,
    divided_difference_scaled,
    sample_distinct_tuple,
)
from .expr import EXTENDED_DIGITS, FunctionModel
from .linalg import (
    CheckResult,
    convexity_oracle,
    matrix_from_jsonable,
    matrix_function,
    matrix_to_jsonable,
    min_eigenvalue,
    monotonicity_oracle,
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


def loewner_matrix(f: FunctionModel, points, precision: str = "auto") -> np.ndarray:
    """Matrix of first divided differences [x_i, x_j]_f (diagonal f')."""
    pts = _check_distinct(points)
    n = len(pts)
    L = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            L[i, j] = L[j, i] = divided_difference(f, (pts[i], pts[j]), precision)
    return L


def extended_loewner_matrix(
    f: FunctionModel, points, precision: str = "auto"
) -> np.ndarray:
    """Entry (i, j) is [x_1..x_i, x_1..x_j]_f over ascending points."""
    pts = sorted(_check_distinct(points))
    n = len(pts)
    L = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            pairs = [(pts[k], (1 if k <= i else 0) + (1 if k <= j else 0)) for k in range(n)]
            ms = NodeMultiset.from_pairs([p for p in pairs if p[1] > 0])
            L[i, j] = L[j, i] = divided_difference(f, ms, precision)
    return L


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
    pts = _check_distinct(points)
    base = float(base)
    n = len(pts)
    K = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ms = NodeMultiset.from_points((pts[i], pts[j], base))
            K[i, j] = K[j, i] = divided_difference(f, ms, precision)
    return K


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
    """One polynomial of degree <= max_degree, max |coefficient| = 1."""
    kind = idx % 4
    if kind == 0 or max_degree == 0:
        return Poly.of(1.0)
    if kind == 2:
        deg = int(rng.integers(1, max_degree + 1))
        roots = [float(rng.choice(nodes)) for _ in range(deg)]
        if idx % 8 >= 4:
            roots = [r + float(rng.normal(scale=0.5 * span)) for r in roots]
        if complex_coeffs:
            roots = [r + 1j * float(rng.normal(scale=0.1 * span)) for r in roots]
        q = Poly.from_roots(tuple(roots), 1.0)
    else:
        deg = max_degree if kind == 1 else int(rng.integers(0, max_degree + 1))
        coeffs = rng.normal(size=deg + 1)
        if complex_coeffs:
            coeffs = coeffs + 1j * rng.normal(size=deg + 1)
        q = Poly(tuple(complex(c) for c in coeffs))
    m = q.max_abs_coeff()
    return q.scale(1.0 / m) if m > 0 else Poly.of(1.0)


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
# Records and report


@dataclass
class CriterionRecord:
    """Outcome of one criterion sweep."""

    criterion: str
    passed: bool
    configs: int
    worst_value: float
    witness: dict | None = None
    note: str = ""

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

    def sampler(self, seed: int) -> SamplerConfig:
        return SamplerConfig(seed=seed, samples=self.samples)


# ---------------------------------------------------------------------------
# Evaluation, confirmation and witnesses
#
# A configuration is a dict of the witness fields that locate it, with
# the nodes and q as NodeMultiset and Poly.  One evaluator per witness
# kind maps (f, config, precision, tol) to (value, threshold, precision
# it ran in, criterion matrix or None); the margin is value + threshold.
# The sweeps, their extended-precision re-check and witness replay all
# go through these evaluators.


def _evaluate_dd(f: FunctionModel, config: dict, precision: str, tol: float):
    """[nodes]_{f N(q)} against the roundoff floor of its table."""
    ms = config["nodes"]
    value, scale = divided_difference_scaled(f, ms, precision, n_of(config["q"]))
    mode = _choose_precision(ms, precision)
    return value, max(tol, dd_noise_floor(scale, mode)), mode, None


def _evaluate_psd(f: FunctionModel, config: dict, precision: str, tol: float):
    """Minimum eigenvalue of the criterion matrix against tol * its scale."""
    criterion = config["criterion"]
    if criterion == "loewner-psd":
        M = loewner_matrix(f, config["points"], precision)
    elif criterion == "extended-loewner-psd":
        M = extended_loewner_matrix(f, config["points"], precision)
    elif criterion == "dobsch-psd":
        M = dobsch_matrix(f, config["t"], config["order"], precision)
    elif criterion == "hankel-psd":
        M = hankel_convex_matrix(f, config["t"], config["order"], precision)
    else:
        M = kraus_matrix(f, config["points"], config["base"], precision)
    threshold = tol * max(1.0, float(np.abs(M).max()))
    return min_eigenvalue(M), threshold, precision, M


def _evaluate_product(f: FunctionModel, config: dict, precision: str, tol: float):
    """(f N(q))^(order)(t) / order! against the roundoff floor of its terms."""
    value, scale = _product_derivative_value(
        f, n_of(config["q"]), config["t"], config["deriv_order"], precision
    )
    return float(value), float(max(tol, dd_noise_floor(scale, precision))), precision, None


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

    def __init__(self, f: FunctionModel, criterion: str, kind: str, precision: str, tol: float):
        self.f, self.criterion, self.kind = f, criterion, kind
        self.evaluate = _EVALUATORS[kind]
        self.precision, self.tol = precision, tol
        self.configs = 0
        self.worst = math.inf
        self.witness = None
        self.dismissed = 0

    def check(self, config: dict) -> float:
        """Margin of one configuration; negative means a confirmed violation.

        A negative margin from a run that was not already in extended
        precision is re-evaluated in extended precision, and only the
        second margin counts.
        """
        self.configs += 1
        value, threshold, mode, matrix = self.evaluate(self.f, config, self.precision, self.tol)
        rechecked = value + threshold < 0.0 and mode != "extended"
        if rechecked:
            value, threshold, _, matrix = self.evaluate(self.f, config, "extended", self.tol)
        margin = value + threshold
        if margin < self.worst:
            self.worst = margin
            self.witness = _witness(self.kind, config, value, threshold, matrix)
        if rechecked and margin >= 0.0:
            self.dismissed += 1
        return margin

    def record(self, passed: bool, note: str = "") -> CriterionRecord:
        if passed and self.dismissed:
            dismissed = f"{self.dismissed} candidate(s) dismissed in extended precision"
            note = f"{note}; {dismissed}" if note else dismissed
        return CriterionRecord(
            self.criterion, passed, self.configs, self.worst, self.witness, note
        )

    def run(self, draw, samples: int, note: str = "") -> CriterionRecord:
        """Check draw(0), ..., draw(samples - 1); stop at the first violation."""
        for idx in range(samples):
            if self.check(draw(idx)) < 0.0:
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
    sampler: SamplerConfig | None = None,
    complex_coeffs: bool = False,
    tol: float = 1e-9,
) -> CriterionRecord:
    """Sampled check of [nodes]_{f N(q)} >= 0 over distinct node tuples.

    monotone mode uses 2n nodes, convex mode 2n+1; q runs over the
    structured cadence in degree <= n-1 (real or complex coefficients).
    """
    criterion = "dd-complex-q" if complex_coeffs else "dd-real-q"
    return _run_dd_sweep(f, n, interval, mode, criterion, complex_coeffs, sampler, tol)


def confluent_dd_criterion(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str = "monotone",
    sampler: SamplerConfig | None = None,
    base: str = "anchored",
    tol: float = 1e-9,
) -> CriterionRecord:
    """Sampled dd check over doubled nodes (confluent configurations).

    monotone: (x_1, x_1, ..., x_n, x_n).  convex: the same doubled
    block plus a base node, either one of the x_l (base="anchored") or
    a separate simple node (base="free").  q alternates real and
    complex coefficients.
    """
    if mode == "monotone":
        criterion = "dd-confluent"
    else:
        criterion = "dd-confluent-anchored" if base == "anchored" else "dd-confluent-free"
    return _run_dd_sweep(f, n, interval, mode, criterion, None, sampler, tol)


def _run_dd_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    mode: str,
    criterion: str,
    complex_coeffs: bool | None,
    sampler: SamplerConfig | None,
    tol: float,
) -> CriterionRecord:
    sampler = sampler or SamplerConfig()
    rng = sampler.rng()
    span = float(interval[1]) - float(interval[0])
    shape = _DD_SHAPES[(mode, criterion)]

    def draw(idx: int) -> dict:
        ms = _draw_multiset(rng, shape, n, interval, idx)
        use_complex = bool(idx % 2) if complex_coeffs is None else complex_coeffs
        q = _sample_q(rng, n - 1, ms.values(), span, idx, use_complex)
        return {"criterion": criterion, "nodes": ms, "q": q}

    return _Tally(f, criterion, "dd", "auto", tol).run(draw, sampler.samples, _Q_CADENCE_NOTE)


# ---------------------------------------------------------------------------
# PSD sweeps over sampled points (Loewner, extended Loewner, Kraus)

_PSD_POINT_CRITERIA = ("loewner-psd", "extended-loewner-psd", "kraus-anchored-psd", "kraus-free-psd")

def _run_psd_point_sweep(
    f: FunctionModel,
    n: int,
    interval: tuple[float, float],
    criterion: str,
    sampler: SamplerConfig,
    tol: float,
) -> CriterionRecord:
    if criterion not in _PSD_POINT_CRITERIA:
        raise ValueError(f"unknown PSD criterion {criterion!r}")
    rng = sampler.rng()

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

    return _Tally(f, criterion, "psd-matrix", "auto", tol).run(draw, sampler.samples)


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
    tally = _Tally(f, criterion, "psd-matrix", "double", tol)

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
    sampler: SamplerConfig,
    tol: float,
) -> CriterionRecord:
    """Sampled sign check of (f N(q))^(2n-1) (monotone) or ^(2n) (convex)."""
    criterion = "product-derivative"
    order = 2 * n - 1 if mode == "monotone" else 2 * n
    rng = sampler.rng()
    lo, hi = float(interval[0]), float(interval[1])
    span = hi - lo
    margin_t = 1e-6 * span

    def draw(idx: int) -> dict:
        t = float(rng.uniform(lo + margin_t, hi - margin_t))
        anchors = (t, lo + 0.25 * span, lo + 0.75 * span)
        q = _sample_q(rng, n - 1, anchors, span, idx, bool(idx % 2))
        return {"criterion": criterion, "t": t, "deriv_order": order, "q": q}

    return _Tally(f, criterion, "derivative-sign", "double", tol).run(draw, sampler.samples)


# ---------------------------------------------------------------------------
# Witness replay


def re_evaluate_witness(f: FunctionModel, witness: dict, tol: float = 1e-9) -> dict:
    """Recompute a witness from its stored configuration.

    Returns {"value", "threshold", "confirmed"}.  Criterion witnesses
    go through the evaluator of their sweep in extended precision,
    oracle witnesses (matrix-pair, jensen) through the spectral
    calculus.
    """
    kind = witness["kind"]
    if kind in _EVALUATORS:
        value, threshold, _, _ = _EVALUATORS[kind](f, _config(witness), "extended", tol)
    elif kind in ("matrix-pair", "jensen"):
        A = matrix_from_jsonable(witness["matrix_a"])
        B = matrix_from_jsonable(witness["matrix_b"])
        FA = matrix_function(f, A)
        FB = matrix_function(f, B)
        if kind == "matrix-pair":
            D = FB - FA
        else:
            t = float(witness["weight"])
            D = t * FA + (1.0 - t) * FB - matrix_function(f, t * A + (1.0 - t) * B)
        value = min_eigenvalue(D)
        threshold = tol * max(1.0, float(np.abs(FA).max()), float(np.abs(FB).max()))
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
    result: CheckResult = oracle(f, n, interval, trials=trials, seed=seed, tol=tol)
    return CriterionRecord(
        "matrix-oracle",
        result.passed,
        result.configs,
        result.worst_value,
        result.witness,
        "sampled matrix pairs; a pass is not a proof",
    )


# criterion id -> its sweep, called as (f, n, interval, mode, sampler, config).
# The sweep functions are looked up by name at call time, so rebinding one
# of them on this module reaches certify.
_SWEEPS = {
    "dd-real-q": lambda f, n, iv, m, s, c: dd_criterion(f, n, iv, m, s, False, c.tol),
    "dd-complex-q": lambda f, n, iv, m, s, c: dd_criterion(f, n, iv, m, s, True, c.tol),
    "dd-confluent": lambda f, n, iv, m, s, c: confluent_dd_criterion(f, n, iv, m, s, tol=c.tol),
    "dd-confluent-anchored":
        lambda f, n, iv, m, s, c: confluent_dd_criterion(f, n, iv, m, s, "anchored", c.tol),
    "dd-confluent-free":
        lambda f, n, iv, m, s, c: confluent_dd_criterion(f, n, iv, m, s, "free", c.tol),
    "product-derivative":
        lambda f, n, iv, m, s, c: _run_product_derivative_sweep(f, n, iv, m, s, c.tol),
    **{
        name: lambda f, n, iv, m, s, c, name=name: _run_psd_point_sweep(f, n, iv, name, s, c.tol)
        for name in _PSD_POINT_CRITERIA
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
    names = MONOTONE_CRITERIA if mode == "monotone" else CONVEX_CRITERIA
    seeds = np.random.SeedSequence(config.seed).spawn(len(names) + 1)
    child = {name: int(s.generate_state(1)[0]) for name, s in zip(names, seeds)}
    oracle_seed = int(seeds[-1].generate_state(1)[0])

    records = [
        _SWEEPS[name](f, n, interval, mode, config.sampler(child[name]), config)
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
