"""The benchmark's three workloads: their inputs, their ops and the correctness gate.

An op is one user-visible request.  ``Op.run`` performs it through the
public library API and returns the report text plus every problem the gate
found; an op with a problem counts as failed.  A workload is a list of
rounds, each a list of ops; the list depends only on (seed, seconds), so
two runs with the same arguments do identical work.  A failed op that is
not one of the ``KNOWN_DEFECTS`` makes the whole run incorrect.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace

import numpy as np

from matmono import criteria, gensets
from matmono.criteria import CONVEX_CRITERIA, MONOTONE_CRITERIA, CertifyConfig
from matmono.expr import Expr, FunctionModel, catalog, parse

# Share of --seconds per round.  They fix the number of rounds from
# --seconds alone, never from measured speed, so a faster program does the
# same work in less time.  At --seconds 35 catalog-mix gets 5 rounds of
# 6.5-7.5 s at the baseline, and finite-sets 27 rounds of 1.1-1.3 s.
CATALOG_ROUND_S = 7.0
FINITE_ROUND_S = 1.3

# Defects of the program at the baseline: op key -> the patterns its
# problems may match.  An op whose every problem matches still counts as
# failed, so the defect stays visible in `failed` and `ops_ok_frac`; any
# other failed op makes the run incorrect.
KNOWN_DEFECTS = {
    # refuted truly, but some criteria pass beside those that refute
    **{f"x+x^3@{a}|2|monotone": (r"conflicts: criteria-split$",) for a in (0.42, 0.45, 0.5)},
    # false confirmed refutation: the anchored confluent table reads -1.85
    # where mpmath differentiation of x^1.95 |q|^2 gives +1.165
    "x^1.95|2|convex": (r"verdict fail, known truth pass, failing dd-confluent-anchored \(",
                        r"conflicts: criteria-split$"),
}


def is_known_defect(key: str, problems: list[str]) -> bool:
    patterns = KNOWN_DEFECTS.get(key, ())
    return bool(problems) and all(any(re.match(p, prob) for p in patterns) for prob in problems)


@dataclass
class Outcome:
    text: str
    problems: list[str]
    models: list[FunctionModel] = field(default_factory=list)


# ---------------------------------------------------------------------------
# certify ops


def _expected_configs(name: str, config: CertifyConfig) -> int:
    if name in ("dobsch-psd", "hankel-psd"):
        return config.grid
    if name == "matrix-oracle":
        return config.oracle_trials
    return config.samples


@dataclass
class CertifyOp:
    """Fresh model, certify, replay every failing witness, serialise."""

    key: str
    expr: Expr
    domain: tuple[float, float]
    name: str
    n: int
    interval: tuple[float, float]
    mode: str
    seed: int
    truth: bool  # True: the function is n-monotone (n-convex) on the interval
    reason: str  # why the truth holds

    def run(self) -> Outcome:
        model = FunctionModel(self.expr, self.domain, self.name)
        config = CertifyConfig(seed=self.seed)
        report = criteria.certify(model, self.n, self.interval, self.mode, config)
        problems = []
        for rec in report.records:
            if rec.passed:
                continue
            if rec.witness is None:
                problems.append(f"{rec.criterion}: failing record without witness")
                continue
            replay = criteria.re_evaluate_witness(model, rec.witness, config.tol)
            if not replay["confirmed"]:
                problems.append(f"{rec.criterion}: witness does not replay ({replay['value']!r})")
        text = json.dumps(report.to_jsonable())

        want = "pass" if self.truth else "fail"
        if report.verdict != want:
            failing = ",".join(r.criterion for r in report.records if not r.passed) or "none"
            problems.append(f"verdict {report.verdict}, known truth {want}, "
                            f"failing {failing} ({self.reason})")
        if report.conflicts:
            problems.append("conflicts: " + ",".join(c["kind"] for c in report.conflicts))
        names = MONOTONE_CRITERIA if self.mode == "monotone" else CONVEX_CRITERIA
        ran = [r.criterion for r in report.records]
        if ran != list(names) + ["matrix-oracle"]:
            problems.append(f"criteria run {ran}")
        for rec in report.records:
            need = _expected_configs(rec.criterion, config)
            if rec.passed and rec.configs < need:
                problems.append(f"{rec.criterion}: passed after {rec.configs} < {need} configs")
        return Outcome(text, problems, [model])


# ---------------------------------------------------------------------------
# finite-set ops


def _check_genset_report(rep, samples: int) -> list[str]:
    """Replay every failing level; passing levels must have run in full."""
    problems = []
    for rec in rep.levels + rep.auxiliary_levels:
        if not rec.passed:
            if rec.witness is None:
                problems.append(f"k={rec.k}: failing level without witness")
            elif not gensets.re_evaluate_genset_witness(rec.witness)["confirmed"]:
                problems.append(f"k={rec.k}: witness does not replay")
            continue
        if rec.note.startswith("no subsets"):
            continue
        if rec.note.startswith("all "):
            comb = math.comb(rep.size, 2 * rec.k)  # every subset, refilled up to samples
            need = comb * max(1, samples // comb)
        else:
            need = samples
        if rec.configs < need:
            problems.append(f"k={rec.k}: passed after {rec.configs} < {need} configs")
    return problems


@dataclass
class GensetOp:
    """genset_check of a finite function with known (or unknown) truth."""

    key: str
    finite: gensets.FiniteFunction
    n: int
    samples: int
    seed: int
    truth: bool | None  # None: the restriction may pass or fail
    levels: dict[int, bool] = field(default_factory=dict)  # required level verdicts

    def run(self) -> Outcome:
        rep = gensets.genset_check(self.finite, self.n, samples=self.samples, seed=self.seed)
        problems = _check_genset_report(rep, self.samples)
        text = json.dumps(rep.to_jsonable())
        if self.truth is not None and rep.passed != self.truth:
            problems.append(f"verdict {rep.verdict}, known truth {'pass' if self.truth else 'fail'}")
        for k, want in self.levels.items():
            if rep.level(k).passed != want:
                problems.append(f"level k={k} verdict differs from known truth")
        return Outcome(text, problems)


@dataclass
class CounterexampleOp:
    """build_counterexample plus extension_feasibility, which must be empty."""

    key: str
    n: int
    points: tuple[float, ...]
    poles: tuple[float, ...]
    x0: float | None  # None: midpoint of the gap interval
    seed: int

    def run(self) -> Outcome:
        bundle = gensets.build_counterexample(
            self.n, self.points, self.poles, samples=800, seed=self.seed
        )
        lo, hi = bundle.gap_interval
        x0 = 0.5 * (lo + hi) if self.x0 is None else self.x0
        feas = gensets.extension_feasibility(bundle, x0, samples=600, grid=4000, seed=self.seed)
        text = json.dumps(
            {
                "bundle": bundle.to_jsonable(),
                "x0": x0,
                "feasible_intervals": feas.feasible_intervals,
                "binding": feas.binding,
                "constraints": feas.constraint_count,
            }
        )
        problems = []
        if not feas.empty:
            problems.append(f"extension feasible at {x0}: {feas.feasible_intervals}")
        forced = sorted(feas.binding.values())
        if len(forced) != 2 or forced[1] - forced[0] <= 1e-9 * max(1.0, abs(forced[1])):
            problems.append(f"binding windows do not force two values: {feas.binding}")
        return Outcome(text, problems)


# ---------------------------------------------------------------------------
# catalog-mix


# The 40 full sweeps (passes and the x+x^3 family) by cost tier, each tier
# in ascending order of median cost over seeds 1-10 at the baseline, in
# groups of alternatives.  Each run takes one alternative of every group:
# one of three neighbours, or the outer or the inner two of four, so every
# seed runs 5 + 10 + 5 sweeps of nearly the same total cost, and all 40
# are covered across seeds.
N3_SWEEPS = (  # 2.1-4.2 s
    (("x|3|monotone", "-1/x|3|monotone"), ("x^0.75|3|monotone", "x^0.25|3|monotone")),
    (("log(x)|3|monotone", "sqrt(x)|3|monotone"), ("x|3|convex", "x^2|3|convex")),
    (("x^1.5|3|convex",),),
)
# n = 2, 0.6-1.8 s.  Four run every time and three of each run cost more
# than they.  op_p90_s centres between the 10th and 11th slowest of 100
# ops: after the five n = 3 sweeps and those three, on the second and
# third of the four, inside the n = 2 cluster instead of on its edge.
N2_SWEEPS = (
    (("x+x^3@0.5|2|monotone", "x+x^3@0.42|2|monotone"),
     ("x+x^3@0.45|2|monotone", "x|2|monotone")),
    (("log(x)|2|monotone", "sqrt(x)|2|monotone", "x+x^3@0.35|2|monotone",
      "x^0.95|2|monotone"),),
    (("x^0.25|2|monotone", "x^2|2|convex"), ("x^0.75|2|monotone", "-1/x|2|monotone")),
    (("x+x^3@0.4|2|monotone", "x^1.95|2|convex"), ("x^1.5|2|convex", "x|2|convex")),
)
N1_SWEEPS = (  # 0.4-0.8 s
    (("x^2|1|monotone",), ("x^1.5|1|monotone",), ("log(x)|1|monotone",)),
    (("x|1|monotone",), ("x^0.25|1|monotone",), ("sqrt(x)|1|monotone",)),
    (("-1/x|1|monotone",), ("exp(x)|1|monotone",), ("x^3|1|monotone",)),
    (("x^2|1|convex",), ("x|1|convex",), ("x^0.75|1|monotone",)),
    (("exp(x)|1|convex",), ("x^3|1|convex",), ("x^1.5|1|convex",)),
)

# Refutations that take 4-16 ms at the baseline: their first configurations
# already refute, so their cost hardly depends on the draw.  Each round has
# 16 refutation slots; every refutation runs once, and further copies of
# these fill the other slots, about four of each at 5 rounds.  They are
# then 69 of the run's 100 ops and hold op_p50_s at three quarters of their
# range, below the slower refutations (16-250 ms), whose cost does depend
# on the draw and would otherwise put the median on their edge.
FAST_REFUTATIONS = frozenset(
    f"{f}|{n}|convex" for f in ("-1/x", "log(x)", "x^0.25", "x^0.75") for n in (1, 2, 3)
) | {"sqrt(x)|1|convex", "sqrt(x)|2|convex", "x^1.5|2|monotone", "x^1.5|3|monotone",
     "x^1.05|2|monotone", "x^2.05|2|convex"}
REFUTATION_SLOTS = 16

# x + x^3 is 2-monotone on (-a, a) iff its Dobsch matrix
# [[1 + 3t^2, 3t], [3t, 1]] is PSD there, i.e. det = 1 - 6t^2 >= 0 for
# |t| < a, i.e. a <= 1/sqrt(6) ~ 0.408.
CUBIC_HALF_WIDTHS = (0.35, 0.40, 0.42, 0.45, 0.5)
CUBIC_TRUTH_REASON = "Dobsch determinant of x+x^3 is 1-6t^2: PSD iff |t| <= 1/sqrt(6)"

# catalog(power_exponents=...) gives the truths: x^p is n-monotone for every
# n iff 0 <= p <= 1 and n-convex for every n iff 1 <= p <= 2, and only
# 1-monotone (1-convex) just past those ends.  Built through catalog()
# because the parser accepts integer exponents only.
BOUNDARY_POWERS = {0.95: "monotone", 1.05: "monotone", 1.95: "convex", 2.05: "convex"}


def _catalog_ops(seed: int) -> tuple[dict[str, CertifyOp], list[CertifyOp]]:
    sweeps: dict[str, CertifyOp] = {}
    refutations: list[CertifyOp] = []
    for e in catalog():
        for n in (1, 2, 3):
            for mode in ("monotone", "convex"):
                truth = e.truth.is_monotone(n) if mode == "monotone" else e.truth.is_convex(n)
                reason = e.truth.monotone_note if mode == "monotone" else e.truth.convex_note
                key = f"{e.key}|{n}|{mode}"
                op = CertifyOp(key, e.model.expr, e.model.domain, e.model.name,
                               n, e.interval, mode, seed, truth, reason)
                if truth:
                    sweeps[key] = op
                else:
                    refutations.append(op)
    powers = catalog(power_exponents=tuple(BOUNDARY_POWERS))[-len(BOUNDARY_POWERS):]
    for e, mode in zip(powers, BOUNDARY_POWERS.values()):
        truth = e.truth.is_monotone(2) if mode == "monotone" else e.truth.is_convex(2)
        reason = e.truth.monotone_note if mode == "monotone" else e.truth.convex_note
        key = f"{e.key}|2|{mode}"
        op = CertifyOp(key, e.model.expr, e.model.domain, e.model.name,
                       2, e.interval, mode, seed, truth, reason)
        if truth:
            sweeps[key] = op
        else:
            refutations.append(op)
    cubic = parse("x+x^3")
    for a in CUBIC_HALF_WIDTHS:
        key = f"x+x^3@{a}|2|monotone"
        sweeps[key] = CertifyOp(key, cubic, (-math.inf, math.inf), "x+x^3", 2, (-a, a),
                                "monotone", seed, a <= 1 / math.sqrt(6), CUBIC_TRUTH_REASON)
    return sweeps, refutations


def catalog_mix(seed: int, seconds: float) -> list[list]:
    """Rounds of four full sweeps (one n = 3, two n = 2, one n = 1) and 16
    refutations, so full sweeps are a fifth of all ops."""
    rng = np.random.default_rng([seed, 1])
    sweeps, refutations = _catalog_ops(seed)
    tiers = (N3_SWEEPS, N2_SWEEPS, N1_SWEEPS)
    if sorted(sweeps) != sorted(k for t in tiers for group in t for alt in group for k in alt):
        raise RuntimeError("the sweep tiers do not match the sweep ops")
    n3, n2, n1 = ([sweeps[k] for group in t for k in group[int(rng.integers(0, len(group)))]]
                  for t in tiers)
    rounds_n = max(1, round(seconds / CATALOG_ROUND_S))
    fast = [op for op in refutations if op.key in FAST_REFUTATIONS]
    if len(fast) != len(FAST_REFUTATIONS):
        raise RuntimeError("FAST_REFUTATIONS does not match the refutation ops")
    # every refutation once, then copies of the fast ones; each copy draws
    # its own configurations, so the latency percentiles rest on
    # independent samples rather than on repeats of one
    deck = [refutations[i] for i in rng.permutation(len(refutations))]
    for c in range(1, REFUTATION_SLOTS * rounds_n // len(fast) + 1):
        deck += [replace(fast[i], seed=seed + 1000 * c, key=f"{fast[i].key}|{c}")
                 for i in rng.permutation(len(fast))]
    slots = deck[:REFUTATION_SLOTS * rounds_n]
    rng.shuffle(slots)
    half = len(n2) // 2
    rounds = []
    for r in range(rounds_n):
        ops = [n3[r % len(n3)], n2[r % half], n2[half + r % half], n1[r % len(n1)]]
        ops += slots[r * len(slots) // rounds_n:(r + 1) * len(slots) // rounds_n]
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# composite-n3

# Each text appears once per process: no op can reuse another's work.
# The two ops of middle cost, which carry most of op_p50_s, run first and
# last rather than back to back: the host's slow phases last about one op
# (over seeds 1-10 the times of adjacent ops correlated 0.6-0.7, of the
# others 0.15-0.36), so one phase rarely slows both.
COMPOSITES = (
    ("sqrt(log(1+x))", (0.5, 4.0), "monotone",
     "composition of operator-monotone sqrt(y) and log(1+x)"),
    ("log(1+sqrt(x))", (0.5, 4.0), "monotone",
     "composition of operator-monotone log(1+y) and sqrt(x)"),
    ("x^2", (0.1, 10.0), "convex",
     "t f(A)+(1-t) f(B)-f(tA+(1-t)B) = t(1-t)(A-B)^2 >= 0"),
    ("x*log(x)", (0.1, 10.0), "convex",
     "x log x = int_0^inf (x/(1+t) - x/(x+t)) dt averages operator-convex terms"),
)


def composite_n3(seed: int, seconds: float) -> list[list]:
    ops = [
        CertifyOp(f"{text}|3|{mode}", parse(text), (0.0, math.inf), text,
                  3, interval, mode, seed, True, reason)
        for text, interval, mode, reason in COMPOSITES
    ]
    return [ops]


# ---------------------------------------------------------------------------
# finite-sets

# The inputs of acceptance test 6: the non-extendable bundles at n = 2, 3.
COUNTEREXAMPLES = (
    (2, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0), (0.0, 7.0), 3.5),
    (3, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0), (-4.0, -3.0, -2.0, -1.0), None),
)

# Monotone (0 -> 1) then decreasing (1 -> 2): level k=1 fails, while the
# single 4-point window of level k=2 is clean.
PATHOLOGICAL = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0))


def finite_sets(seed: int, seconds: float) -> list[list]:
    """Rounds of 20 restrictions (each catalog function at n = 2, 3, on a
    fresh 12-16 point set), both counterexample bundles and the
    pathological set.  The last three repeat every round with the same
    seed, so their reports must repeat byte for byte."""
    entries = catalog()
    fixed = [
        CounterexampleOp(f"counterexample|{n}", n, pts, poles, x0, seed)
        for n, pts, poles, x0 in COUNTEREXAMPLES
    ]
    fixed.append(
        GensetOp("pathological", gensets.FiniteFunction.from_pairs(PATHOLOGICAL), 2,
                 10_000, seed, False, {1: False, 2: True})
    )
    rounds = []
    for r in range(max(1, round(seconds / FINITE_ROUND_S))):
        rng = np.random.default_rng([seed, 3, r])
        ops = list(fixed)
        for e in entries:
            lo, hi = e.interval
            for n in (2, 3):
                m = int(rng.integers(12, 17))
                pts = np.unique(rng.uniform(lo, hi, size=m))
                finite = gensets.FiniteFunction.from_model(e.model, pts)
                truth = True if e.truth.is_monotone(n) else None
                ops.append(GensetOp(f"genset|{e.key}|{n}|round{r}", finite, n, 2000,
                                    seed + r, truth))
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


BUILDERS = {"catalog-mix": catalog_mix, "composite-n3": composite_n3, "finite-sets": finite_sets}


def build(workload: str, seed: int, seconds: float) -> list[list]:
    return BUILDERS[workload](seed, seconds)
