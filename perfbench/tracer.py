"""Spans around each layer's public functions, installed from outside matmono.

``Tracer.install`` replaces every binding of a traced function: a name
imported into another module (``criteria`` binds ``divided_difference_scaled``,
``min_eigenvalue``, ``matrix_function`` and ``sample_distinct_tuple``) is a
separate binding and is patched there too; methods are patched on their
class.  Each call records a span (name, start, end, parent, op id) in
memory, and per-name totals of calls, inclusive time and self time (span
minus the spans of its children).  ``uninstall`` restores every binding.

Reconciliation: each criterion sweep counts the primary calls it makes
(one dd table, criterion matrix or derivative value per configuration; one
minimum-eigenvalue call per oracle pair) and must find exactly the
``configs`` of the record it returns.  A mismatch means some call path
escapes the wrappers and the per-layer numbers would be incomplete.
"""

from __future__ import annotations

import inspect
import json
import os
from array import array
from time import perf_counter

from matmono import criteria, divdiff, expr, gensets, linalg, polynomial

SWEEPS = ("dd_criterion", "confluent_dd_criterion", "_run_psd_point_sweep",
          "_run_product_derivative_sweep", "_run_derivative_matrix_sweep", "_oracle_record")
CRITERION_IDS = tuple(dict.fromkeys(
    criteria.MONOTONE_CRITERIA + criteria.CONVEX_CRITERIA + ("matrix-oracle",)))
# Per-configuration builders of the sweeps.  Inside a sweep, a call with
# precision="extended" is a re-check, any other call a primary evaluation.
BUILDERS = ("loewner_matrix", "extended_loewner_matrix", "kraus_matrix", "dobsch_matrix",
            "hankel_convex_matrix", "_product_derivative_value")
POLY_METHODS = ("__init__", "of", "from_coeffs", "from_roots", "__add__", "__sub__",
                "__mul__", "scale", "conjugate_coeffs", "derivative", "antiderivative",
                "eval", "__call__", "is_zero", "is_real", "real_coeffs", "max_abs_coeff")


def _arg_getter(fn, name: str):
    """(args, kwargs) -> the value of fn's parameter `name`, found by the
    position and default in fn's signature (read once, here)."""
    params = list(inspect.signature(fn).parameters.values())
    pos = next(i for i, prm in enumerate(params) if prm.name == name)
    default = params[pos].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if len(args) > pos else default
    return get


class _Sweep:
    __slots__ = ("primary", "rechecks", "last_recheck")

    def __init__(self):
        self.primary = 0
        self.rechecks = 0
        self.last_recheck = False


def tree_size(e) -> int:
    """Node count of an expression tree, shared subtrees counted per use."""
    memo: dict[int, int] = {}
    stack = [(e, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in memo:
            continue
        kids = [getattr(node, f) for f in ("arg", "left", "right", "base") if hasattr(node, f)]
        if done:
            memo[id(node)] = 1 + sum(memo[id(k)] for k in kids)
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in kids if id(k) not in memo)
    return memo[id(e)]


SPAN_CAP = 2_000_000  # spans kept in memory (28 bytes each); totals count every call


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        # frame: [span index, child time, name override, start time]
        self.stack: list[list] = [[-1, 0.0, None, 0.0]]
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.op_id = -1
        self.sweep: _Sweep | None = None
        self.oracle_pairs = 0
        self.digits_max = 0
        self.rechecks = 0
        self.confirmed = 0
        self.configs: dict[str, int] = {}
        self.reconciled = 0
        self.unreconciled: list[str] = []
        self.nodes_max = 0
        self.level_sweeps = 0
        self.exhaustive_levels = 0
        self.subsets = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enter(self, nid: int) -> list:
        t0 = perf_counter()
        idx = len(self.span_start)
        if idx < SPAN_CAP:
            self.span_name.append(nid)
            self.span_parent.append(self.stack[-1][0])
            self.span_op.append(self.op_id)
            self.span_start.append(t0)
            self.span_end.append(t0)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [idx, 0.0, None, t0]
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list, name: str):
        t1 = perf_counter()
        self.stack.pop()
        dur = t1 - frame[3]
        self.stack[-1][1] += dur
        if frame[2] is not None:
            name = frame[2]
        if frame[0] >= 0:
            self.span_end[frame[0]] = t1
            if frame[2] is not None:
                self.span_name[frame[0]] = self._name_id(name)
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]

    def _spanned(self, fn, name: str, before=None, after=None):
        """Wrap fn in a span; before(args, kwargs, frame) and
        after(args, kwargs, frame, result) run inside it."""
        nid = self._name_id(name)
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame = enter(nid)
            try:
                if before is not None:
                    before(args, kwargs, frame)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, frame, result)
                return result
            finally:
                exit_(frame, name)
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    # -- hooks -------------------------------------------------------------

    def _count(self, precision: str):
        """Count a per-configuration evaluation of the running sweep."""
        sweep = self.sweep
        if sweep is not None:
            sweep.last_recheck = precision == "extended"
            if sweep.last_recheck:
                sweep.rechecks += 1
            else:
                sweep.primary += 1

    def _dd_table_hook(self, fn):
        precision_of, digits_of = _arg_getter(fn, "precision"), _arg_getter(fn, "digits")

        def wrapper(*args, **kwargs):
            precision = precision_of(args, kwargs)
            self.stack[-1][2] = "divdiff.table." + precision
            if precision == "extended":
                self.digits_max = max(self.digits_max, digits_of(args, kwargs))
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _builder_counter(self, fn):
        # inspect.signature follows __wrapped__, so fn may be a span wrapper
        precision_of = _arg_getter(fn, "precision")

        def wrapper(*args, **kwargs):
            self._count(precision_of(args, kwargs))
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _scoped(self, fn, name: str, sweep_factory, after=None):
        """Span during which self.sweep is sweep_factory(), restored after."""
        inner = self._spanned(fn, name, None, after)

        def wrapper(*args, **kwargs):
            outer, self.sweep = self.sweep, sweep_factory()
            try:
                return inner(*args, **kwargs)
            finally:
                self.sweep = outer
        wrapper.__wrapped__ = fn
        return wrapper

    def _sweep_done(self, args, kwargs, frame, rec):
        sweep = self.sweep
        cid = rec.criterion
        frame[2] = "criteria." + cid
        self.configs[cid] = self.configs.get(cid, 0) + rec.configs
        self.rechecks += sweep.rechecks
        if not rec.passed and sweep.last_recheck:
            self.confirmed += 1
        if sweep.primary == rec.configs:
            self.reconciled += 1
        else:
            self.unreconciled.append(f"{cid}: {sweep.primary} calls, {rec.configs} configs")

    def _oracle_pair(self, args, kwargs, frame):
        if self.sweep is not None:
            self.sweep.primary += 1
            self.oracle_pairs += 1

    def _level(self, args, kwargs, frame, rec):
        self.level_sweeps += 1
        self.subsets += rec.configs
        if rec.note.startswith("all "):
            self.exhaustive_levels += 1

    # -- install -----------------------------------------------------------

    def install(self):
        span = self._spanned
        # expr: derivative builds (cache misses only) and evaluations
        fm = expr.FunctionModel

        def deriv(fn):
            build = span(fn, "expr.deriv_build")

            def wrapper(model, k):
                if len(model.deriv_cache) > k:
                    return fn(model, k)
                return build(model, k)
            wrapper.__wrapped__ = fn
            return wrapper

        def eval_deriv(fn):
            double = span(fn, "expr.eval.double")
            extended = span(fn, "expr.eval.extended")
            precision_of = _arg_getter(fn, "precision")

            def wrapper(*args, **kwargs):
                if precision_of(args, kwargs) == "extended":
                    return extended(*args, **kwargs)
                return double(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper

        self._patch(fm, "deriv", deriv)
        self._patch(fm, "eval_deriv", eval_deriv)

        # polynomial
        for attr in POLY_METHODS:
            self._patch(polynomial.Poly, attr,
                        lambda fn, a=attr: span(fn, "polynomial.Poly." + a))
        for mod in (polynomial, criteria):
            self._patch(mod, "n_of", lambda fn: span(fn, "polynomial.n_of"))

        # divdiff: every table passes through divided_difference_scaled, whose
        # span takes the precision _dd_table runs in
        self._patch(criteria, "divided_difference_scaled",
                    lambda fn: self._builder_counter(span(fn, "divdiff.table.unknown")))
        self._patch(divdiff, "divided_difference_scaled",
                    lambda fn: span(fn, "divdiff.table.unknown"))
        self._patch(divdiff, "_dd_table", self._dd_table_hook)
        for mod in (criteria, linalg, divdiff):
            self._patch(mod, "sample_distinct_tuple", lambda fn: span(fn, "divdiff.sample"))

        # linalg
        for mod in (criteria, linalg):
            self._patch(mod, "matrix_function", lambda fn: span(fn, "linalg.matfun"))
        self._patch(criteria, "min_eigenvalue", lambda fn: span(fn, "linalg.eig"))
        self._patch(linalg, "min_eigenvalue",
                    lambda fn: span(fn, "linalg.eig", self._oracle_pair))
        self._patch(linalg, "eigh", lambda fn: span(fn, "linalg.eig"))
        for attr in ("monotonicity_oracle", "convexity_oracle"):
            self._patch(criteria, attr, lambda fn: span(fn, "linalg.oracle"))

        # criteria: sweeps, their re-checks, certify and replays
        for attr in SWEEPS:
            self._patch(criteria, attr,
                        lambda fn: self._scoped(fn, "criteria.sweep", _Sweep, self._sweep_done))
        for attr in BUILDERS:
            self._patch(criteria, attr, self._builder_counter)
        self._patch(criteria, "certify", lambda fn: span(fn, "criteria.certify"))
        # nested criterion calls of a replay belong to no sweep
        self._patch(criteria, "re_evaluate_witness",
                    lambda fn: self._scoped(fn, "criteria.replay", lambda: None))

        # gensets
        self._patch(gensets, "genset_check", lambda fn: span(fn, "gensets.check"))
        self._patch(gensets, "_level_sweep",
                    lambda fn: span(fn, "gensets.level_sweep", None, self._level))
        self._patch(gensets, "build_counterexample",
                    lambda fn: span(fn, "gensets.counterexample"))
        self._patch(gensets, "extension_feasibility",
                    lambda fn: span(fn, "gensets.feasibility"))
        self._patch(gensets, "re_evaluate_genset_witness",
                    lambda fn: span(fn, "gensets.replay"))
        self._patch(gensets, "_sample_q", lambda fn: span(fn, "criteria.sample_q"))

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def observe_models(self, models):
        """Size of the largest derivative tree an op built (after the op)."""
        for model in models:
            for e in model.deriv_cache:
                self.nodes_max = max(self.nodes_max, tree_size(e))

    # -- results -----------------------------------------------------------

    def _get(self, name: str, field: int) -> float:
        st = self.stats.get(name)
        return st[field] if st else 0

    def _sum(self, prefix: str, field: int) -> float:
        return sum(st[field] for name, st in self.stats.items() if name.startswith(prefix))

    def metrics(self) -> dict[str, tuple[float, str]]:
        g, s = self._get, self._sum
        dbl_s, ext_s = g("divdiff.table.double", 2), g("divdiff.table.extended", 2)
        out = {
            "expr.deriv_build_s": (g("expr.deriv_build", 1), "s"),
            "expr.deriv_nodes_max": (self.nodes_max, "count"),
            "expr.eval_double_calls": (g("expr.eval.double", 0), "count"),
            "expr.eval_double_s": (g("expr.eval.double", 2), "s"),
            "expr.eval_extended_calls": (g("expr.eval.extended", 0), "count"),
            "expr.eval_extended_s": (g("expr.eval.extended", 2), "s"),
            "polynomial.calls": (s("polynomial.", 0), "count"),
            "polynomial.self_s": (s("polynomial.", 2), "s"),
            "divdiff.tables_double": (g("divdiff.table.double", 0), "count"),
            "divdiff.tables_extended": (g("divdiff.table.extended", 0), "count"),
            "divdiff.double_s": (dbl_s, "s"),
            "divdiff.extended_s": (ext_s, "s"),
            "divdiff.extended_share": (ext_s / (dbl_s + ext_s) if dbl_s + ext_s else 0.0, "1"),
            "divdiff.digits_max": (self.digits_max, "count"),
            "divdiff.sample_calls": (g("divdiff.sample", 0), "count"),
            "divdiff.sample_s": (g("divdiff.sample", 2), "s"),
            "linalg.eig_calls": (g("linalg.eig", 0), "count"),
            "linalg.eig_s": (g("linalg.eig", 2), "s"),
            "linalg.matfun_calls": (g("linalg.matfun", 0), "count"),
            "linalg.matfun_s": (g("linalg.matfun", 2), "s"),
            "linalg.oracle_pairs": (self.oracle_pairs, "count"),
            "linalg.oracle_s": (g("linalg.oracle", 1), "s"),
        }
        for cid in CRITERION_IDS:
            out[f"criteria.{cid}.s"] = (g("criteria." + cid, 1), "s")
            out[f"criteria.{cid}.configs"] = (self.configs.get(cid, 0), "count")
        out.update({
            "criteria.self_s": (sum(g("criteria." + cid, 2) for cid in CRITERION_IDS), "s"),
            "criteria.rechecks": (self.rechecks, "count"),
            "criteria.recheck_yield": (self.confirmed / self.rechecks if self.rechecks else 0.0, "1"),
            "criteria.replays": (g("criteria.replay", 0), "count"),
            "criteria.replay_s": (g("criteria.replay", 1), "s"),
            "criteria.sample_q_s": (g("criteria.sample_q", 2), "s"),
            "gensets.check_s": (g("gensets.check", 1), "s"),
            "gensets.subsets": (self.subsets, "count"),
            "gensets.exhaustive_levels_frac": (
                self.exhaustive_levels / self.level_sweeps if self.level_sweeps else 0.0, "1"),
            "gensets.counterexample_s": (g("gensets.counterexample", 1), "s"),
            "gensets.feasibility_s": (g("gensets.feasibility", 1), "s"),
            "gensets.self_s": (s("gensets.", 2), "s"),
            "trace.reconciled_sweeps": (self.reconciled, "count"),
            "trace.unreconciled_sweeps": (len(self.unreconciled), "count"),
            "trace.spans": (len(self.span_start) + self.spans_dropped, "count"),
        })
        return out

    def write(self, path: str):
        """Spans as five little-endian column files plus a JSON index."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        columns = {"name": self.span_name, "parent": self.span_parent, "op": self.span_op,
                   "start": self.span_start, "end": self.span_end}
        with open(path + ".spans", "wb") as fh:
            for col in columns.values():
                col.tofile(fh)
        index = {
            "columns": [[k, col.typecode, len(col)] for k, col in columns.items()],
            "names": self.names,
            "spans_dropped": self.spans_dropped,
            "stats": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "unreconciled": self.unreconciled,
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(index, fh, indent=1)
