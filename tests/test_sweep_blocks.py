"""A sweep draws and settles a batch as arrays, bit for bit.

The block rules of divdiff.place_block and criteria._q_block give the
bytes of the row rules they stand for (place_nodes, _q_coeffs on Python
floats), which run in a DrawBlock of fewer than divdiff.ROW_RULE_ROWS
rows: nodes, multiplicities, q coefficients with their signed zeros,
each row's t, and the errors.  The
bulk settling of _Tally gives the margins, worst margin, witness, configs,
dismissed count and errors of the per-row loop it replaced, and the
escalation of real dd and point rows gives, in double, the rows of the
per-row ladder (both frozen below).
"""

import functools
import json
import math

import numpy as np
import pytest

from matmono import divdiff
from matmono.criteria import (
    _DD_SHAPES,
    POINT_CRITERIA,
    _dd_rows,
    _dd_triangles,
    _draw_dd,
    _draw_points,
    _draw_product,
    _enclosures,
    _entries,
    _escalate,
    _escalate_dd,
    _escalate_points,
    _layout,
    _open,
    _over_entries,
    _point_rows,
    _q_block,
    _q_coeffs,
    _q_rows,
    _q_width,
    _Rows,
    _shares,
    _symmetric,
    _Tally,
    _witness,
)
from matmono.divdiff import (
    LONG_DOUBLE_WIDER,
    DrawBlock,
    NarrowIntervalError,
    dd_threshold,
    divided_differences,
    double_settles,
    extended_divided_differences,
    place_block,
    place_nodes,
    place_width,
    sweep_batches,
)
from matmono.expr import FunctionModel, parse
from matmono.linalg import psd_scale
from matmono.polynomial import n_coeffs

# wide and narrow, on both sides of zero, near 1e6 and 1e8 (the CI
# intervals), two so narrow that clustered nodes tie and are pushed apart
# by ulps, one of them negative, and one of subnormal width
INTERVALS = ((0.5, 4.0), (0.1, 10.0), (-0.42, 0.42), (-2.0, 2.0), (1e6, 1e6 + 1e-3),
             (1e8, 1e8 + 0.01), (1.0, 1.0 + 1e-12), (-1.0 - 1e-12, -1.0), (-1e-300, 1e-300))
# two full batches per case, at the start of a sweep and further on
BATCHES = (range(0, 256), range(1000, 1256))
# the q of the dd shapes: real and complex for distinct nodes (dd-real-q,
# dd-complex-q), alternating for doubled ones (the confluent criteria)
Q_KINDS = {"distinct-2n": (False, True), "distinct-2n+1": (False, True),
           "doubled": (None,), "doubled-anchored": (None,), "doubled-free": (None,)}


def _both(monkeypatch, draw):
    """draw() by the block rules and by the row rules."""
    monkeypatch.setattr(divdiff, "ROW_RULE_ROWS", 0)
    block = draw()
    monkeypatch.setattr(divdiff, "ROW_RULE_ROWS", 10**9)
    return block, draw()


def _same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if a is None or b is None:
            assert a is b
        else:
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("interval", INTERVALS, ids=[str(iv) for iv in INTERVALS])
def test_block_rules_match_the_row_rules(monkeypatch, interval):
    assert set(Q_KINDS) == set(_DD_SHAPES.values())
    rows = 0
    for n in (1, 2, 3, 4):
        for shape, q_kinds in Q_KINDS.items():
            for indices in BATCHES:
                for complex_coeffs in q_kinds:
                    block, row = _both(monkeypatch, lambda: _draw_dd(
                        np.random.default_rng([n, indices.start]), shape, n, interval, complex_coeffs,
                        indices))
                    _same_bytes([block.points, block.mults, block.nodes, block.q, block.q_len],
                                [row.points, row.mults, row.nodes, row.q, row.q_len])
                    rows += len(indices)
        for criterion in POINT_CRITERIA:
            for indices in BATCHES:
                block, row = _both(monkeypatch, lambda: _draw_points(
                    np.random.default_rng([n, indices.start]), criterion, n, interval, indices))
                _same_bytes([block], [row])
                rows += len(indices)
        for indices in BATCHES:
            block, row = _both(monkeypatch, lambda: _draw_product(
                np.random.default_rng([n, indices.start]), n, interval, indices))
            _same_bytes(block, row)
            rows += len(indices)
    assert rows * len(INTERVALS) >= 1e5


def test_the_cases_hold_clusters_that_an_end_clips(monkeypatch):
    """Clusters clipped at an end tie there and are pushed apart by the
    strict-ascent fix-up: the cases above reach that branch."""
    monkeypatch.setattr(divdiff, "ROW_RULE_ROWS", 0)
    lo, hi = INTERVALS[0]
    end = (hi - lo) * 1e-6
    clipped = pushed = 0
    for n in (1, 2, 3):
        for indices in BATCHES:
            pts = _draw_dd(np.random.default_rng([n, indices.start]), "distinct-2n+1", n, (lo, hi), False,
                           indices).points
            assert (np.diff(pts, axis=1) > 0).all()
            clipped += ((pts[:, 0] == lo + end) | (pts[:, -1] == hi - end)).sum()
            pushed += (np.diff(pts, axis=1) < 1e-8).any(axis=1).sum()
    assert clipped and pushed


def _narrow_outcome(draw):
    try:
        return draw()
    except NarrowIntervalError as exc:
        return str(exc)


@pytest.mark.parametrize("interval, count", [((1.0, 1.0 + 8e-15), 3), ((1.0, 1.0 + 5e-15), 2),
                                             ((1e8, 1e8 + 3e-7), 2), ((1.0, 1.0 + 1e-15), 6)])
def test_narrow_intervals_raise_at_the_same_batch(monkeypatch, interval, count):
    """The block rule raises place_nodes' NarrowIntervalError in the
    batches the row rule raises it, and elsewhere places the same nodes:
    in the first three intervals a cluster fits and a spread row does not,
    so the one-row first batch passes and the others raise."""
    monkeypatch.setattr(divdiff, "ROW_RULE_ROWS", 0)
    raised = 0
    for indices in sweep_batches(1000):
        width = place_width(count)

        def by_rows(rng=np.random.default_rng(indices.start)):
            block = DrawBlock(rng, indices, width)
            return np.array([place_nodes(block, count, *interval, idx) for idx in block.rows()])

        def by_block(rng=np.random.default_rng(indices.start)):
            return place_block(DrawBlock(rng, indices, width), count, *interval)[0]

        got, want = _narrow_outcome(by_block), _narrow_outcome(by_rows)
        if isinstance(want, str):
            raised += 1
            assert got == want
        else:
            assert got.tobytes() == want.tobytes()
    assert raised


@pytest.mark.parametrize("span", [0.0, 1.0])
@pytest.mark.parametrize("max_degree", [1, 2, 3])
def test_q_block_keeps_the_signed_zeros_of_the_row_rule(max_degree, span):
    """Roots at +0.0 and -0.0, shifted by normals of scale 0 (span 0) or
    not, where the row rule's products and sums meet zeros of both
    signs: _q_block gives _q_coeffs' bytes, real and complex, in every
    cadence slot."""
    anchors = [0.0, -0.0, 1.0]
    for complex_coeffs in (False, True):
        indices = range(256)

        def block():
            return DrawBlock(np.random.default_rng(max_degree), indices, _q_width(max_degree))

        rows = block()
        want = _q_rows([_q_coeffs(rows, max_degree, anchors, span, idx, complex_coeffs)
                        for idx in rows.rows()], max_degree + 1)
        got = _q_block(block(), np.zeros(len(indices), np.int64), max_degree,
                       np.tile(anchors, (len(indices), 1)), span, np.full(len(indices), complex_coeffs))
        _same_bytes(got, want)


def test_a_row_that_reads_past_its_width_raises():
    rng = np.random.default_rng(1)
    # a cluster reads count + 2 numbers, a spread row count + 1
    block = DrawBlock(rng, range(64), place_width(3) - 1)
    with pytest.raises(RuntimeError, match=r"read past its 4 numbers"):
        place_block(block, 3, 0.5, 4.0)
    with pytest.raises(RuntimeError, match=r"read past its 4 numbers"):
        [place_nodes(block, 3, 0.5, 4.0, idx) for idx in block.rows()]
    # q without the numbers of its widest cadence slot
    block = DrawBlock(rng, range(64), _q_width(2) - 1)
    anchors = np.full((64, 3), 1.0)
    with pytest.raises(RuntimeError, match=r"read past"):
        _q_block(block, np.zeros(64, np.int64), 2, anchors, 1.0, np.ones(64, bool))


# ---------------------------------------------------------------------------
# Bulk settling against the per-row loop


def _frozen_escalate(escalate, f, batches, tol):
    opened = [[i for i in range(start, len(rows)) if _open(*rows[i][:3])] for rows, _, start in batches]
    if not any(opened):
        return
    parts = [[a[at] for a in data] for (_, data, _), at in zip(batches, opened)]
    merged = [np.concatenate(arrays) for arrays in zip(*parts)]
    done = iter(escalate(f, [rows[i] for (rows, _, _), at in zip(batches, opened) for i in at],
                         merged, tol))
    for (rows, _, _), at in zip(batches, opened):
        for i in at:
            rows[i] = next(done)


class _FrozenTally(_Tally):
    """_Tally's per-row loop: every row checked one by one, a witness
    built at each new worst margin."""

    def __init__(self, *args):
        super().__init__(*args)
        self.witness = None

    def check(self, row, config, i=0):
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

    def record(self, passed, note=""):
        rec = super().record(passed, note)
        rec.witness = self.witness
        return rec

    def sweep(self, draw, batches, escalate):
        waiting = []
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

    def _flush(self, waiting, escalate):
        try:
            _frozen_escalate(escalate, self.f, [(rows, data, start) for rows, _, data, start in waiting],
                             self.tol)
        except Exception:
            if len(waiting) < 2:
                raise
            return any(self._flush([batch], escalate) for batch in waiting)
        return any(self.check(rows[i], config, i) < 0.0
                   for rows, config, _, start in waiting for i in range(start, len(rows)))


TH = 1e-3


def _synthetic(seed, mix, matrices):
    """A sweep's draw over synthetic rows: settled (whose margins tie),
    open, proved-negative and non-finite ones by the shares mix; the
    ladder's values and bounds as its data, and the mpmath row as each
    configuration's "exact"."""

    def draw(indices):
        rng = np.random.default_rng([seed, indices.start])
        m = len(indices)
        kind = rng.choice(4, size=m, p=mix)
        bound = 10.0 ** rng.uniform(-8, -4, m)
        u = rng.uniform(-0.9, 0.9, m)
        settled, opened = rng.integers(1, 5, m) / 4, -TH + bound * u
        negative = -TH - 2 * bound - rng.uniform(0, 1e-3, m)
        value = np.select([kind == 0, kind == 1, kind == 2], [settled, opened, negative],
                          rng.choice([np.inf, -np.inf, np.nan], m))
        threshold = np.full(m, TH)
        # the ladder settles most open rows, leaves some open and refutes some
        ladder = np.where(u > -0.6, rng.uniform(-TH, 1.0, m), -TH - rng.uniform(0, 1e-3, m))
        ladder_bound = np.where(u > 0.7, 1.0, 1e-12)
        # mostly a dismissal, sometimes a confirmed violation; NaN for half the non-finite rows
        exact = np.where(rng.uniform(size=m) < 0.99, 1e-6, -2 * TH)
        exact[(kind == 3) & (u > 0)] = np.nan
        mats = rng.standard_normal((m, 2, 2)) if matrices else None

        def config(i):
            return {"criterion": "synthetic", "index": indices[i], "exact": exact.item(i)}

        return (value, threshold, bound, mats), config, (ladder, ladder_bound)

    return draw


def _escalate_rows(f, rows, data, tol):
    """The synthetic ladder over a list of row tuples."""
    ladder, ladder_bound = data
    return [(lad, th, b, matrix)
            for (_, th, _, matrix), lad, b in zip(rows, ladder.tolist(), ladder_bound.tolist())]


def _run(tally_class, seed, mix, matrices, samples):
    tally = tally_class(None, "synthetic", "psd-matrix" if matrices else "dd", 1e-9)

    def evaluate(f, configs, tol):  # the mpmath row
        return [(c["exact"], TH, 0.0, np.full((2, 2), c["exact"]) if matrices else None) for c in configs]

    tally.evaluate = evaluate
    draw = _synthetic(seed, mix, matrices)
    if tally_class is _FrozenTally:
        def rows_of(indices):
            (value, threshold, bound, mats), config, data = draw(indices)
            mats = [None] * len(value) if mats is None else list(mats)
            return list(zip(value.tolist(), threshold.tolist(), bound.tolist(), mats)), config, data
        escalate = _escalate_rows
    else:
        def rows_of(indices):
            columns, config, data = draw(indices)
            return _Rows(*columns), config, data

        def escalate(f, rows, data, tol):
            done = _escalate_rows(f, [rows[i] for i in range(len(rows))], data, tol)
            value, threshold, bound, mats = zip(*done)
            return _Rows(np.array(value), np.array(threshold), np.array(bound),
                         None if rows.mats is None else np.array(mats))
    try:
        rec = tally.record(not tally.sweep(rows_of, sweep_batches(samples), escalate))
    except ValueError as exc:
        return "error", str(exc)
    return (rec.passed, rec.configs, rec.worst_value, json.dumps(rec.witness), tally.margins,
            tally.dismissed, rec.note)


MIXES = {
    "settled": (1.0, 0.0, 0.0, 0.0),
    "mostly-settled": (0.97, 0.02, 0.01, 0.0),
    "open": (0.7, 0.3, 0.0, 0.0),
    "mixed": (0.6, 0.28, 0.12, 0.0),
    "non-finite": (0.9, 0.07, 0.025, 0.005),
}


@pytest.mark.parametrize("matrices", [False, True], ids=["dd", "psd"])
@pytest.mark.parametrize("mix", MIXES, ids=list(MIXES))
def test_bulk_settling_matches_the_per_row_loop(mix, matrices):
    outcomes = set()
    for seed in range(12):
        got = _run(_Tally, seed, MIXES[mix], matrices, 1000)
        want = _run(_FrozenTally, seed, MIXES[mix], matrices, 1000)
        assert got == want
        outcomes.add(got[0])
    # the seeds reach more than one outcome, errors where rows are not finite
    assert outcomes == {True} if mix == "settled" else len(outcomes) > 1
    assert ("error" in outcomes) == (mix == "non-finite")


# ---------------------------------------------------------------------------
# The precision ladder on real rows against the per-row ladder


def _frozen_escalate_dd(f, rows, data, tol):
    nodes, weights, scale = data
    rows, redo = list(rows), list(range(len(rows)))
    if LONG_DOUBLE_WIDER:
        value, wide_scale, bound = divided_differences(f, nodes, weights, np.longdouble)
        threshold = dd_threshold(wide_scale, "extended", tol)
        rows = [(*row, None) for row in zip(value.tolist(), threshold.tolist(), bound.tolist())]
        redo = [i for i, row in enumerate(rows) if _open(*row[:3])]
    if redo:
        floor = dd_threshold(scale[redo], "extended", tol).tolist()
        lo, hi = _enclosures(f, nodes[redo], weights[redo])
        for i, low, high, th in zip(redo, lo.tolist(), hi.tolist(), floor):
            if low + th >= 0.0:
                v = min(max(rows[i][0], low), high)
                rows[i] = (v, th, v - low, None)
    return rows


def _frozen_psd_rows(mats, bounds, tol):
    lam = np.linalg.eigvalsh(mats)[:, 0].tolist()
    return list(zip(lam, (tol * psd_scale(mats)).tolist(), bounds, mats))


def _frozen_escalate_points(f, rows, data, tol, layout):
    X, values, squares = data
    share = _shares(len(layout))
    rows = list(rows)
    if LONG_DOUBLE_WIDER:
        values, bound = _dd_triangles(f, X, layout, np.longdouble)
        squares = share * bound**2
        rows = _frozen_psd_rows(_symmetric(values), np.sqrt(squares.sum(axis=1)).tolist(), tol)
    left = [b for b, row in enumerate(rows) if _open(*row[:3])]
    if left:
        lo, hi = _over_entries(lambda blocks: _enclosures(f, blocks), X[left], layout)
        with np.errstate(invalid="ignore", over="ignore"):
            mid = 0.5 * (lo + hi)
            radius = np.nextafter(np.maximum(hi - mid, mid - lo), np.inf)
            square = share * radius**2
            take = square < squares[left]
            values[left] = np.where(take, mid, values[left])
            squares[left] = np.where(take, square, squares[left])
        redone = _frozen_psd_rows(_symmetric(values[left]), np.sqrt(squares[left].sum(axis=1)).tolist(), tol)
        for b, row in zip(left, redone):
            rows[b] = row
    for b in range(len(rows)):
        value, threshold, bound, _ = rows[b]
        if _open(value, threshold, bound):
            half = 0.5 * (max(value, 0.0) + threshold)
            left = squares[b].sum() - half * half
            picked = []
            for k in np.argsort(-squares[b]).tolist():
                if left <= 0.0:
                    break
                picked.append(k)
                left -= squares[b, k]
            entries = _entries(X[b].tolist(), [layout[k] for k in picked])
            values[b, picked] = extended_divided_differences(f, entries)
            squares[b, picked] = 0.0
            rows[b] = _frozen_psd_rows(_symmetric(values[b : b + 1]), [math.sqrt(squares[b].sum())], tol)[0]
    return rows


def _row_bits(row):
    value, threshold, bound, matrix = row
    # Python floats, not long doubles: every column of a batch is double
    assert all(type(x) is float for x in (value, threshold, bound))
    return [x.hex() for x in (value, threshold, bound)], None if matrix is None else matrix.tobytes()


# functions and intervals whose open rows the long-double step and the
# enclosures settle in part, with rows left for mpmath; near 0, log(x)'s
# extended Loewner rows reach the entries recomputed in mpmath
LADDER_CASES = (("x*log(x)", (0.1, 10.0)), ("x^3", (-0.5, 0.5)), ("sqrt(log(1+x))", (0.5, 4.0)),
                ("log(x)", (1e-9, 1e-2)))


@pytest.mark.parametrize("text, interval", LADDER_CASES, ids=[t for t, _ in LADDER_CASES])
def test_escalation_gives_the_double_rows_of_the_per_row_ladder(text, interval):
    """_escalate over two waiting batches of real rows, one waiting from
    its middle, against the per-row ladder of the parent design; every
    column stays double, where the long-double step runs too."""
    f = FunctionModel(parse(text), (0.0, math.inf) if "log" in text else (-math.inf, math.inf), text)
    tol, n, climbed = 1e-9, 3, 0
    kinds = [(shape, None) for shape in ("distinct-2n", "doubled-anchored", "distinct-2n+1")]
    kinds += [(None, criterion) for criterion in POINT_CRITERIA]
    for shape, criterion in kinds:
        batches, frozen = [], []
        for indices, start in ((range(128, 256), 0), (range(256, 512), 100)):
            rng = np.random.default_rng([n, indices.start])
            if shape is not None:
                d = _draw_dd(rng, shape, n, interval, None, indices)
                rows, data = _dd_rows(f, d.nodes, n_coeffs(d.q), tol)
            else:
                layout = _layout(criterion, n)
                rows, data = _point_rows(f, _draw_points(rng, criterion, n, interval, indices), layout, tol)
            batches.append((rows, data, start))
            frozen.append((list(rows), tuple(a.copy() for a in data), start))
        if shape is not None:
            escalate, frozen_escalate = _escalate_dd, _frozen_escalate_dd
        else:
            escalate = functools.partial(_escalate_points, layout=layout)
            frozen_escalate = functools.partial(_frozen_escalate_points, layout=layout)
        opened = sum(int(rows.opened()[start:].sum()) for rows, _, start in batches)
        _escalate(escalate, f, batches, tol)
        _frozen_escalate(frozen_escalate, f, frozen, tol)
        for (rows, _, _), (want, _, _) in zip(batches, frozen):
            assert all(c.dtype == np.float64 for c in (rows.value, rows.threshold, rows.bound))
            assert list(map(_row_bits, rows)) == list(map(_row_bits, want))
        climbed += opened - sum(int(rows.opened()[start:].sum()) for rows, _, start in batches)
    # the ladder past double settles rows here
    assert climbed > 0
