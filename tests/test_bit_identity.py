"""The per-configuration fast paths reproduce the code they replaced bit for bit.

The tests hold frozen copies of the replaced code and check that the
current code gives the same bytes: node draws and the generator state
after them, extended tables on raw mpf tuples against mpf arithmetic,
double and long-double tables, random() draws against the uniform()
draws they stand for, one eigvalsh call per stack against one per
matrix, the column-by-column denominator of the finite-set kernel
against its pairwise-difference cube, the matrix oracle's stacked
trials against its one-trial-at-a-time loop, the batch's N(q)
coefficient rows against n_of, the product-derivative rows and
values, now dd tables over repeated t, against the jet product that
computed them, and the Dobsch and Hankel matrices, now point rows over
repeated t, against the scalar jets that filled them.  The exact feasible interval replaced a y-grid scan and
is not bit for bit: it must hold every grid point the frozen scan
accepts, and end where the constraints stop holding.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from matmono import DomainError, FunctionModel, NodeMultiset, Poly, parse
from matmono.criteria import _dd_rows, _psd_rows, _sample_q
from matmono.divdiff import (
    _EPS,
    MARGIN_FRACTION,
    SEED_ERROR,
    STEP_ERROR,
    _dd_table,
    _hermite_batch,
    _needed_digits,
    dd_threshold,
    divided_difference_scaled,
    sample_distinct_tuple,
)
from matmono.expr import EXTENDED_DIGITS, cauchy, jet
from matmono.gensets import (
    FiniteFunction,
    _feasible_interval,
    _level_q,
    _level_subsets,
    _weighted_terms,
)
from matmono.linalg import (
    convexity_oracle,
    matrix_to_jsonable,
    min_eigenvalue,
    monotonicity_oracle,
    psd_scale,
)
from matmono.polynomial import ONE, n_coeffs, n_of, taylor_shift

# ---------------------------------------------------------------------------
# Frozen copies of the replaced code


def _frozen_halton(index, base):
    f, r, i = 1.0, 0.0, index
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _frozen_sample_distinct_tuple(rng, count, interval, index):
    a, b = float(interval[0]), float(interval[1])
    span = b - a
    margin = span * 1e-6
    delta = span / 1000.0
    u = rng.uniform(size=count)
    if index % 3 == 0:
        u = np.array([_frozen_halton(index + 1, _BASES[d % len(_BASES)]) for d in range(count)])
        u = 0.999 * u + 0.0005
    if rng.uniform() < 0.3:
        scale = (1e-1, 1e-2, 1e-3)[index % 3]
        center = rng.uniform(a + margin, b - margin)
        width = scale * span
        x = center + width * (np.sort(u) - 0.5)
        x = np.clip(x, a + margin, b - margin)
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


def _frozen_dd_table_extended(f, nodes, weight, digits, jet=None):
    """The mpf recursion of the extended table, with its seeds."""
    z = nodes.flatten()
    m = len(z)
    with mpmath.workdps(digits):
        seeds = {}
        for v, mult in nodes.nodes:
            seeds[v] = f.taylor(v, mult, "extended", digits) if jet is None else jet(v)
            if weight is not None:
                seeds[v] = cauchy(weight.taylor(mpmath.mpf(v), mult), seeds[v], mult)
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


def _frozen_hermite_batch(f, z, weights):
    rows, m = z.shape
    eps = float(np.finfo(z.dtype).eps)
    K = 1
    while K < m and (z[:, K:] == z[:, :-K]).any():
        K += 1
    fjet = [c if isinstance(c, np.ndarray) else np.full(z.shape, c, z.dtype) for c in f.taylor(z, K)]
    fabs = [np.abs(c) for c in fjet]
    if weights is None:
        seeds, seed_err = fjet, fabs
    else:
        d = max(len(w.coeffs) for w in weights) or 1
        coeffs = np.array([w.real_coeffs() + (0.0,) * (d - len(w.coeffs)) for w in weights])
        both = taylor_shift(np.concatenate([coeffs, np.abs(coeffs)]).T[:, :, None], np.concatenate([z, np.abs(z)]), K)
        seeds = cauchy([c[:rows] for c in both], fjet, K)
        seed_err = cauchy([c[rows:] for c in both], fabs, K)
    seed_err = [SEED_ERROR * eps * e for e in seed_err]
    col, err = seeds[0], seed_err[0]
    entries = np.empty((rows, m * (m + 1) // 2), z.dtype)
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
        err = (err[:, 1:] + err[:, :-1]) / gap + (STEP_ERROR * eps) * size
        if j < K:
            err = np.where(same, seed_err[j][:, : m - j], err)
    return col[:, 0], entries.max(axis=1), err[:, 0]


def _frozen_product_rows(f, t, weights, order, tol):
    """The product-derivative sweep's double rows before they were dd rows:
    coefficient `order` of the jet of f times the jet of each N(q) at t,
    thresholded at its largest term."""
    fjet = [c if isinstance(c, np.ndarray) else np.full(t.shape, c) for c in f.taylor(t, order + 1)]
    wjet = taylor_shift(list(weights.T), t, order + 1)
    terms = [fc * wc for fc, wc in zip(reversed(fjet), wjet)]
    threshold = dd_threshold(np.abs(terms).max(axis=0), "double", tol)
    return sum(terms).tolist(), threshold.tolist()


def _frozen_product_value(f, weight, t, order):
    """The product-derivative value before it was an mpmath dd table: the
    same jet product at EXTENDED_DIGITS, and its largest term."""
    fjet = f.taylor(t, order + 1, "extended")
    with mpmath.workdps(EXTENDED_DIGITS):
        terms = [fc * wc for fc, wc in zip(reversed(fjet), weight.taylor(mpmath.mpf(t), order + 1))]
        return sum(terms), max(abs(term) for term in terms)


def _frozen_jet_hankel(jet, offset, n):
    return np.array([[jet[i + j + offset] for j in range(n)] for i in range(n)], dtype=float)


def frozen_dobsch_matrix(f, t, n):
    """The Dobsch matrix the t-grid sweep probed before its probes were
    point rows: the scalar double jet at t, f^(i+j-1)(t)/(i+j-1)!."""
    return _frozen_jet_hankel(f.taylor(float(t), 2 * n, "double"), 1, n)


def frozen_hankel_convex_matrix(f, t, n):
    """The scalar double Hankel matrix, f^(i+j)(t)/(i+j)!."""
    return _frozen_jet_hankel(f.taylor(float(t), 2 * n + 1, "double"), 2, n)


def _frozen_psd_row(M, bound, tol):
    return min_eigenvalue(M), tol * psd_scale(M), bound, M


_FROZEN_GRID_CHUNK = 256


def _frozen_feasible_scan(a, b, th, ys):
    """Every constraint at every grid point, in chunks of grid columns."""
    grid = len(ys)
    feasible = np.empty(grid, dtype=bool)
    for lo in range(0, grid, _FROZEN_GRID_CHUNK):
        cols = ys[lo : lo + _FROZEN_GRID_CHUNK]
        feasible[lo : lo + len(cols)] = (
            (a[:, None] + b[:, None] * cols[None, :]) >= -th[:, None]
        ).all(axis=0)
    run = np.flatnonzero(feasible)
    return (int(run[0]), int(run[-1])) if len(run) else None


def _frozen_weighted_terms(P, V, Q):
    """The finite-set kernel with its (rows, 2k, 2k) difference cube."""
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


# The matrix oracle as it ran one trial at a time, on one matrix at a time.


def _frozen_scale(*mats):
    return max(1.0, *(float(np.abs(M).max()) for M in mats))


def _frozen_hermitian(H):
    if float(np.abs(H - H.conj().T).max()) > 1e-13 * _frozen_scale(H):
        raise ValueError("matrix is not Hermitian")
    return 0.5 * (H + H.conj().T)


def _frozen_matrix_function(f, H):
    w, Q = np.linalg.eigh(_frozen_hermitian(H))
    F = (Q * f.eval(w)) @ Q.conj().T
    return 0.5 * (F + F.conj().T)


def _frozen_gaussian(rng, shape, complex_field):
    G = rng.normal(size=shape)
    return G + 1j * rng.normal(size=shape) if complex_field else G


def _frozen_spectrum_matrix(rng, lam, complex_field):
    lam = np.asarray(lam, dtype=float)
    Q, R = np.linalg.qr(_frozen_gaussian(rng, (lam.size, lam.size), complex_field))
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    Q = Q * (d / np.abs(d))
    H = (Q * lam) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


def _frozen_projection_pair(targets):
    t = tuple(float(v) for v in targets)
    if any(not u < v for u, v in zip(t, t[1:])):
        raise ValueError("targets must be strictly increasing")
    a, b = np.array(t[0::2]), np.array(t[1::2])
    n = a.size
    v2 = np.empty(n)
    for k in range(n):
        num = float(np.prod(b[k] - a))
        den = float(np.prod(np.delete(b[k] - b, k))) if n > 1 else 1.0
        v2[k] = num / den
    if np.any(v2 <= 0):
        raise ValueError("targets do not interlace")
    v = np.sqrt(v2)
    B = np.diag(b).astype(float)
    A = B - np.outer(v, v)
    err = float(np.abs(B - A - np.outer(v, v.conj())).max())
    err = max(err, float(np.abs(np.linalg.eigvalsh(A) - np.array(t[0::2])).max()))
    err = max(err, float(np.abs(np.linalg.eigvalsh(B) - np.array(t[1::2])).max()))
    if err > 1e-8 * max(1.0, max(abs(x) for x in t)):
        raise ValueError(f"projection pair deviates by {err:.3e}")
    return [A, B]


def _frozen_rank_one_chain(A, B):
    A, B = _frozen_hermitian(A), _frozen_hermitian(B)
    D = B - A
    w, Q = np.linalg.eigh(D)
    top = max(float(w[-1]), 0.0)
    if float(w[0]) < -1e-9 * _frozen_scale(D):
        raise ValueError("B - A is not positive semidefinite")
    kept = [i for i in range(w.size) if float(w[i]) > 1e-12 * max(1.0, top)]
    chain, M = [A], A
    for i in kept[:-1]:
        M = M + float(w[i]) * np.outer(Q[:, i], Q[:, i].conj())
        M = 0.5 * (M + M.conj().T)
        chain.append(M)
    chain.append(B)
    return chain


def _frozen_search(kind, trials, seed, tol, draw):
    """The scalar loop, one generator of configurations per trial.  Returns
    the records (passed, configs, worst_value, witness) a search of
    1, 2, ... trials ends with, up to the first violation, and the
    violation's record (None if there is none)."""
    rng = np.random.default_rng(seed)
    worst, witness, checked, records = math.inf, None, 0, []
    for idx in range(trials):
        for A, B, FA, FB, FM, t in draw(rng, idx):
            checked += 1
            if FM is None:
                defect, scale = FB - FA, _frozen_scale(FA, FB)
            else:
                defect, scale = t * FA + (1.0 - t) * FB - FM, _frozen_scale(FA, FB, FM)
            lam_min = float(np.linalg.eigvalsh(defect)[0])
            if lam_min / scale < worst:
                worst = lam_min / scale
                witness = {"kind": kind, "matrix_a": matrix_to_jsonable(A),
                           "matrix_b": matrix_to_jsonable(B),
                           **({} if FM is None else {"weight": t}),
                           "min_eigenvalue": lam_min, "threshold": tol * scale}
            if lam_min < -tol * scale:
                return records, (False, checked, worst, witness)
        records.append((True, checked, worst, witness))
    return records, None


def _frozen_monotonicity_oracle(f, n, interval, trials, seed, tol=1e-9):
    lo, hi = interval
    span = hi - lo
    margin = MARGIN_FRACTION * span

    def draw(rng, idx):
        if idx % 2 == 0:
            steps = _frozen_projection_pair(sample_distinct_tuple(rng, 2 * n, interval, idx).tolist())
        else:
            lam = sample_distinct_tuple(rng, n, (lo, lo + 0.7 * span), idx)
            complex_field = bool(rng.integers(0, 2))
            A = _frozen_spectrum_matrix(rng, lam, complex_field)
            G = _frozen_gaussian(rng, (n, n), complex_field)
            D = G @ G.conj().T
            D = 0.5 * (D + D.conj().T)
            norm = float(np.linalg.eigvalsh(D)[-1])
            headroom = (hi - margin) - float(lam[-1])
            if norm > 0.0:
                D *= headroom * float(rng.uniform(0.1, 1.0)) / norm
            steps = _frozen_rank_one_chain(A, A + D)
        FA = _frozen_matrix_function(f, steps[0])
        for Ma, Mb in zip(steps, steps[1:]):
            FB = _frozen_matrix_function(f, Mb)
            yield Ma, Mb, FA, FB, None, 1.0
            FA = FB

    return _frozen_search("matrix-pair", trials, seed, tol, draw)


def _frozen_convexity_oracle(f, n, interval, trials, seed, tol=1e-9):
    lo, hi = interval
    span = hi - lo
    margin = MARGIN_FRACTION * span

    def draw(rng, idx):
        complex_field = bool(rng.integers(0, 2))
        if idx % 3 == 0:
            lam = sample_distinct_tuple(rng, n, (lo + 0.15 * span, hi - 0.15 * span), idx)
            X = _frozen_spectrum_matrix(rng, lam, complex_field)
            v = _frozen_gaussian(rng, n, complex_field)
            v = v / np.linalg.norm(v)
            headroom = min(float(lam[0]) - lo - margin, hi - margin - float(lam[-1]))
            s = headroom * float(rng.uniform(0.1, 1.0))
            bump = s * np.outer(v, v.conj())
            A, B, t = X + bump, X - bump, 0.5
        else:
            lam_a = sample_distinct_tuple(rng, n, interval, 2 * idx)
            lam_b = sample_distinct_tuple(rng, n, interval, 2 * idx + 1)
            A = _frozen_spectrum_matrix(rng, lam_a, complex_field)
            B = _frozen_spectrum_matrix(rng, lam_b, complex_field)
            t = 0.5 if idx % 3 == 1 else float(rng.uniform(0.05, 0.95))
        M = t * A + (1.0 - t) * B
        yield (A, B, _frozen_matrix_function(f, A), _frozen_matrix_function(f, B),
               _frozen_matrix_function(f, M), t)

    return _frozen_search("jensen", trials, seed, tol, draw)


# ---------------------------------------------------------------------------


def _bits(values) -> list[str]:
    """float.hex of each value: equal bits, signed zeros included."""
    return [float(v).hex() for v in values]


INTERVALS = [(0.5, 4.0), (-1.0, 1.0), (1e-9, 2e-9), (0.0, 1e-12), (-1e6, 1e6), (0.0, 1.0), (3.0, 3.5)]


@pytest.mark.parametrize("interval", INTERVALS, ids=[str(iv) for iv in INTERVALS])
def test_node_draws_and_generator_state_match_the_uniform_sampler(interval):
    for seed in (0, 1, 7):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for count in range(1, 10):
            for index in list(range(0, 60)) + [299, 300, 3000]:
                a = sample_distinct_tuple(new, count, interval, index)
                b = _frozen_sample_distinct_tuple(old, count, interval, index)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert new.bit_generator.state == old.bit_generator.state


def _table_cases():
    clustered = NodeMultiset.from_points([0.7, 0.7 + 1e-9, 1.3, 1.3 + 1e-9, 2.1])
    return {
        "distinct": NodeMultiset.from_points([0.6, 0.9, 1.7, 2.2, 3.1, 3.9]),
        "clustered": clustered,
        "confluent-2": NodeMultiset.from_pairs([(0.8, 2), (1.9, 2), (2.6, 2)]),
        "confluent-3": NodeMultiset.from_pairs([(0.8, 3), (1.4, 1), (3.2, 2)]),
        "one-node": NodeMultiset.from_pairs([(1.1, 3)]),
    }


FUNCTIONS = {
    "log": FunctionModel(parse("log(x)"), domain=(0.0, math.inf)),
    "composite": FunctionModel(parse("sqrt(x) * log(1 + x) - 1/(x + 2)"), domain=(0.0, math.inf)),
}
WEIGHTS = {
    "none": None,
    "real": n_of(Poly.of(0.3, -1.2, 0.5)),
    "complex": n_of(Poly.of(0.2 + 0.7j, -0.4 + 0.1j, 1.0)),
}


@pytest.mark.parametrize("weight", WEIGHTS, ids=list(WEIGHTS))
@pytest.mark.parametrize("name", FUNCTIONS)
def test_extended_table_on_mpf_tuples_matches_mpf_arithmetic(name, weight):
    # 16 digits leave the clustered tables' cancellation visible in the
    # result, so a slip of one bit of working precision shows
    f, w = FUNCTIONS[name], WEIGHTS[weight]
    for key, ms in _table_cases().items():
        for digits in (16, 50, 90, _needed_digits(ms)):
            got = _dd_table(f, ms, "extended", w, digits)
            want = _frozen_dd_table_extended(f, ms, w, digits)
            assert _bits(got) == _bits(want), (key, digits)


def test_extended_table_seeded_from_shared_jets_matches_mpf_arithmetic():
    # extended_divided_differences hands in jets computed at more digits,
    # as raw mpf tuples
    f = FUNCTIONS["composite"]
    for ms in _table_cases().values():
        def jet(v, ms=ms):
            return f.taylor(v, ms.max_multiplicity, "extended", 120)

        def raw_jet(v, jet=jet):
            return [c._mpf_ for c in jet(v)]
        for digits in (16, 50, 90):
            got = _dd_table(f, ms, "extended", None, digits, raw_jet)
            want = _frozen_dd_table_extended(f, ms, None, digits, jet)
            assert _bits(got) == _bits(want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["double", "long-double"])
def test_double_tables_match_the_frozen_batch(dtype):
    rng = np.random.default_rng(5)
    f = FUNCTIONS["composite"]
    for m in range(1, 8):
        for rows in (1, 3, 40):
            z = rng.uniform(0.5, 4.0, (rows, m))
            # repeat nodes in some rows: runs of 2 and 3, and all-equal rows
            z[::2, 1:] = z[::2, :-1]
            z[::3, 2:] = z[::3, :-2]
            z[-1] = z[-1, 0]
            z = np.sort(z.astype(dtype), axis=1)
            qs = [Poly.of(*rng.standard_normal(rng.integers(1, 4))) for _ in range(rows)]
            # the batch takes N(q)'s coefficient rows, the frozen code n_of's Polys
            for weights, polys in ((None, None), (n_coeffs(qs), [n_of(q) for q in qs])):
                got = _hermite_batch(f, z, weights)
                want = _frozen_hermite_batch(f, z, polys)
                for a, b in zip(got, want):
                    # values and signs, not bytes: a long double's padding is not set
                    assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)
                    assert np.array_equal(np.signbit(a), np.signbit(b))


def test_jet_in_a_context_at_its_precision_matches_its_own_workdps():
    e = FUNCTIONS["composite"].expr
    for digits in (16, 50, 90):
        for x in (0.7, 1.3 + 1e-9, 3.9):
            fresh = jet(e, x, 4, "extended", digits)
            with mpmath.workdps(digits):
                inside = jet(e, x, 4, "extended", digits)
            assert [c._mpf_ for c in inside] == [c._mpf_ for c in fresh]


def test_random_draws_match_the_uniform_draws_they_replace():
    for seed in range(5):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (1, 2, 3, 7, 9):
            assert new.random(k).tobytes() == old.uniform(size=k).tobytes()
            assert new.random().hex() == old.uniform().hex()
        assert new.bit_generator.state == old.bit_generator.state


def test_n_of_one_is_the_shared_constant():
    assert n_of(ONE) is ONE
    assert n_of(Poly.of(1.0)) == ONE
    assert [c.imag.hex() for c in n_of(Poly.of(1.0)).coeffs] == [c.imag.hex() for c in ONE.coeffs]


def _stacks(rng):
    for n in (1, 2, 3, 4):
        for rows in (1, 2, 5, 64, 256):
            G = rng.standard_normal((rows, n, n))
            scale = 10.0 ** rng.integers(-6, 7, size=(rows, 1, 1))
            yield scale * (G + G.transpose(0, 2, 1))
            # Loewner-like: rank-one plus a tiny perturbation, near-singular
            v = rng.random((rows, n, 1))
            yield v * v.transpose(0, 2, 1) + 1e-12 * (G + G.transpose(0, 2, 1))
    # a NaN entry: eigenvalues NaN for that matrix only, psd_scale 1.0
    G = rng.standard_normal((3, 2, 2))
    G[1, 0, 1] = G[1, 1, 0] = math.nan
    yield G + G.transpose(0, 2, 1)


def test_batched_eigenvalues_match_one_call_per_matrix():
    rng = np.random.default_rng(11)
    for mats in _stacks(rng):
        bounds = rng.random(len(mats)).tolist()
        got = _psd_rows(mats, bounds, 1e-9)
        for row, M, bound in zip(got, mats, bounds):
            want = _frozen_psd_row(M, bound, 1e-9)
            assert _bits(row[:3]) == _bits(want[:3])
            assert row[3].tobytes() == M.tobytes()


# ---------------------------------------------------------------------------
# Extension feasibility: the exact interval against the scan


_SPECIAL = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300, 5e-324])


def _spiked(rng, x, share):
    """x with about `share` of its entries replaced by special values."""
    hit = rng.random(len(x)) < share
    x[hit] = rng.choice(_SPECIAL, size=int(hit.sum()))
    return x


def _feasibility_cases(rng):
    """(a, b, th, ys): constraints around a common y0, a share of them
    spiked with signed zeros, infinities, NaN and extreme magnitudes,
    on grids of 1 to 300 points over a window, [-1, 1] (a point at 0)
    or a window of width near the largest double."""
    for _ in range(3000):
        rows = int(rng.integers(0, 41))
        share = float(rng.choice([0.0, 0.05, 0.3]))
        y0 = rng.normal()
        b = _spiked(rng, rng.normal(size=rows) * 10.0 ** rng.integers(-3, 4, size=rows), share)
        a = _spiked(rng, -b * y0 + rng.normal(size=rows) * 10.0 ** rng.integers(-6, 1), share)
        th = _spiked(rng, np.abs(rng.normal(size=rows)) * 10.0 ** rng.integers(-9, 0), share)
        grid = int(rng.choice([1, 2, 3, rng.integers(1, 301)]))
        lo, hi = [(y0 - 1, y0 + 1), (-1.0, 1.0), (-8e307, 8e307)][rng.integers(0, 3)]
        yield a, b, th, np.linspace(lo, hi, grid)
    inf, nan = math.inf, math.nan
    # rows whose test is not monotone in the sign of b: with th = inf a
    # row holds wherever a + b*y is not NaN, so b = inf fails at y = 0 only
    # and a = -inf turns b's direction round
    for a, b, th in [([1.0], [inf], [inf]), ([-inf], [1.0], [inf]), ([-inf], [inf], [inf]),
                     ([-inf], [-inf], [inf]), ([1.0, -inf], [inf, inf], [inf, inf]),
                     ([0.0, 0.5], [inf, -1.0], [inf, 0.0]), ([0.0, 0.0], [inf, 1.0], [inf, 0.0]),
                     ([0.0], [nan], [1.0]), ([1.0], [0.0], [nan]), ([-0.0], [-0.0], [0.0]),
                     ([inf], [-1.0], [0.0]), ([-1.0], [1.0], [-inf])]:
        for grid in (1, 2, 3, 4, 5, 101):
            yield np.array(a), np.array(b), np.array(th), np.linspace(-1.0, 1.0, grid)
    # exactly one feasible point, every point, and none
    ys = np.linspace(-2.0, 3.0, 4000)
    for j in (0, 1, 1717, 3998, 3999):
        yield np.array([-ys[j], ys[j]]), np.array([1.0, -1.0]), np.zeros(2), ys
    yield np.array([1.0, 1.0]), np.array([0.5, -0.25]), np.full(2, 10.0), ys
    yield np.array([-1.0, -1.0]), np.array([1.0, -1.0]), np.zeros(2), ys


def _fails_somewhere(a, b, th, y) -> bool:
    return not (a + b * y >= -th).all()


def test_exact_feasible_interval_holds_every_point_the_grid_scan_accepts():
    """The interval read off the half-lines against the scan of every grid
    point: it holds every point the scan accepts, both of its ends pass
    every row, and the next double past each end inside the window fails
    some row."""
    rng = np.random.default_rng(2024)
    runs = {"empty": 0, "one point": 0, "whole grid": 0, "part": 0}
    with np.errstate(all="ignore"):
        for a, b, th, ys in _feasibility_cases(rng):
            case = (a, b, th, ys)
            scan = _frozen_feasible_scan(a, b, th, ys)
            got = _feasible_interval(a, b, th, float(ys[0]), float(ys[-1]))
            if scan is not None:
                assert got is not None, case
                assert got[0] <= ys[scan[0]] and ys[scan[1]] <= got[1], case
            if got is None:
                runs["empty"] += 1
                continue
            lo, hi = got
            assert ys[0] <= lo <= hi <= ys[-1], case
            assert not _fails_somewhere(a, b, th, lo), case
            assert not _fails_somewhere(a, b, th, hi), case
            below, above = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
            if below >= ys[0]:
                assert _fails_somewhere(a, b, th, below), case
            if above <= ys[-1]:
                assert _fails_somewhere(a, b, th, above), case
            # inside, only y = 0 may fail (a row with b infinite and th = inf)
            inside = np.linspace(lo, hi, 9)
            for y in inside[np.isfinite(inside) & (inside != 0.0)]:
                assert not _fails_somewhere(a, b, th, y), case
            if scan is None:
                continue
            if scan[0] == scan[1]:
                runs["one point"] += 1
            elif scan == (0, len(ys) - 1):
                runs["whole grid"] += 1
            else:
                runs["part"] += 1
    assert min(runs.values()) >= 20, runs


def _kernel_cases(rng):
    for k in (1, 2, 3):
        for rows in (1, 7, 2048):
            P = np.sort(rng.normal(size=(rows, 2 * k)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1)), axis=1)
            V = rng.normal(size=(rows, 2 * k))
            Q = rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k))
            yield P, V, Q
            yield P, 1.0, Q
    # the level k = 2 of acceptance test 7's pathological set: 10,000 rows
    f = FiniteFunction.from_pairs([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.0)])
    subsets, _ = _level_subsets(f.size, 4, 10_000, rng)
    P, V = np.array(f.points)[subsets], np.array(f.values)[subsets]
    yield P, V, _level_q(rng, 2, P, f.points[-1] - f.points[0])


def test_column_by_column_denominator_matches_the_difference_cube():
    rng = np.random.default_rng(5)
    for P, V, Q in _kernel_cases(rng):
        got, want = _weighted_terms(P, V, Q), _frozen_weighted_terms(P, V, Q)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The matrix oracle: stacked trials against one trial at a time


ORACLE_FUNCTIONS = {
    "log": (FunctionModel(parse("log(x)"), domain=(0.0, math.inf)), (0.5, 4.0)),
    "sqrt": (FunctionModel(parse("sqrt(x)"), domain=(0.0, math.inf)), (0.5, 4.0)),
    "x+x^3": (FunctionModel(parse("x + x^3")), (-0.45, 0.45)),
    "x^3": (FunctionModel(parse("x^3")), (0.5, 4.0)),
}
ORACLES = {"monotone": (monotonicity_oracle, _frozen_monotonicity_oracle),
           "convex": (convexity_oracle, _frozen_convexity_oracle)}
# around the batch edges 1, 3, 7, 255 and 511 trials
ORACLE_TRIALS = (1, 2, 3, 7, 255, 256, 257, 400)


def _record_bytes(rec) -> tuple:
    passed, configs, worst, witness = rec
    return passed, configs, worst.hex(), json.dumps(witness, sort_keys=True)


@pytest.mark.parametrize("mode", ORACLES)
@pytest.mark.parametrize("name", ORACLE_FUNCTIONS)
def test_stacked_oracle_matches_the_one_trial_loop(name, mode):
    f, interval = ORACLE_FUNCTIONS[name]
    oracle, frozen = ORACLES[mode]
    for n in (1, 2, 3):
        for seed in range(5):
            records, violation = frozen(f, n, interval, max(ORACLE_TRIALS), seed)
            for trials in ORACLE_TRIALS:
                want = records[trials - 1] if trials <= len(records) else violation
                rec = oracle(f, n, interval, trials=trials, seed=seed)
                got = (rec.passed, rec.configs, rec.worst_value, rec.witness)
                assert _record_bytes(got) == _record_bytes(want), (n, seed, trials)


@pytest.mark.parametrize("mode, expr, interval, seed, violation, error", [
    # trials 3-6 form the third batch
    ("monotone", "x + x^3", (-0.5, 0.5), 28, 4, 6),
    ("convex", "x^4", (-1.0, 1.0), 75, 3, 4),
])
def test_an_error_after_the_violation_in_its_batch_is_not_raised(
        mode, expr, interval, seed, violation, error):
    """The domain is narrower than the interval: trial `error` has an
    eigenvalue outside it, trial `violation` of the same batch refutes f
    first.  The one-trial loop returns that violation, and so must the
    stacked one; with no violation possible, both raise."""
    f = FunctionModel(parse(expr), domain=(interval[0] + 0.01, math.inf))
    oracle, frozen = ORACLES[mode]
    records, want = frozen(f, 2, interval, 400, seed)
    assert len(records) == violation and want is not None
    rec = oracle(f, 2, interval, trials=400, seed=seed)
    assert _record_bytes((rec.passed, rec.configs, rec.worst_value, rec.witness)) == _record_bytes(want)
    with pytest.raises(DomainError):
        frozen(f, 2, interval, error + 1, seed, tol=1e300)
    records, _ = frozen(f, 2, interval, error, seed, tol=1e300)
    assert len(records) == error
    with pytest.raises(DomainError):
        oracle(f, 2, interval, trials=400, seed=seed, tol=1e300)


def test_n_of_rows_of_a_batch_match_n_of():
    """n_coeffs's rows are n_of(q).real_coeffs(), zero-padded, bit for bit:
    q = ONE, real and complex q of mixed degrees in one batch."""
    rng = np.random.default_rng(7)
    qs = [ONE, Poly.of(0.3, -1.2, 0.5), Poly.of(0.2 + 0.7j, -0.4 + 0.1j, 1.0)]
    for _ in range(60):
        deg = int(rng.integers(0, 4))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1) * rng.integers(0, 2)
        qs.append(Poly.of(*coeffs / np.abs(coeffs).max()))
    rows = n_coeffs(qs)
    assert rows.shape == (len(qs), 2 * max(len(q.coeffs) for q in qs) - 1)
    for q, row in zip(qs, rows):
        want = n_of(q).real_coeffs()
        assert _bits(row) == _bits(want + (0.0,) * (len(row) - len(want)))


PRODUCT_FUNCTIONS = {
    "x*log(x)": (FunctionModel(parse("x*log(x)"), domain=(0.0, math.inf)), (0.1, 10.0)),
    "-1/x": (FunctionModel(parse("-1/x"), domain=(0.0, math.inf)), (0.5, 4.0)),
    "x^2": (FunctionModel(parse("x^2")), (0.1, 10.0)),
    "composite": (FUNCTIONS["composite"], (0.5, 4.0)),
}


@pytest.mark.parametrize("name", PRODUCT_FUNCTIONS)
def test_confluent_dd_rows_match_the_frozen_product_rows(name):
    """_dd_rows over order + 1 copies of t, the product-derivative rows, give
    the jet product's values bit for bit: 200 rows of t and the sweep's q
    cadence at n = 2, 3, 4, both orders.  Their double threshold is tol,
    never looser than the jet product's largest-term threshold, which it
    replaces where that exceeds tol (the running bound then covers the
    roundoff).  The mpmath table over the same multiset gives the extended
    jet product's value and threshold on the first 5 rows of each."""
    f, (lo, hi) = PRODUCT_FUNCTIONS[name]
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        t = rng.uniform(lo, hi, 200)
        qs = [_sample_q(rng, n - 1, (float(x), lo, hi), hi - lo, i, bool(i % 2)) for i, x in enumerate(t)]
        weights = n_coeffs(qs)
        for order in (2 * n - 1, 2 * n):
            values, thresholds = _frozen_product_rows(f, t, weights, order, 1e-9)
            got, _ = _dd_rows(f, np.repeat(t[:, None], order + 1, axis=1), weights, 1e-9)
            assert _bits([row[0] for row in got]) == _bits(values)
            assert all(row[1] == 1e-9 <= th for row, th in zip(got, thresholds))
            for x, q in zip(t[:5].tolist(), qs):
                value, scale = _frozen_product_value(f, n_of(q), x, order)
                ms = NodeMultiset.from_pairs([(x, order + 1)])
                got_value, got_scale = divided_difference_scaled(f, ms, "extended", n_of(q))
                assert _bits([got_value]) == _bits([float(value)])
                assert dd_threshold(got_scale, "extended", 1e-9) == float(dd_threshold(scale, "extended", 1e-9))
