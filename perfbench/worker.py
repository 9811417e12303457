"""One workload run in a fresh process: set-up, ops, gate, metrics.

Started by run.py with BLAS threads pinned; writes its result as JSON to
--out and prints nothing on standard output.  With --setup-only it stops
after set-up (cold ``import matmono`` plus building the inputs) and
reports only that time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

OP_TIMEOUT_S = 30.0  # an op that runs longer is stopped and counted as failed
HARD_LIMIT_S = 120.0  # no op starts after this much measuring, so a run ends within 150 s


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (q in (0, 1)) of a non-empty
    list: the mean of all order statistics, weighted by the
    Beta((n+1)q, (n+1)(1-q)) distribution.  Where one order statistic
    would sit on a gap between the costs of two ops, or carry one op's
    jitter alone, the weights spread the estimate over its neighbours; on
    a short list they use every op."""
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def run_op(op, timeout: float):
    """(seconds, outcome or None, problems) of one op under a timeout."""
    outcome = None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            outcome = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        problems = list(outcome.problems)
    except OpTimeout:
        problems = [f"timeout after {timeout:.0f} s"]
    except Exception as exc:  # any exception is a failed op, recorded with its type
        problems = [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, outcome, problems


class Digests:
    """Report digests per op key: within a run and across same-seed runs of
    the same source, equal keys must give byte-identical report JSON."""

    def __init__(self, path: str):
        self.path = path
        self.seen: dict[str, str] = {}
        self.earlier: dict[str, str] = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.earlier = json.load(fh)

    def check(self, key: str, text: str) -> list[str]:
        digest = hashlib.sha256(text.encode()).hexdigest()
        problems = []
        for where, table in (("this run", self.seen), ("an earlier run", self.earlier)):
            if table.get(key, digest) != digest:
                problems.append(f"report differs from {where} with the same seed")
        self.seen.setdefault(key, digest)
        return problems

    def save(self):
        merged = {**self.earlier, **self.seen}
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(merged, fh, sort_keys=True)
        os.replace(tmp, self.path)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "matmono")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    start = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import matmono  # noqa: F401  (the cold import is part of set-up)
    import mpmath
    import numpy as np
    import workloads

    rounds = workloads.build(args.workload, args.seed, args.seconds)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.setup_only:
        _write(args.out, result)
        return 0

    out_dir = os.path.dirname(os.path.abspath(args.out))
    digests = Digests(os.path.join(
        out_dir, f"digests-{args.workload}-{args.seed}-{source_digest()[:16]}.json"))
    signal.signal(signal.SIGALRM, _alarm)
    tracer = None
    if args.trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        # the traced run measures half the op list, each round once without
        # and once with the tracer, so both see the same inputs
        rounds = rounds[: max(1, math.ceil(len(rounds) / 2))]

    ops_log = []
    round_walls = {0: [], 1: []}
    measure_start = time.perf_counter()

    def run_round(r: int, ops: list, traced: int) -> bool:
        """Run one round; False when the hard limit cut it short."""
        start = time.perf_counter()
        for op in ops:
            if time.perf_counter() - measure_start > HARD_LIMIT_S:
                return False
            if traced:
                tracer.op_id = len(ops_log)
                del tracer.stack[1:]  # an op stopped by its timeout may leave frames
                tracer.sweep = None
            seconds, outcome, problems = run_op(op, OP_TIMEOUT_S)
            if outcome is not None:
                problems += digests.check(op.key, outcome.text)
                if traced:
                    tracer.observe_models(outcome.models)
            ops_log.append({"round": r, "traced": traced, "key": op.key,
                            "seconds": seconds, "problems": problems,
                            "known": workloads.is_known_defect(op.key, problems)})
        round_walls[traced].append(time.perf_counter() - start)
        return True

    completed = True
    for r, ops in enumerate(rounds):
        completed = run_round(r, ops, 0)
        if completed and tracer is not None:
            tracer.install()
            try:
                completed = run_round(r, ops, 1)
            finally:
                tracer.uninstall()
        if not completed:
            break
    digests.save()

    measured = [o for o in ops_log if not o["traced"]]
    failed = [o for o in measured if o["problems"]]
    # traced ops too: a wrapper that changes a result must not pass
    unknown = [o for o in ops_log if o["problems"] and not o["known"]]
    lat = [o["seconds"] for o in measured]
    result.update({
        "attempted": len(measured),
        "failed": len(failed),
        "unknown_failed": len(unknown),
        "rounds": len(round_walls[0]),
        "stopped_early": not completed,
        "wall_s": sum(round_walls[0]),
        "op_p50_s": percentile(lat, 0.5) if lat else 0.0,
        "op_p90_s": percentile(lat, 0.9) if lat else 0.0,
        "ops_ok_frac": 1.0 - len(failed) / len(measured) if measured else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"numpy": np.__version__, "mpmath": mpmath.__version__,
                     "mpmath_backend": mpmath.libmp.BACKEND},
        "failures": [{k: o[k] for k in ("round", "traced", "key", "known", "problems")}
                     for o in ops_log if o["problems"]],
        "ops": ops_log,
    })
    if tracer is not None:
        # rounds that ran both ways, on the same inputs
        base = sum(round_walls[0][:len(round_walls[1])])
        metrics = tracer.metrics()
        metrics["trace.overhead"] = (sum(round_walls[1]) / base if base else 0.0, "1")
        result["per_layer"] = metrics
        result["unreconciled"] = tracer.unreconciled
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}"))
    _write(args.out, result)
    return 0


def _write(path: str, result: dict):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
