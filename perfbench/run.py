"""Certification benchmark for matmono: one command, three workloads.

    python3 perfbench/run.py --workload catalog-mix --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The launcher pins BLAS threads to 1,
measures set-up in separate cold processes, runs the workload in one
worker process (perfbench/worker.py) and prints the environment stamp,
a metric table and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a traced run.  Details of every op and the spans of a traced run go
to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("catalog-mix", "composite-n3", "finite-sets")
SETUP_PROBES = 6
DEADLINE_S = 175.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
              ("ops_ok_frac", "1"), ("peak_rss_mb", "MB"))

PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def commit_hash() -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(env: dict, versions: dict) -> dict:
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "commit": commit_hash(),
        "platform": platform.platform(),
    }


def worker(args, env, out: str, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    if os.path.exists(out):
        os.remove(out)
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "matmono", "__init__.py")):
        return fail("no matmono sources under src/ (run from the root of a checkout)")

    deadline = time.monotonic() + DEADLINE_S
    # fixed string hashing: same-seed runs iterate sets and dicts alike
    env = {**os.environ, **PINNED, "PYTHONHASHSEED": "0"}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        def probe() -> float:
            return worker(args, env, stem + "-setup.json", deadline, True)["setup_s"]

        # the first probe warms the bytecode cache and is not counted; the
        # others run half before and half after the workload, so that their
        # median spans the run, not one moment of the host's speed
        probe()
        setups = [probe() for _ in range(SETUP_PROBES // 2)]
        result = worker(args, env, stem + ".json", deadline, False)
        setups += [result["setup_s"]] + [probe() for _ in range(SETUP_PROBES // 2)]
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        return fail(f"run failed: {exc}", 1)
    result["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    stamp = result["env"] = environment(env, result.pop("versions"))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["per_layer"].items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END}
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"{args.workload} seed={args.seed}: {result['attempted']} ops in "
          f"{result['rounds']} round(s), {result['failed']} failed")
    for f in result["failures"]:
        kind = "known defect" if f["known"] else "NEW FAILURE"
        where = f"round {f['round']}" + (", traced" if f["traced"] else "")
        print(f"  failed, {kind}: {f['key']} ({where}): {'; '.join(f['problems'])}")
    if result.get("unreconciled"):
        print("  unreconciled sweeps: " + "; ".join(result["unreconciled"][:5]))
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": (not result["stopped_early"] and result["attempted"] > 0
                    and result["unknown_failed"] == 0),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
