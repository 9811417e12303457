"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload catalog-mix --seeds 1-10 --seconds 35

For every end-to-end metric it prints the median of the runs and the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median; BENCHMARK.json bounds each end-to-end metric's
spread.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=float, default=35)
    args = p.parse_args(argv)

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {failed}/{attempted} ops failed")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = f"  bound {bound}, spread/bound {spread / bound:.2f}" if bound else ""
        print(f"  {name:36s} median {med:12.6g}  spread {spread:7.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
