"""Run-to-run spread of the end-to-end metrics, raw beside compensated.

    python3 perfbench/spread.py --workload figs_sim --seeds 1-10 --seconds 20

Runs ``run.py`` once per seed (one run at a time) and prints, for every
end-to-end metric, the median over runs and the spread the acceptance
rule uses: the distance between the first and third quartiles of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of
their median.  The raw columns recompute op latency and throughput
from the same runs without drift compensation, so the two can be
compared on identical samples.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    rows = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        side = os.path.join(
            ROOT, ".perfbench-out",
            f"run-{args.workload}-seed{seed}-trace0.json",
        )
        with open(side) as fh:
            data = json.load(fh)
        row = {k: v["value"] for k, v in result["metrics"].items()}
        wall = data["wall"]
        row["raw_op_p50_ms"] = statistics.median(wall) * 1e3
        row["raw_op_p90_ms"] = statistics.quantiles(wall, n=10)[8] * 1e3
        row["raw_elements_per_s"] = sum(data["elements"]) / sum(wall)
        row["raw_firings_per_s"] = sum(data["firings"]) / sum(wall)
        rows.append(row)
        print(f"seed {seed}: {result['attempted']} ops, "
              f"{result['failed']} failed, correct={result['correct']}, "
              + ", ".join(f"{k}={v:.4g}" for k, v in row.items()),
              file=sys.stderr)
    print(f"{args.workload}: {len(rows)} runs of {args.seconds:g} s")
    print(f"{'metric':<18} {'median':>12} {'spread':>8} "
          f"{'raw median':>12} {'raw spread':>10}")
    for name in rows[0]:
        if name.startswith("raw_"):
            continue
        values = [r[name] for r in rows]
        line = f"{name:<18} {statistics.median(values):>12.4g} " \
               f"{spread(values):>8.3f}"
        raw = "raw_" + name
        if raw in rows[0]:
            rv = [r[raw] for r in rows]
            line += f" {statistics.median(rv):>12.4g} {spread(rv):>10.3f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
