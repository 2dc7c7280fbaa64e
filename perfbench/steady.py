"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/steady.py --workload NAME --seeds 1-10 --seconds T

Run from the root of a checkout. Runs perfbench/run.py once per seed, one
run at a time, and prints for every metric its median, first and third
quartile (statistics.quantiles, n=4) and the quartile distance as a share
of the median, then one JSON line with the same figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,7,11'")
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        doc = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        if doc is None or not doc["correct"]:
            failed += 1
            print(f"seed {seed}: run failed\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items()), flush=True)

    summary = {"workload": args.workload, "seconds": args.seconds, "failed_runs": failed}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(vals)}
        print(f"{name:40s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    print(json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
