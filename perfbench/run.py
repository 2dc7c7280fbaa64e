"""Benchmark of the patternblocks command-line interface.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Run from the root of a checkout; the children import the package from its
src/ directory. With --trace 0 each cycle spawns two fresh
`python -m patternblocks` children, one after the other: the set-up run
(`sample --n 0`) and the workload run. Each child's CPU time is rescaled
to a fixed reference speed of the CPU by the metronome that runs beside
it (metronome.py), and every output is checked by the benchmark's own
oracle after all children have ended. Cycles repeat for about T seconds.
run_s, setup_s and peak_rss_mb are medians over the cycles, and
samples_per_s is n over the median of run minus set-up cost per cycle. With --trace 1 the in-process
traced run of traced.py gives the per-layer split instead. The last line
of standard output is one JSON object: {correct, attempted, failed,
metrics}.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from children import Checked, ChildRun, run_child
from metronome import Metronome
from workloads import WORKLOADS, child_env, source_dir

MIN_CYCLES = 3
WORK_DIR = ".bench_work"


def timed_run(workload, seed: int, seconds: float, src: Path, work: Path) -> dict:
    """Set-up and workload children in turn for about `seconds`, then check every output."""
    env = child_env(src)
    seeds = random.Random(seed)
    runs = []  # (child seed, n, output path, ChildRun)
    setups, costs, walls, rss = [], [], [], []

    with Metronome(work) as metronome:

        def spawn(child_seed: int, n: int) -> tuple[ChildRun, float]:
            out = work / f"out-{len(runs)}"
            before = metronome.reading()
            run = run_child(workload.argv(child_seed, n, out), env, out, work / f"err-{len(runs)}")
            runs.append((child_seed, n, out, run))
            return run, metronome.cost_s(run.cpu_s, before)

        spawn(seeds.randrange(2**32), 0)  # warm-up: bytecode caches, page cache
        start = time.perf_counter()
        # skip a cycle that would most likely end after `seconds`
        while len(costs) < MIN_CYCLES or (
            (time.perf_counter() - start) * (len(costs) + 1) / len(costs) <= seconds
        ):
            child_seed = seeds.randrange(2**32)
            setups.append(spawn(child_seed, 0)[1])
            run, cost = spawn(child_seed, workload.n)
            costs.append(cost)
            walls.append(run.wall_s)
            rss.append(run.peak_rss_mb)

    checked = Checked()
    for child_seed, n, out, run in runs:
        problems = (
            [f"exit code {run.exit_code}: {run.stderr_text[-300:]}"]
            if run.exit_code
            else workload.problems(n, out, run.stderr_text)
        )
        checked.record(f"{workload.name} seed {child_seed} n {n}", problems)
        out.unlink(missing_ok=True)

    # the two children of a cycle ran seconds apart, in the same spell of
    # host load, so their difference is steadier than that of two medians
    sampling_s = statistics.median(c - s for c, s in zip(costs, setups))
    metrics = {
        "run_s": (statistics.median(costs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (workload.n / sampling_s, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    extra = {
        "fail_share": (checked.failed / checked.attempted, "1"),
        "cycles": (len(costs), "count"),
        # wall time beside the metronome, which takes about a tenth of the CPU
        "wall_s": (statistics.median(walls), "s"),
    }
    return {"checked": checked, "metrics": metrics, "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the child and the metronome are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    src = source_dir(root)
    work = root / WORK_DIR
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            import traced

            result = traced.traced_run(workload, args.seed, args.seconds, src, work)
        else:
            result = timed_run(workload, args.seed, args.seconds, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = result["checked"]
    for name, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"{workload.name} {name} {value} {unit}")
    doc = {
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
