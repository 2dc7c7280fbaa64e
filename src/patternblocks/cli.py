"""Command-line front end.

Subcommands: sample (CSV/JSON samples plus a JSON summary on stderr),
validate (block-set checks plus a chi-square fit on the target's fixed
bins, JSON report), bench (throughput and adoption rates), zigg-table
(equal-area layer table). Only zigg-table takes --layers. Each command
checks its arguments and opens --out before it builds anything. sample
and zigg-table write every float exactly as Python's repr, through
output.write_rows, which formats a chunk of rows at a time in numpy.
Exit codes: 0 success, 1 failed check, 2 usage error or output that cannot
be opened or written, 3 numerical failure or a cover that cannot serve its
density, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import distributions, numeric
from .blocks1d import ZigguratError, ziggurat_blockset
from .core import (
    CoverError,
    DensityValueError,
    PatternBlockSampler,
    RejectionCapError,
    exact_adoption_rate,
    validate_blockset,
)
from .output import write_rows
from .rng import UniformSource

SAMPLE_CHUNK = 16384  # rows `sample` draws and writes at a time


def _sampler(args, density):
    """The cover of args.dist and a sampler on the stream of args.seed."""
    blockset = distributions.TARGETS[args.dist].cover()
    return blockset, PatternBlockSampler(density, blockset, UniformSource(args.seed))


def _chunks(sampler, n):
    """n points from sampler as (m, dim) arrays of at most SAMPLE_CHUNK
    rows, so a caller that keeps no chunk runs in memory bounded for any n."""
    for start in range(0, n, SAMPLE_CHUNK):
        yield sampler.sample_array(min(SAMPLE_CHUNK, n - start))


class UsageError(Exception):
    """A bad command line: main prints the message and exits 2."""


@contextlib.contextmanager
def _open_out(path):
    """The --out stream: stdout for None or "-", else the file, closed on exit."""
    if path in (None, "-"):
        yield sys.stdout
        sys.stdout.flush()  # a failed write raises here, inside main, not at exit
        return
    try:
        out = open(path, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror}") from None
    with out:
        yield out


def cmd_sample(args) -> int:
    with _open_out(args.out) as out:
        density = distributions.TARGETS[args.dist].density()
        blockset, sampler = _sampler(args, density)
        names = ["x"] if density.dim == 1 else ["x1", "x2"]
        write_rows(out, (points.T for points in _chunks(sampler, args.n)), names, args.format)
    summary = {
        "attempts": sampler.attempts,
        "accepted": sampler.accepted,
        "empirical_rate": sampler.empirical_rate,
        "exact_rate": exact_adoption_rate(density, blockset),
        "seed": args.seed,
    }
    print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    if not 0.0 < args.significance < 1.0:
        raise UsageError("--significance must lie strictly between 0 and 1")
    target = distributions.TARGETS[args.dist]
    density = target.density()
    edges, probs = target.bins()
    expected = args.n * np.ravel(probs)
    try:
        numeric.pool_small_bins(expected, expected)
    except numeric.TooFewBinsError as exc:
        raise UsageError(
            f"--n {args.n} is too small for the {probs.size} bins of {args.dist} ({exc})"
        ) from None
    with _open_out(args.out) as out:
        blockset, sampler = _sampler(args, density)
        counts = sum(numeric.bin_counts(points, edges) for points in _chunks(sampler, args.n))
        report = validate_blockset(blockset, density, probe_bounds=target.probe_bounds)
        gof = numeric.chi_square_counts(counts, probs)
        passed = report.all_passed() and gof.p_value > args.significance
        doc = {
            "validation": asdict(report),
            "gof": asdict(gof),
            "rates": {
                "exact": exact_adoption_rate(density, blockset),
                "empirical": sampler.empirical_rate,
                "attempts": sampler.attempts,
                "accepted": sampler.accepted,
            },
            "significance": args.significance,
            "passed": passed,
        }
        json.dump(doc, out, indent=2)
        out.write("\n")
    return 0 if passed else 1


def cmd_bench(args) -> int:
    density = distributions.TARGETS[args.dist].density()
    blockset, sampler = _sampler(args, density)
    start = time.perf_counter()
    for _ in _chunks(sampler, args.n):
        pass
    elapsed = time.perf_counter() - start
    doc = {
        "dist": args.dist,
        "n": args.n,
        "elapsed_s": elapsed,
        "samples_per_second": args.n / elapsed,
        "attempts_per_sample": sampler.attempts / sampler.accepted,
        "exact_rate": exact_adoption_rate(density, blockset),
        "empirical_rate": sampler.empirical_rate,
    }
    print(json.dumps(doc), flush=True)
    return 0


def cmd_zigg_table(args) -> int:
    if args.layers < 2:
        raise UsageError("--layers must be at least 2")
    with _open_out(args.out) as out:
        layout = distributions.half_normal_ziggurat(args.layers)
        # the cover's blocks: layers 1 .. n-1, then the base, which is row 0
        blocks = ziggurat_blockset(layout, distributions.half_normal_pdf).blocks
        areas = [blocks[-1].measure] + [b.measure for b in blocks[:-1]]
        columns = [np.arange(layout.n_layers), layout.x, layout.f_at_x, areas]
        write_rows(out, [columns], ["i", "x", "f", "area"], args.format)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternblocks",
        description="Block-composed rejection sampling: sample, validate, bench, zigg-table.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dist", choices=distributions.TARGETS, required=True)
        p.add_argument("--n", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=1)

    p_sample = sub.add_parser("sample", help="write samples as CSV or JSON")
    common(p_sample)
    p_sample.add_argument("--out", default=None, help="output path (default stdout)")
    p_sample.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sample.set_defaults(func=cmd_sample)

    p_val = sub.add_parser("validate", help="block-set checks plus chi-square fit")
    common(p_val)
    p_val.add_argument("--significance", type=float, default=0.001)
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="throughput and adoption rates")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_table = sub.add_parser("zigg-table", help="equal-area layer table")
    p_table.add_argument(
        "--layers", type=int, default=128, help="layer count of the table; at least 2"
    )
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_zigg_table)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "n", 0) < 0:
            raise UsageError("--n must be nonnegative")
        if args.command in ("validate", "bench") and args.n < 1:
            raise UsageError(f"{args.command} needs --n of at least 1")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CoverError, DensityValueError, RejectionCapError, ZigguratError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout: exit as SIGPIPE would
        _stdout_to_devnull()
        return 141
    except OSError as exc:
        # a failed write, such as to a full disk, is not a failed check
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            _stdout_to_devnull()
        return 2


def _stdout_to_devnull():
    """Point fd 1 at /dev/null, so what a failed stdout still buffers, which
    shutdown flushes, raises no second error."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
