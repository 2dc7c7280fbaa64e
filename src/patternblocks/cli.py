"""Command-line front end.

Subcommands: sample (CSV/JSON samples plus a JSON summary on stderr),
validate (block-set checks plus goodness of fit, JSON report), bench
(throughput and adoption rates), zigg-table (equal-area layer table).
Exit codes: 0 success, 1 failed check, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import threading
import time
from dataclasses import asdict

import numpy as np

from . import distributions, numeric
from .blocks1d import ZigguratError, ziggurat_blockset
from .core import PatternBlockSampler, RejectionCapError, exact_adoption_rate, validate_blockset
from .rng import UniformSource, derive_stream_seed

DISTS = ("arcsine-mod", "gauss-mix-2d", "half-normal-zigg")
VALIDATE_COVER_PROBES = 20_000
ZIGG_PROBE_HI = 8.0  # density mass beyond this is ~1e-15, below any tolerance


def _build(dist: str, layers: int):
    """(density, blockset, probe_bounds, binning) for a named distribution.

    binning(bins) returns (bin_edges, expected_probs) with probabilities
    computed by quadrature of the normalized density.
    """
    if dist == "arcsine-mod":
        density = distributions.arcsine_modulated_density()
        blockset = distributions.arcsine_modulated_blockset()

        def binning(bins):
            edges = np.linspace(0.0, 1.0, bins + 1)
            probs = numeric.bin_probabilities_1d(
                distributions.arcsine_modulated_mass, edges
            )
            return edges, probs

        return density, blockset, None, binning

    if dist == "gauss-mix-2d":
        density = distributions.gauss_mixture_density()
        blockset = distributions.gauss_mixture_blockset()

        def binning(bins):
            edges = np.linspace(-4.0, 4.0, bins + 1)
            probs = numeric.bin_probabilities_2d(
                distributions.gauss_mixture_xy, distributions.MIX_DOMAIN, bins
            )
            return (edges, edges), probs

        return density, blockset, None, binning

    if dist == "half-normal-zigg":
        layout = distributions.half_normal_ziggurat(layers)
        density = distributions.half_normal_density()
        blockset = ziggurat_blockset(layout, distributions.half_normal_pdf)

        def binning(bins):
            edges = np.linspace(0.0, ZIGG_PROBE_HI, bins + 1)
            edges[-1] = np.inf
            cdf_vals = [distributions.half_normal_cdf(e) for e in edges[:-1]] + [1.0]
            probs = np.diff(cdf_vals)
            return edges, probs / probs.sum()

        return density, blockset, ((0.0, ZIGG_PROBE_HI),), binning

    raise ValueError(f"unknown distribution {dist!r}")


def _default_bins(density) -> int:
    return 64 if density.dim == 1 else 16


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _write_rows(out, header, rows, fmt):
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(repr(float(v)) for v in row) + "\n")
    else:
        json.dump([dict(zip(header, map(float, row))) for row in rows], out)
        out.write("\n")


def cmd_sample(args) -> int:
    density, blockset, _, _ = _build(args.dist, args.layers)
    sampler = PatternBlockSampler(density, blockset, UniformSource(args.seed))
    try:
        points = sampler.sample_many(args.n)
    except RejectionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    header = ["x"] if density.dim == 1 else ["x1", "x2"]
    out, close = _open_out(args.out)
    try:
        _write_rows(out, header, points, args.format)
    finally:
        if close:
            out.close()
    summary = {
        "attempts": sampler.attempts,
        "accepted": sampler.accepted,
        "empirical_rate": sampler.empirical_rate,
        "exact_rate": exact_adoption_rate(density, blockset),
        "seed": args.seed,
    }
    print(json.dumps(summary), file=sys.stderr)
    return 0


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_validate(args) -> int:
    if args.n < 1:
        return _usage_error("validate needs --n of at least 1")
    if args.bins is not None and args.bins < 2:
        return _usage_error("--bins must be at least 2")
    density, blockset, probe_bounds, binning = _build(args.dist, args.layers)
    report = validate_blockset(
        blockset, density, n_probe=VALIDATE_COVER_PROBES, probe_bounds=probe_bounds
    )
    sampler = PatternBlockSampler(density, blockset, UniformSource(args.seed))
    try:
        points = sampler.sample_many(args.n)
    except RejectionCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    bins = args.bins if args.bins is not None else _default_bins(density)
    edges, probs = binning(bins)
    samples = np.asarray(points)[:, 0] if density.dim == 1 else np.asarray(points)
    try:
        gof = numeric.chi_square_gof(samples, edges, probs)
    except numeric.TooFewBinsError as exc:
        return _usage_error(f"--n {args.n} is too small for --bins {bins} ({exc})")
    gof_ok = gof.p_value > args.significance
    passed = report.all_passed() and gof_ok
    doc = {
        "validation": {
            "positivity": asdict(report.positivity),
            "cover": asdict(report.cover),
            "overlap": asdict(report.overlap),
        },
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
    out, close = _open_out(args.out)
    try:
        json.dump(doc, out, indent=2)
        out.write("\n")
    finally:
        if close:
            out.close()
    return 0 if passed else 1


def _bench_worker(density, blockset, seed, stream, n, results):
    sampler = PatternBlockSampler(
        density, blockset, UniformSource(derive_stream_seed(seed, stream))
    )
    sampler.sample_many(n)
    results[stream] = (sampler.attempts, sampler.accepted)


def cmd_bench(args) -> int:
    density, blockset, _, _ = _build(args.dist, args.layers)
    threads = max(1, args.threads)
    share = [args.n // threads] * threads
    share[0] += args.n - sum(share)
    results = {}
    start = time.perf_counter()
    if threads == 1:
        _bench_worker(density, blockset, args.seed, 0, share[0], results)
    else:
        workers = [
            threading.Thread(
                target=_bench_worker,
                args=(density, blockset, args.seed, t, share[t], results),
            )
            for t in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
    elapsed = time.perf_counter() - start
    attempts = sum(a for a, _ in results.values())
    accepted = sum(c for _, c in results.values())
    doc = {
        "dist": args.dist,
        "n": args.n,
        "threads": threads,
        "elapsed_s": elapsed,
        "samples_per_second": args.n / elapsed if elapsed > 0 else math.inf,
        "attempts_per_sample": attempts / accepted if accepted else math.nan,
        "exact_rate": exact_adoption_rate(density, blockset),
        "empirical_rate": accepted / attempts if attempts else math.nan,
    }
    print(json.dumps(doc))
    return 0


def cmd_zigg_table(args) -> int:
    try:
        layout = distributions.half_normal_ziggurat(args.layers)
    except ZigguratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    xs = layout.x
    fs = layout.f_at_x
    rows = []
    base_area = xs[-1] * fs[-1] + layout.tail_mass_at_r
    rows.append((0, xs[0], fs[0], base_area))
    for i in range(1, layout.n_layers):
        rows.append((i, xs[i], fs[i], xs[i] * (fs[i - 1] - fs[i])))
    out, close = _open_out(args.out)
    try:
        if args.format == "csv":
            out.write("i,x,f,area\n")
            for i, x, fx, area in rows:
                out.write(f"{i},{x!r},{fx!r},{area!r}\n")
        else:
            json.dump(
                [{"i": i, "x": x, "f": fx, "area": area} for i, x, fx, area in rows],
                out,
            )
            out.write("\n")
    finally:
        if close:
            out.close()
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patternblocks",
        description="Block-composed rejection sampling: sample, validate, bench.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dist=True):
        if dist:
            p.add_argument("--dist", choices=DISTS, required=True)
            p.add_argument("--n", type=int, default=10_000)
            p.add_argument("--seed", type=int, default=1)
        p.add_argument(
            "--layers",
            type=int,
            default=128,
            help="ziggurat layer count (half-normal-zigg only); at least 2",
        )

    p_sample = sub.add_parser("sample", help="write samples as CSV or JSON")
    common(p_sample)
    p_sample.add_argument("--out", default=None, help="output path (default stdout)")
    p_sample.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sample.set_defaults(func=cmd_sample)

    p_val = sub.add_parser("validate", help="block-set checks plus chi-square fit")
    common(p_val)
    p_val.add_argument("--bins", type=int, default=None)
    p_val.add_argument("--significance", type=float, default=0.001)
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="throughput and adoption rates")
    common(p_bench)
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_table = sub.add_parser("zigg-table", help="equal-area layer table")
    common(p_table, dist=False)
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=cmd_zigg_table)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.layers < 2:
        return _usage_error("--layers must be at least 2")
    if getattr(args, "n", 0) < 0:
        return _usage_error("--n must be nonnegative")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
