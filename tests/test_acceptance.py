"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity (run pytest with -s or -rA to see
the lines)."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from scipy.stats import kstest

from patternblocks import distributions, numeric
from patternblocks.cli import main
from patternblocks.core import PatternBlockSampler, exact_adoption_rate
from patternblocks.distributions import (
    B0,
    B1,
    B2,
    B3,
    arcsine_cdf,
    arcsine_modulated_mass,
    arcsine_strip_scale,
    gauss_mixture_xy,
)
from patternblocks.rng import UniformSource

SEEDS = tuple(range(1, 11))


def _report(num, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_arcsine_exact_rate(arcsine_density, arcsine_blocks):
    total = math.fsum(
        arcsine_strip_scale(i) * (arcsine_cdf(i / 8) - arcsine_cdf((i - 1) / 8))
        for i in range(1, 9)
    )
    rate = exact_adoption_rate(arcsine_density, arcsine_blocks)
    ok = abs(total - 1.5) < 1e-12 and abs(rate - 2.0 / 3.0) < 1e-12
    _report(1, ok, f"strip measures sum {total!r}, adoption rate {rate!r}")


def test_criterion_02_arcsine_attempt_ratio(arcsine_density, arcsine_blocks):
    sampler = PatternBlockSampler(arcsine_density, arcsine_blocks, UniformSource(11))
    sampler.sample_many(10_000)
    ratio = sampler.attempts / sampler.accepted
    ok = 1.46 <= ratio <= 1.55
    _report(2, ok, f"attempts/accepted = {ratio:.4f} (band [1.46, 1.55])")


def test_criterion_03_arcsine_distributional_fit(arcsine_density, arcsine_blocks):
    edges = np.linspace(0.0, 1.0, 65)
    probs = numeric.bin_probabilities_1d(arcsine_modulated_mass, edges)
    passes = 0
    p_values = []
    for seed in SEEDS:
        sampler = PatternBlockSampler(
            arcsine_density, arcsine_blocks, UniformSource(seed)
        )
        xs = np.array([p[0] for p in sampler.sample_many(100_000)])
        p_value = numeric.chi_square_gof(xs, edges, probs).p_value
        p_values.append(p_value)
        passes += p_value > 0.001
    ok = passes >= 9
    _report(3, ok, f"{passes}/10 seeds pass at 0.001; min p = {min(p_values):.4f}")


def test_criterion_04_mixture_exact_rate(mixture_density, mixture_blocks):
    rate = exact_adoption_rate(mixture_density, mixture_blocks)
    ok = 0.3634 <= rate <= 0.3654
    _report(4, ok, f"adoption rate {rate:.6f} (band [0.3634, 0.3654])")


def test_criterion_05_mixture_attempt_ratio(mixture_density, mixture_blocks):
    sampler = PatternBlockSampler(mixture_density, mixture_blocks, UniformSource(11))
    sampler.sample_many(100_000)
    ratio = sampler.attempts / sampler.accepted
    ok = 2.70 <= ratio <= 2.81
    _report(5, ok, f"attempts/accepted = {ratio:.4f} (band [2.70, 2.81])")


def test_criterion_06_mixture_distributional_fit(mixture_density, mixture_blocks):
    edges, probs = distributions.TARGETS["gauss-mix-2d"].bins()
    passes = 0
    p_values = []
    for seed in SEEDS:
        sampler = PatternBlockSampler(
            mixture_density, mixture_blocks, UniformSource(seed)
        )
        pts = np.asarray(sampler.sample_many(100_000))
        p_value = numeric.chi_square_gof(pts, edges, probs).p_value
        p_values.append(p_value)
        passes += p_value > 0.001
    ok = passes >= 9
    _report(6, ok, f"{passes}/10 seeds pass at 0.001; min p = {min(p_values):.4f}")


def test_criterion_07_mixture_cover_grid():
    n = 1000
    xs = -4.0 + 8.0 * (np.arange(n) + 0.5) / n
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    f = gauss_mixture_xy(x1, x2)
    in_d3 = x1 * x1 + x2 * x2 <= 1.25 * 1.25
    in_d4 = (x1 - 2.0) ** 2 + (x2 - 2.0) ** 2 <= 1.0
    in_d5 = x1 * x1 + x2 * x2 <= 1.0
    coverage = np.full_like(f, B0)
    coverage = np.maximum(coverage, np.where(f >= B0, B1, 0.0))
    coverage = np.maximum(coverage, np.where(in_d3 | in_d4, B2, 0.0))
    coverage = np.maximum(coverage, np.where(in_d5, B3, 0.0))
    # the bands stack contiguously: each footprint nests in the one below
    assert np.all(f[in_d3 | in_d4] >= B0)
    assert np.all(in_d5 <= in_d3)
    gaps = f - coverage
    violations = int((gaps > 1e-12).sum())
    ok = violations == 0
    _report(
        7, ok, f"{violations} uncovered grid points on {n}x{n} (worst gap {gaps.max():.3e})"
    )


def test_criterion_08_ziggurat_reduction(zigg_layout, zigg_blocks, half_normal_density):
    xs, fs, v = zigg_layout.x, zigg_layout.f_at_x, zigg_layout.layer_area
    areas = [xs[i] * (fs[i - 1] - fs[i]) for i in range(1, zigg_layout.n_layers)]
    areas.append(xs[-1] * fs[-1] + distributions.half_normal_tail_mass(xs[-1]))
    area_spread = max(abs(a - v) for a in areas)
    sampler = PatternBlockSampler(half_normal_density, zigg_blocks, UniformSource(11))
    draws = np.array([p[0] for p in sampler.sample_many(100_000)])
    ks = kstest(draws, np.vectorize(distributions.half_normal_cdf), method="asymp")
    mean_err = abs(draws.mean() - math.sqrt(2.0 / math.pi))
    var_err = abs(draws.var() - (1.0 - 2.0 / math.pi))
    ok = area_spread < 1e-10 and ks.pvalue > 0.001 and mean_err < 0.01 and var_err < 0.01
    _report(
        8,
        ok,
        f"area spread {area_spread:.2e}, KS p = {ks.pvalue:.4f}, "
        f"mean err {mean_err:.4f}, var err {var_err:.4f}",
    )


def test_criterion_09_selection_law(mixture_blocks):
    source = UniformSource(11)
    n = 1_000_000
    counts = [0] * len(mixture_blocks)
    cumulative = mixture_blocks.cumulative
    for _ in range(n):
        counts[bisect_right(cumulative, source.next_unit())] += 1
    worst_z = 0.0
    for block, observed in zip(mixture_blocks.blocks, counts):
        p = block.measure / mixture_blocks.total_measure
        z = abs(observed - n * p) / math.sqrt(n * p * (1.0 - p))
        worst_z = max(worst_z, z)
    ok = worst_z < 4.0
    _report(9, ok, f"worst selection z-score {worst_z:.2f} over {len(counts)} blocks")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        for dist, n in (("arcsine-mod", 10_000), ("gauss-mix-2d", 3_000)):
            path = tmp_path / f"{dist}-{tag}.csv"
            code = main(
                [
                    "sample", "--dist", dist, "--n", str(n), "--seed", "42",
                    "--out", str(path),
                ]
            )
            assert code == 0
    capsys.readouterr()
    ok = True
    for dist in ("arcsine-mod", "gauss-mix-2d"):
        first = (tmp_path / f"{dist}-a.csv").read_bytes()
        second = (tmp_path / f"{dist}-b.csv").read_bytes()
        ok = ok and first == second
    _report(10, ok, "sample CSV byte-identical across reruns with a fixed seed")
