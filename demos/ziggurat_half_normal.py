"""
The ziggurat as a block cover
=============================

Stacking equal-area rectangle layers over a strictly decreasing density,
plus one composite base block holding the tail, is the classical ziggurat
sampler. Block selection then degenerates to a uniform layer index, and
the acceptance test only fires on the sliver of each rectangle above the
graph. The closing Kolmogorov-Smirnov test is scipy's (scipy.stats.kstest).
"""

import math

import numpy as np
from scipy.stats import kstest

from patternblocks import PatternBlockSampler, UniformSource, ziggurat_blockset
from patternblocks.distributions import (
    half_normal_cdf,
    half_normal_density,
    half_normal_pdf,
    half_normal_ziggurat,
)

layout = half_normal_ziggurat(128)
r = layout.x[-1]
v = layout.layer_area
print(f"128 layers: tail start r = {r:.6f}, common area v = {v:.8f}")
print(f"base block rectangle fraction = {r * half_normal_pdf(r) / v:.4f}")
print(f"adoption rate = 1 / (128 v) = {1.0 / (128 * v):.6f}")

print("\nlayer table excerpt")
print("    i        x_i       f(x_i)")
for i in (0, 1, 2, 64, 126, 127):
    print(f"  {i:3d}  {layout.x[i]:9.6f}  {layout.f_at_x[i]:.6f}")

density = half_normal_density()
blockset = ziggurat_blockset(layout, half_normal_pdf)
sampler = PatternBlockSampler(density, blockset, UniformSource(9))
draws = np.array([p[0] for p in sampler.sample_many(200_000)])

print(f"\n200000 draws, empirical rate {sampler.empirical_rate:.5f}")
print(f"sample mean {draws.mean():.5f} (target {math.sqrt(2 / math.pi):.5f})")
print(f"sample var  {draws.var():.5f} (target {1 - 2 / math.pi:.5f})")
ks = kstest(draws, np.vectorize(half_normal_cdf), method="asymp")
print(f"KS statistic {ks.statistic:.5f}, p = {ks.pvalue:.4f}")
