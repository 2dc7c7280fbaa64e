"""
Sampling a bimodal 2-d density
==============================

The target is a two-bump Gaussian mixture truncated to [-4, 4]^2. Five
blocks cover its graph: a thin slab over the whole square, a superlevel
block whose footprint {f >= b0} is sampled by restriction inside a
bounding box, and three cylinders over disks wrapping the two peaks.
"""

import numpy as np

from patternblocks import (
    PatternBlockSampler,
    UniformSource,
    exact_adoption_rate,
    validate_blockset,
)
from patternblocks.distributions import (
    TARGETS,
    gauss_mixture_blockset,
    gauss_mixture_density,
)
from patternblocks.numeric import chi_square_gof

density = gauss_mixture_density()
blockset = gauss_mixture_blockset()

print(f"mixture mass in closed form: K = {density.K:.9f}")
print("block table")
for block in blockset.blocks:
    weight = block.measure / blockset.total_measure
    print(f"  {block.label:12s} measure {block.measure:.6f} weight {weight:.4f}")
print(f"total measure {blockset.total_measure:.6f}")
print(f"exact adoption rate {exact_adoption_rate(density, blockset):.6f}")

# statistical validation of the cover/overlap contract
report = validate_blockset(blockset, density, n_probe=50_000)
for name in ("positivity", "cover", "overlap"):
    check = getattr(report, name)
    print(f"  {name:10s} {check.status}: {check.detail}")

# draw vectors and compare against the target's closed-form bin probabilities
sampler = PatternBlockSampler(density, blockset, UniformSource(3))
points = sampler.sample_many(100_000)
print(f"\n100000 vectors took {sampler.attempts} attempts "
      f"(empirical rate {sampler.empirical_rate:.4f})")

edges, probs = TARGETS["gauss-mix-2d"].bins()
gof = chi_square_gof(np.asarray(points), edges, probs)
print(f"chi-square fit: statistic {gof.statistic:.1f} on {gof.dof} dof, "
      f"p = {gof.p_value:.4f} ({gof.bins_merged} sparse bins pooled)")

# coarse look at the two modes through the x1 marginal
x1_edges = edges[0]
marginal, _ = np.histogram(np.asarray(points)[:, 0], bins=x1_edges, density=True)
scale = marginal.max()
print("\nx1 marginal")
for lo, d in zip(x1_edges[:-1], marginal):
    print(f"  [{lo:+.1f},{lo + 0.5:+.1f})  {'#' * int(round(30 * d / scale))}")
