"""
Sampling a density with endpoint singularities
===============================================

The target on (0, 1) is an arcsine envelope modulated by 1 + sin(8 pi x).
It blows up at both endpoints, so no rectangle cover works; instead eight
envelope strips scaled to 2x or 1x the arcsine density cover the graph,
each sampled exactly through the closed-form inverse CDF.
"""

import numpy as np

from patternblocks import PatternBlockSampler, UniformSource, exact_adoption_rate
from patternblocks.distributions import (
    arcsine_modulated_blockset,
    arcsine_modulated_density,
    arcsine_modulated_mass,
)

density = arcsine_modulated_density()
blockset = arcsine_modulated_blockset()

# the strips alternate scale 2 (where the modulation can reach 2) and
# scale 1 (where the sine term is nonpositive)
print("block table")
for block, c in zip(blockset.blocks, blockset.cumulative):
    print(f"  {block.label:8s} measure {block.measure:.6f} cumulative {c:.6f}")
print(f"total measure {blockset.total_measure!r}")
print(f"exact adoption rate {exact_adoption_rate(density, blockset)!r}")

# draw the same sample count the efficiency figures are quoted at
sampler = PatternBlockSampler(density, blockset, UniformSource(7))
points = sampler.sample_many(10_000)
print(f"\n10000 samples took {sampler.attempts} attempts "
      f"(empirical rate {sampler.empirical_rate:.4f})")

# density-scale histogram against quadrature bin masses
edges = np.linspace(0.0, 1.0, 21)
density_view, _ = np.histogram([p[0] for p in points], bins=edges, density=True)
widths = np.diff(edges)
expected = np.array(
    [arcsine_modulated_mass(a, b) for a, b in zip(edges[:-1], edges[1:])]
) / widths
print("\n bin        target   empirical")
for k, (lo, d, e) in enumerate(zip(edges[:-1], density_view, expected)):
    bar = "#" * int(round(8 * d / expected.max()))
    print(f"  [{lo:.2f},{lo + widths[k]:.2f})  {e:8.4f}  {d:8.4f}  {bar}")
