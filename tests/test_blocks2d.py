import math

import numpy as np
import pytest
from scipy.stats import chi2

from patternblocks import blocks2d
from patternblocks.blocks2d import cylinder_block, slab_block, superlevel_block
from patternblocks.core import BlockSet, Density, PatternBlockSampler, RejectionCapError
from patternblocks.distributions import (
    B0,
    B1,
    B2,
    B3,
    MIX_DOMAIN,
    SUPERLEVEL_BOX,
    gauss_mixture_xy,
)
from patternblocks.rng import UniformSource

# frozen from the 4000x4000 midpoint indicator grid over the bounding box
SUPERLEVEL_AREA = 11.79266


# ---------------------------------------------------------------------------
# slabs


def test_slab_measure():
    block = slab_block(MIX_DOMAIN, 0.0, B0)
    assert abs(block.measure - 1.6) < 1e-13


def test_slab_sampler_symmetry_and_band():
    block = slab_block(MIX_DOMAIN, 0.0, B0)
    source = UniformSource(12)
    xs = []
    for _ in range(100_000):
        (x1, _), w = block.sample_uniform(source)
        assert 0.0 <= w <= B0
        xs.append(x1)
    assert abs(np.mean(xs)) < 0.03


def test_slab_rejects_degenerate():
    # bad bands: test_core.py::test_constructors_declare_height_bands
    with pytest.raises(ValueError, match="degenerate footprint"):
        slab_block(((0.0, 0.0), (0.0, 1.0)), 0.0, 1.0)


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_radius_law():
    block = cylinder_block((0.0, 0.0), 1.0, 0.0, 1.0)
    source = UniformSource(13)
    n = 100_000
    inner = 0
    for _ in range(n):
        (x1, x2), _ = block.sample_uniform(source)
        if x1 * x1 + x2 * x2 <= 0.25:
            inner += 1
    assert abs(inner / n - 0.25) < 0.005


def test_cylinder_measures_match_closed_form():
    b3 = cylinder_block((0.0, 0.0), 1.25, B1, B2)
    b5 = cylinder_block((0.0, 0.0), 1.0, B2, B3)
    assert abs(b3.measure - math.pi * (25.0 / 16.0) * (B2 - B1)) < 1e-15
    assert abs(b3.measure - 0.1948) < 0.0005
    assert abs(b5.measure - math.pi * (B3 - B2)) < 1e-15
    assert abs(b5.measure - 0.3337) < 0.0005


def test_cylinder_polar_uniformity():
    block = cylinder_block((1.0, -2.0), 2.0, 0.0, 1.0)
    source = UniformSource(14)
    n = 100_000
    radii = np.empty(n)
    angles = np.empty(n)
    for k in range(n):
        (x1, x2), _ = block.sample_uniform(source)
        radii[k] = math.hypot(x1 - 1.0, x2 + 2.0)
        angles[k] = math.atan2(x2 + 2.0, x1 - 1.0)
    # annulus mass scales with the squared radii
    r1, r2 = 0.5, 1.5
    p = (r2 * r2 - r1 * r1) / 4.0
    hits = int(((radii >= r1) & (radii <= r2)).sum())
    assert abs(hits - n * p) < 4.0 * math.sqrt(n * p * (1.0 - p))
    # angle uniform over 12 sectors
    counts, _ = np.histogram(angles, bins=12, range=(-math.pi, math.pi))
    expected = n / 12
    statistic = ((counts - expected) ** 2 / expected).sum()
    assert chi2.sf(statistic, 11) > 0.001


def test_cylinder_rejects_bad_parameters():
    # bad bands: test_core.py::test_constructors_declare_height_bands
    with pytest.raises(ValueError, match="radius must be positive"):
        cylinder_block((0.0, 0.0), 0.0, 0.0, 1.0)


def test_disjoint_disks_never_double_hit():
    b3 = cylinder_block((0.0, 0.0), 1.25, B1, B2)
    b4 = cylinder_block((2.0, 2.0), 1.0, B1, B2)
    # centers are 2*sqrt(2) apart, farther than the radii sum 2.25
    assert math.hypot(2.0, 2.0) > 1.25 + 1.0
    source = UniformSource(15)
    for _ in range(10_000):
        point, y = b3.sample_uniform(source)
        assert not b4.contains(point, y)
        point, y = b4.sample_uniform(source)
        assert not b3.contains(point, y)


# ---------------------------------------------------------------------------
# superlevel restriction


@pytest.fixture(scope="module")
def level_block():
    return superlevel_block(SUPERLEVEL_BOX, gauss_mixture_xy, B0, B1, domain_rect=MIX_DOMAIN)


def test_superlevel_measure_is_the_exact_cell_count(level_block):
    # 2000 x 2000 cells over the box, each of area (5.5 / 2000)^2, times the
    # band width: the grid indicator sum at the same cells, bit for bit
    assert level_block.measure == 0.4913762734374999


def test_superlevel_area(level_block):
    area = level_block.measure / (B1 - B0)
    assert abs(area - SUPERLEVEL_AREA) < 0.02
    assert abs(area - 11.8) < 0.1


def test_superlevel_samples_respect_restriction(level_block):
    source = UniformSource(16)
    for _ in range(2000):
        (x1, x2), w = level_block.sample_uniform(source)
        assert gauss_mixture_xy(x1, x2) >= B0
        assert B0 <= w <= B1


def test_superlevel_inner_acceptance_frequency(level_block):
    source = UniformSource(17)
    n = 20_000
    for _ in range(n):
        level_block.sample_uniform(source)
    # each call consumes 2 draws per proposal plus 1 height draw
    proposals = (source.draws_issued - n) // 2
    p = SUPERLEVEL_AREA / (5.5 * 5.5)
    sigma = math.sqrt(proposals * p * (1.0 - p))
    assert abs(n - proposals * p) < 4.0 * sigma


def test_superlevel_landing_proportional_to_area(level_block):
    # frequency of landing in a sub-rectangle of the superlevel set is
    # proportional to its area
    sub = ((-0.5, 0.5), (-0.5, 0.5))  # comfortably inside the level set
    (sx_lo, sx_hi), (sy_lo, sy_hi) = sub
    assert float(gauss_mixture_xy(0.5, 0.5)) >= B0
    source = UniformSource(18)
    n = 50_000
    hits = 0
    for _ in range(n):
        (x1, x2), _ = level_block.sample_uniform(source)
        if sx_lo <= x1 <= sx_hi and sy_lo <= x2 <= sy_hi:
            hits += 1
    p = 1.0 / SUPERLEVEL_AREA
    sigma = math.sqrt(n * p * (1.0 - p))
    assert abs(hits - n * p) < 4.0 * sigma


def test_superlevel_detects_leaky_bounding_box():
    with pytest.raises(ValueError, match="leaks"):
        superlevel_block(
            ((0.0, 3.5), (-2.0, 3.5)),  # clips the level set on the left
            gauss_mixture_xy,
            B0,
            B1,
            domain_rect=MIX_DOMAIN,
        )


def test_superlevel_rejects_empty_region():
    with pytest.raises(ValueError, match="zero area"):
        superlevel_block(
            SUPERLEVEL_BOX, gauss_mixture_xy, 1.0, 2.0,
            domain_rect=MIX_DOMAIN,
        )


def test_superlevel_inner_cap_fires(monkeypatch):
    def needle(x1, x2):
        return np.where(x1 < 1e-3, 1.0, 0.0)

    block = superlevel_block(
        ((0.0, 1.0), (0.0, 1.0)), needle, 0.5, 1.0,
        domain_rect=((0.0, 1.0), (0.0, 1.0)),
    )
    monkeypatch.setattr(blocks2d, "INNER_CAP", 20)
    with pytest.raises(RejectionCapError):
        block.sample_uniform(UniformSource(19))
    density = Density(
        dim=2, evaluate=lambda p: 1.0, domain_bounds=((0.0, 1.0), (0.0, 1.0)), K=1e-3
    )
    sampler = PatternBlockSampler(density, BlockSet([block]), UniformSource(19))
    with pytest.raises(RejectionCapError, match="exhausted 20 proposals"):
        sampler.sample_many(5)
