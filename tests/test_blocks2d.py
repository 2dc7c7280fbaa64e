import math

import numpy as np
import pytest
from scipy.stats import chi2

from patternblocks import blocks2d
from patternblocks.blocks2d import cylinder_block, slab_block, superlevel_block
from patternblocks.core import (
    BlockSet,
    Density,
    PatternBlockSampler,
    RejectionCapError,
    validate_blockset,
)
from patternblocks.distributions import (
    B0,
    B1,
    B2,
    B3,
    MIX_DOMAIN,
    SUPERLEVEL_BOX,
    gauss_mixture_density,
    gauss_mixture_xy,
    mixture_superlevel_area,
)
from patternblocks.rng import UniformSource

# a 30-digit mpmath chord integral (tests/test_distributions.py recomputes it)
SUPERLEVEL_AREA = 11.792702623992478


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
    area = mixture_superlevel_area()
    return superlevel_block(SUPERLEVEL_BOX, gauss_mixture_xy, B0, B1, area=area)


def test_superlevel_measure_is_the_chord_integral(level_block):
    # the caller's area times the band width, the area within rounding of
    # the exact chord integral
    assert level_block.measure == mixture_superlevel_area() * (B1 - B0)
    assert level_block.measure == pytest.approx(SUPERLEVEL_AREA * (B1 - B0), rel=1e-15)


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


def test_superlevel_detects_leaky_bounding_box(mixture_blocks):
    # a box that clips the level set on the left: its block no longer
    # contains the clipped points, so the mixture cover check fails there
    leaky = superlevel_block(
        ((0.0, 3.5), (-2.0, 3.5)), gauss_mixture_xy, B0, B1, area=SUPERLEVEL_AREA
    )
    assert not leaky.contains((-1.0, -0.2), 0.05)
    assert mixture_blocks.blocks[1].contains((-1.0, -0.2), 0.05)
    blocks = list(mixture_blocks.blocks)
    blocks[1] = leaky
    report = validate_blockset(BlockSet(blocks), gauss_mixture_density())
    assert report.cover.status == "fail"
    assert report.cover.detail.startswith("2869 of 156720 probes uncovered")
    assert validate_blockset(mixture_blocks, gauss_mixture_density()).cover.status == "pass"


def test_superlevel_rejects_empty_region():
    with pytest.raises(ValueError, match="block measure must be positive"):
        superlevel_block(SUPERLEVEL_BOX, gauss_mixture_xy, B0, B1, area=0.0)


def test_superlevel_inner_cap_fires(monkeypatch):
    def needle(x1, x2):
        return np.where(x1 < 1e-3, 1.0, 0.0)

    block = superlevel_block(((0.0, 1.0), (0.0, 1.0)), needle, 0.5, 1.0, area=1e-3)
    monkeypatch.setattr(blocks2d, "INNER_CAP", 20)
    with pytest.raises(RejectionCapError):
        block.sample_uniform(UniformSource(19))
    density = Density(
        dim=2, evaluate=lambda p: np.ones(len(p)), domain_bounds=((0.0, 1.0), (0.0, 1.0)),
        K=block.measure,
    )
    sampler = PatternBlockSampler(density, BlockSet([block]), UniformSource(19))
    with pytest.raises(RejectionCapError, match="exhausted 20 proposals"):
        sampler.sample_many(5)
