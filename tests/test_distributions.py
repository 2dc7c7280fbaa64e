import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from patternblocks.core import exact_adoption_rate
from patternblocks.distributions import (
    B0,
    B1,
    B2,
    B3,
    MIX_COEFF,
    MIX_DOMAIN,
    TARGETS,
    arcsine_cdf,
    arcsine_cdf_inv,
    arcsine_modulated_mass,
    arcsine_modulated_pdf,
    arcsine_pdf,
    arcsine_strip_scale,
    gauss_mixture_blockset,
    gauss_mixture_density,
    gauss_mixture_xy,
    half_normal_cdf,
    half_normal_pdf,
    half_normal_pdf_inv,
    half_normal_tail_mass,
    half_normal_tail_sampler,
    modulation,
)
from patternblocks.numeric import bin_probabilities_2d
from patternblocks.rng import UniformSource

# frozen from the tanh-sinh quadrature of the arcsine pdf over [0, 1/8]
ARCSINE_CDF_EIGHTH = 0.23005345616261589
# frozen from quadrature of x f(x) / tailmass on [r, 40] at r = 3.4426198559
TAIL_MEAN_AT_R = 3.697317056217324


# ---------------------------------------------------------------------------
# arcsine envelope


def test_arcsine_cdf_midpoint_and_endpoints():
    assert abs(arcsine_cdf(0.5) - 0.5) < 1e-15
    assert arcsine_cdf(0.0) == 0.0
    assert arcsine_cdf(1.0) == 1.0


def test_arcsine_cdf_at_eighth_matches_quadrature_oracle():
    assert abs(arcsine_cdf(0.125) - ARCSINE_CDF_EIGHTH) < 1e-15
    mp.mp.dps = 30
    oracle = mp.quad(lambda x: 1 / (mp.pi * mp.sqrt(x * (1 - x))), [0, mp.mpf(1) / 8])
    assert abs(arcsine_cdf(0.125) - float(oracle)) < 1e-13


def test_arcsine_cdf_domain_errors():
    with pytest.raises(ValueError):
        arcsine_cdf(-0.01)
    with pytest.raises(ValueError):
        arcsine_cdf_inv(1.01)


def test_arcsine_cdf_inv_special_points():
    assert arcsine_cdf_inv(0.0) == 0.0
    assert abs(arcsine_cdf_inv(0.5) - 0.5) < 1e-15
    assert abs(arcsine_cdf_inv(1.0) - 1.0) < 1e-15


def test_arcsine_round_trip():
    # away from 1 the round trip is exact to 1e-14; approaching 1 the
    # representation of sin^2 saturates (absolute spacing 2^-53) while the
    # CDF slope diverges, so the error there grows to the 1e-13 scale
    ps = np.linspace(0.0, 1.0, 10_001)
    errors = np.array([abs(arcsine_cdf(arcsine_cdf_inv(p)) - p) for p in ps])
    assert errors[ps <= 0.99].max() < 1e-14
    assert errors.max() < 1e-12


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_arcsine_cdf_strictly_increasing(x):
    eps = 1e-7
    lo = max(0.0, x - eps)
    hi = min(1.0, x + eps)
    assert arcsine_cdf(lo) < arcsine_cdf(hi)


def test_arcsine_pdf_singularities():
    assert arcsine_pdf(0.0) == math.inf
    assert arcsine_pdf(1.0) == math.inf
    assert arcsine_modulated_pdf(0.0) == 0.0
    assert arcsine_modulated_pdf(1.0) == 0.0
    assert arcsine_modulated_pdf(-0.5) == 0.0
    assert arcsine_modulated_pdf(0.3) > 0.0


def test_modulated_mass_is_normalized():
    assert abs(arcsine_modulated_mass(0.0, 1.0) - 1.0) < 1e-8


def test_modulated_blockset_structure(arcsine_blocks):
    assert len(arcsine_blocks) == 8
    assert abs(arcsine_blocks.total_measure - 1.5) < 1e-12


def test_strip_widths_mirror():
    # the envelope CDF increments are symmetric under strip reflection
    deltas = [arcsine_cdf(i / 8) - arcsine_cdf((i - 1) / 8) for i in range(1, 9)]
    for i in range(1, 9):
        assert abs(deltas[i - 1] - deltas[8 - i]) < 1e-15


def test_modulation_bounded_by_strip_scales():
    # on each strip the modulated factor stays below the envelope scale,
    # which is the cover condition for the strip blocks
    for i in range(1, 9):
        lo, hi = (i - 1) / 8.0, i / 8.0
        xs = np.linspace(lo, hi, 10_001)
        top = max(modulation(x) for x in xs)
        assert top <= arcsine_strip_scale(i) + 1e-12


def test_arcsine_rate_is_two_thirds(arcsine_density, arcsine_blocks):
    assert abs(exact_adoption_rate(arcsine_density, arcsine_blocks) - 2.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# Gaussian mixture


def test_mixture_mass_close_to_one(mixture_density):
    assert mixture_density.K_provenance == "exact"
    assert abs(mixture_density.K - 1.0) < 0.002


def test_mixture_mass_matches_closed_form_at_30_digits(mixture_density):
    with mp.workdps(30):
        def line(mu):
            return mp.sqrt(mp.pi) / 2 * (mp.erf(4 - mu) - mp.erf(-4 - mu))

        exact = mp.mpf(2119) / 9970 * (line(0) ** 2 + line(2) ** 2 / 2)
        assert abs(mixture_density.K - exact) / exact < 1e-15
    assert mixture_density.K == 1.0000000330799637


def test_mixture_build_memory_is_bounded():
    # the grid passes walk bounded bands; full 2000 x 2000 grids took 91.6 MB
    tracemalloc.start()
    try:
        gauss_mixture_density()
        gauss_mixture_blockset()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_mixture_peaks_hit_level_constants():
    assert float(gauss_mixture_xy(2.0, 2.0)) == B2
    assert float(gauss_mixture_xy(0.0, 0.0)) == B3


def test_level_ordering():
    assert 0.0 < B0 < B1 < B2 < B3
    assert B0 == 1.0 / 40.0
    assert B1 == 1.0 / 15.0
    assert abs(B2 - MIX_COEFF * (math.exp(-8.0) + 0.5)) == 0.0


def test_mixture_blockset_structure(mixture_blocks):
    assert len(mixture_blocks) == 5
    assert abs(mixture_blocks.blocks[0].measure - 1.6) < 1e-13
    assert abs(mixture_blocks.total_measure - 2.744) < 0.008


def test_mixture_adoption_rate(mixture_density, mixture_blocks):
    rate = exact_adoption_rate(mixture_density, mixture_blocks)
    assert 0.3634 <= rate <= 0.3654
    # the coefficient nearly normalizes the truncated mixture, so the rate
    # computed with the closed-form K and with K = 1 must agree closely
    assert abs(rate - 1.0 / mixture_blocks.total_measure) < 0.002


def test_mixture_array_broadcasting():
    xs = np.linspace(-4.0, 4.0, 7)
    grid = gauss_mixture_xy(xs[:, None], xs[None, :])
    assert grid.shape == (7, 7)
    assert np.all(grid > 0.0)
    assert float(gauss_mixture_xy(xs[2], xs[5])) == grid[2, 5]


def test_mixture_density_zero_outside_domain(mixture_density):
    assert mixture_density.evaluate((4.5, 0.0)) == 0.0
    assert mixture_density.evaluate((0.0, 0.0)) > 0.0


def test_mixture_bins_match_quadrature_oracle():
    # the closed-form bins against the independent midpoint quadrature
    (edges, _), probs = TARGETS["gauss-mix-2d"].bins()
    oracle = bin_probabilities_2d(gauss_mixture_xy, MIX_DOMAIN, 16)
    assert len(edges) == 17
    assert np.max(np.abs(probs / oracle - 1.0)) < 2e-4


# ---------------------------------------------------------------------------
# half-normal


def test_half_normal_peak_value():
    assert abs(half_normal_pdf(0.0) - math.sqrt(2.0 / math.pi)) < 1e-16
    assert half_normal_pdf(-1.0) == 0.0


def test_half_normal_cdf_and_tail_mass():
    assert half_normal_cdf(0.0) == 0.0
    assert abs(half_normal_cdf(50.0) - 1.0) < 1e-15
    for r in (0.5, 1.0, 3.4426198559):
        assert abs(half_normal_cdf(r) + half_normal_tail_mass(r) - 1.0) < 1e-15


def test_half_normal_pdf_inverse_round_trip():
    for x in np.linspace(0.01, 6.0, 200):
        y = half_normal_pdf(x)
        assert abs(half_normal_pdf_inv(y) - x) < 1e-10
    with pytest.raises(ValueError):
        half_normal_pdf_inv(1.0)


def test_tail_sampler_support_and_mean():
    r = 3.4426198559
    source = UniformSource(23)
    draws = np.array([half_normal_tail_sampler(r, source) for _ in range(100_000)])
    assert draws.min() >= r
    assert abs(draws.mean() - TAIL_MEAN_AT_R) < 0.005


def test_tail_sampler_rejects_nonpositive_start():
    with pytest.raises(ValueError):
        half_normal_tail_sampler(0.0, UniformSource(1))
