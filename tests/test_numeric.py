import math

import numpy as np
import pytest

from patternblocks.distributions import gauss_mixture_xy, modulation
from patternblocks.numeric import (
    QuadratureError,
    bin_probabilities_1d,
    bin_counts,
    bin_probabilities_2d,
    chi_square_gof,
    quad_1d,
    quad_2d_grid,
)

# ---------------------------------------------------------------------------
# 1-d adaptive quadrature


def test_quad_constant():
    assert abs(quad_1d(lambda x: 1.0, 0.0, 1.0) - 1.0) < 1e-12


def test_quad_orientation_and_empty_range():
    assert quad_1d(lambda x: 1.0, 1.0, 1.0) == 0.0
    assert abs(quad_1d(lambda x: x, 1.0, 0.0) + 0.5) < 1e-12


def test_quad_arcsine_mass_via_substitution():
    # the arcsine weight integrates to 1; after x = sin^2(theta) the
    # integrand is the constant 2/pi on [0, pi/2]
    value = quad_1d(lambda t: 2.0 / math.pi, 0.0, 0.5 * math.pi)
    assert abs(value - 1.0) < 1e-8


def test_quad_modulated_mass_vanishing_harmonic():
    # the odd harmonic against the arcsine weight integrates to zero, so
    # the modulated mass is exactly 1; checked at two tolerances
    def integrand(theta):
        s = math.sin(theta)
        return (2.0 / math.pi) * modulation(s * s)

    coarse = quad_1d(integrand, 0.0, 0.5 * math.pi, tol=1e-6)
    fine = quad_1d(integrand, 0.0, 0.5 * math.pi, tol=1e-10)
    assert abs(fine - 1.0) < 1e-6
    assert abs(coarse - fine) < 1e-5


def test_quad_depth_cap():
    with pytest.raises(QuadratureError):
        quad_1d(lambda x: x ** -0.9, 1e-12, 1.0, tol=1e-12, max_depth=6)


def test_quad_rejects_bad_tol():
    with pytest.raises(ValueError):
        quad_1d(lambda x: 1.0, 0.0, 1.0, tol=0.0)


# ---------------------------------------------------------------------------
# 2-d grid quadrature


def test_quad_2d_constant_exact():
    value, err = quad_2d_grid(lambda x, y: np.ones_like(x * y), ((0, 1), (0, 1)), 16)
    assert value == pytest.approx(1.0, abs=1e-14)
    assert err < 1e-14


def test_quad_2d_disk_area():
    def indicator(x, y):
        return (x * x + y * y <= 1.0).astype(float)

    value, _ = quad_2d_grid(indicator, ((-1, 1), (-1, 1)), 2000)
    assert abs(value - math.pi) < 0.01


def test_quad_2d_mixture_mass():
    value, _ = quad_2d_grid(gauss_mixture_xy, ((-4, 4), (-4, 4)), 2000)
    assert abs(value - 1.0) < 0.002


def test_quad_2d_richardson_tracks_error():
    def smooth(x, y):
        return x * x + y * y * y + 1.0

    exact = 1.0 / 3.0 + 1.0 / 4.0 + 1.0
    value, err = quad_2d_grid(smooth, ((0, 1), (0, 1)), 128)
    assert abs(value - exact) <= 4.0 * err + 1e-14


def test_quad_2d_rejects_tiny_grid():
    with pytest.raises(ValueError):
        quad_2d_grid(lambda x, y: x + y, ((0, 1), (0, 1)), 1)


# ---------------------------------------------------------------------------
# histograms


def test_histogram_counts_1d():
    rng = np.random.default_rng(5)
    samples = rng.random(10_000)
    edges = np.linspace(0.0, 1.0, 21)
    counts = bin_counts(samples, edges)
    assert counts.dtype == np.int64
    assert counts.sum() == 10_000
    assert np.array_equal(counts, np.histogram(samples, bins=edges)[0])


def test_histogram_counts_2d():
    rng = np.random.default_rng(6)
    samples = rng.random((5000, 2))
    edges = (np.linspace(0, 1, 11), np.linspace(0, 1, 6))
    counts = bin_counts(samples, edges)
    assert counts.shape == (10, 5)
    assert np.array_equal(counts, np.histogram2d(samples[:, 0], samples[:, 1], bins=edges)[0])


def test_histogram_rejects_out_of_range():
    with pytest.raises(ValueError):
        bin_counts([0.5, 1.5], np.linspace(0, 1, 5))


def test_histogram_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        bin_counts([(0.5, 0.5)], np.linspace(0, 1, 5))


# ---------------------------------------------------------------------------
# chi-square goodness of fit


def test_chi_square_gross_misfit():
    samples = np.full(1000, 0.05)
    edges = np.linspace(0.0, 1.0, 11)
    report = chi_square_gof(samples, edges, np.full(10, 0.1))
    assert report.p_value < 1e-10


def test_chi_square_calibrated_on_multinomial_oracle():
    # sampling straight from the binned law must give uniform p-values
    rng = np.random.default_rng(7)
    probs = np.full(10, 0.1)
    edges = np.linspace(0.0, 1.0, 11)
    centers = (edges[:-1] + edges[1:]) / 2.0
    low = 0
    trials = 500
    for _ in range(trials):
        counts = rng.multinomial(1000, probs)
        samples = np.repeat(centers, counts)
        if chi_square_gof(samples, edges, probs).p_value < 0.05:
            low += 1
    assert abs(low / trials - 0.05) < 0.02


def test_chi_square_merges_sparse_bins():
    rng = np.random.default_rng(8)
    # pooled expectation 10 >= 5, so the three sparse bins form one bin
    probs = np.array([0.49, 0.49, 0.008, 0.008, 0.004])
    edges = np.linspace(0.0, 1.0, 6)
    centers = (edges[:-1] + edges[1:]) / 2.0
    counts = rng.multinomial(500, probs)
    samples = np.repeat(centers, counts)
    report = chi_square_gof(samples, edges, probs)
    assert report.bins_merged == 3
    assert report.dof == 2  # two big bins plus the pooled bin
    assert report.p_value > 0.001


def test_chi_square_folds_small_pool_into_regular_bin():
    rng = np.random.default_rng(12)
    # pooled expectation 2 < 5 folds into the smaller regular bin
    probs = np.array([0.6, 0.396, 0.002, 0.002])
    edges = np.linspace(0.0, 1.0, 5)
    centers = (edges[:-1] + edges[1:]) / 2.0
    counts = rng.multinomial(500, probs)
    samples = np.repeat(centers, counts)
    report = chi_square_gof(samples, edges, probs)
    assert report.bins_merged == 2
    assert report.dof == 1
    assert report.p_value > 0.001


def test_chi_square_requires_enough_bins():
    samples = np.full(100, 0.5)
    with pytest.raises(ValueError):
        chi_square_gof(samples, np.linspace(0, 1, 3), np.array([0.999, 0.001]))


def test_chi_square_requires_normalized_probs():
    with pytest.raises(ValueError):
        chi_square_gof(
            np.array([0.5]), np.linspace(0, 1, 3), np.array([0.6, 0.3])
        )


def test_bin_probabilities_helpers():
    probs = bin_probabilities_1d(lambda a, b: b - a, np.linspace(0, 1, 5))
    assert np.allclose(probs, 0.25)
    grid = bin_probabilities_2d(
        lambda x, y: np.ones_like(x * y), ((0, 1), (0, 1)), 4
    )
    assert grid.shape == (4, 4)
    assert abs(grid.sum() - 1.0) < 1e-12
    assert np.allclose(grid, 1.0 / 16.0)

