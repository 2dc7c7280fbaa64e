import math

import numpy as np
import pytest

from patternblocks.distributions import gauss_mixture_xy, modulation
from patternblocks.numeric import (
    bin_probabilities_1d,
    bin_counts,
    chi_square_gof,
    gauss_legendre,
    quad_2d_grid,
)

# ---------------------------------------------------------------------------
# 1-d Gauss-Legendre quadrature


def test_quad_constant():
    assert gauss_legendre(lambda x: np.ones_like(x), 0.0, 1.0, 1) == pytest.approx(1.0, abs=1e-15)


def test_quad_orientation_and_empty_range():
    assert gauss_legendre(np.exp, 1.0, 1.0, 8) == 0.0
    forward = gauss_legendre(np.exp, 0.0, 1.0, 8)
    assert forward == pytest.approx(math.e - 1.0, rel=1e-15)
    assert gauss_legendre(np.exp, 1.0, 0.0, 8) == pytest.approx(-forward, rel=1e-15)


def test_gauss_legendre_exact_to_degree_2n_minus_1():
    # n nodes integrate x^k over [-1, 2] exactly for k <= 2n - 1, not for k = 2n
    for n in (1, 2, 5, 8):
        for k in range(2 * n + 1):
            exact = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            error = abs(gauss_legendre(lambda x: x**k, -1.0, 2.0, n) - exact)
            if k < 2 * n:
                assert error <= 1e-13 * max(1.0, abs(exact)), (n, k)
            else:
                assert error > 1e-3, (n, k)


def test_quad_arcsine_mass_via_substitution():
    # the arcsine weight integrates to 1; after x = sin^2(theta) the
    # integrand is the constant 2/pi on [0, pi/2]
    value = gauss_legendre(lambda t: np.full_like(t, 2.0 / math.pi), 0.0, 0.5 * math.pi, 8)
    assert abs(value - 1.0) < 1e-15


def test_quad_modulated_mass_vanishing_harmonic():
    # the odd harmonic against the arcsine weight integrates to zero, so
    # the modulated mass is exactly 1; checked at two node counts
    def integrand(theta):
        return (2.0 / math.pi) * modulation(np.sin(theta) ** 2)

    for nodes in (8, 64):
        assert abs(gauss_legendre(integrand, 0.0, 0.5 * math.pi, nodes) - 1.0) < 1e-14


def test_quad_rejects_no_nodes():
    with pytest.raises(ValueError):
        gauss_legendre(np.exp, 0.0, 1.0, 0)


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
    # a flat list or tuple of numbers is one axis of edges too
    for flat in (edges.tolist(), tuple(edges.tolist())):
        assert np.array_equal(bin_counts(samples, flat), counts)
    probs = np.full(20, 1 / 20)
    assert chi_square_gof(samples, edges.tolist(), probs) == chi_square_gof(samples, edges, probs)


def test_histogram_counts_2d():
    rng = np.random.default_rng(6)
    samples = rng.random((5000, 2))
    # per-axis arrays of unequal and of equal length
    for shape in [(11, 6), (11, 11)]:
        edges = tuple(np.linspace(0, 1, k) for k in shape)
        counts = bin_counts(samples, edges)
        assert counts.shape == (shape[0] - 1, shape[1] - 1)
        expected = np.histogram2d(samples[:, 0], samples[:, 1], bins=edges)[0]
        assert np.array_equal(counts, expected)


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

