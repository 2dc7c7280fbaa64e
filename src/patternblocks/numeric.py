"""Quadrature and chi-square goodness-of-fit utilities.

gauss_legendre is the one quadrature rule of the shipped targets: it gives
the arcsine-modulated bin masses and the mixture's superlevel area, each
exact to rounding. Expected bin probabilities are never estimated by
sampling, so the checks stay decoupled from the samplers they judge; the
half-normal and mixture bins come in closed form (erf and erf products).
quad_2d_grid is the tests' independent midpoint reference for the mixture
bins. The package has no KS test of its own; callers that want one use
scipy.stats.kstest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import chdtrc  # chi2.sf's own routine, without scipy.stats' import

Rect = tuple[tuple[float, float], tuple[float, float]]

BAND_CELLS = 1 << 16  # grid cells midpoint_bands hands out at a time
MIN_EXPECTED = 5.0  # expected count below which a chi-square bin is pooled


class TooFewBinsError(ValueError):
    """Too few samples for the bin layout: under 2 bins survive pooling."""


_leggauss = functools.cache(leggauss)  # (nodes, weights) on [-1, 1]


def gauss_legendre(g: Callable[[np.ndarray], np.ndarray], a: float, b: float, nodes: int) -> float:
    """Integral of g over [a, b] by the Gauss-Legendre rule of the given
    number of nodes, exact for polynomials of degree up to 2 * nodes - 1.

    g is called once, on the float64 array of the nodes mapped onto [a, b];
    b < a gives the negated integral.
    """
    t, w = _leggauss(nodes)
    half = 0.5 * (b - a)
    return half * float((w * g(0.5 * (a + b) + half * t)).sum())


class Quad2DResult(NamedTuple):
    value: float
    error_estimate: float


def quad_2d_grid(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rect: Rect,
    n: int,
) -> Quad2DResult:
    """Midpoint-rule tensor quadrature of g over a rectangle, n cells per axis.

    g must broadcast over numpy arrays. The returned error estimate is the
    Richardson comparison against the half-resolution grid (midpoint rule is
    second order, so |I_h - I_2h| / 3 bounds the leading error term).
    """
    if n < 2:
        raise ValueError("need at least 2 cells per axis")
    fine = _midpoint_2d(g, rect, n)
    coarse = _midpoint_2d(g, rect, n // 2)
    return Quad2DResult(fine, abs(fine - coarse) / 3.0)


def _midpoint_2d(g, rect, n):
    (x_lo, x_hi), (y_lo, y_hi) = rect
    total = sum(float(np.sum(g(xs, ys))) for xs, ys in midpoint_bands(rect, n))
    return total * ((x_hi - x_lo) / n) * ((y_hi - y_lo) / n)


def midpoint_bands(rect: Rect, n: int):
    """Cell midpoints of the n x n grid over rect, a band of rows at a time:
    yields (xs as a column, ys as a row), which broadcast to at most
    BAND_CELLS cells, so a 2000 x 2000 grid never materializes."""
    (x_lo, x_hi), (y_lo, y_hi) = rect
    hx = (x_hi - x_lo) / n
    hy = (y_hi - y_lo) / n
    ys = y_lo + hy * (np.arange(n) + 0.5)
    rows = max(1, BAND_CELLS // n)
    for start in range(0, n, rows):
        xs = x_lo + hx * (np.arange(start, min(n, start + rows)) + 0.5)
        yield xs[:, None], ys[None, :]


def bin_probabilities_1d(
    mass: Callable[[float, float], float], edges: Sequence[float]
) -> np.ndarray:
    """Per-bin probabilities from a mass function, normalized to sum to 1."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("need at least two bin edges")
    probs = np.array([mass(a, b) for a, b in zip(edges[:-1], edges[1:])])
    total = probs.sum()
    if total <= 0:
        raise ValueError("mass function vanished on all bins")
    return probs / total


def bin_counts(samples, bin_edges) -> np.ndarray:
    """int64 counts of points (array of shape (n,) or (n, d)) on given edges:
    one flat sequence of numbers for 1-D points, else one sequence per axis.

    Every sample must land inside the edges; silently dropping points
    would corrupt goodness-of-fit counts downstream.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if all(np.ndim(e) == 0 for e in bin_edges):  # one flat sequence: a single axis
        bin_edges = (bin_edges,)
    edges = tuple(np.asarray(e, dtype=float) for e in bin_edges)
    if pts.shape[1] != len(edges):
        raise ValueError("sample dimension does not match bin_edges")
    counts, _ = np.histogramdd(pts, bins=edges)
    counts = counts.astype(np.int64)
    if counts.sum() != len(pts):
        raise ValueError("samples fall outside the bin range")
    return counts


@dataclass(frozen=True)
class GofReport:
    """Pearson chi-square result against quadrature bin probabilities."""

    statistic: float
    dof: int
    p_value: float
    bins_merged: int


def chi_square_gof(samples, bin_edges, expected_probs) -> GofReport:
    """chi_square_counts of the bin_counts of samples on bin_edges."""
    return chi_square_counts(bin_counts(samples, bin_edges), expected_probs)


def chi_square_counts(counts, expected_probs) -> GofReport:
    """Chi-square goodness of fit of bin counts against expected probabilities.

    expected_probs must sum to 1 within 1e-9 and have the shape of counts.
    Bins are pooled by pool_small_bins and the merge count is reported.
    """
    expected_probs = np.asarray(expected_probs, dtype=float)
    if abs(expected_probs.sum() - 1.0) > 1e-9:
        raise ValueError("expected_probs must sum to 1")
    if counts.shape != expected_probs.shape:
        raise ValueError("expected_probs shape does not match the bin grid")
    observed = counts.ravel().astype(float)
    expected = expected_probs.ravel() * int(counts.sum())
    obs_arr, exp_arr, bins_merged = pool_small_bins(observed, expected)
    statistic = float(((obs_arr - exp_arr) ** 2 / exp_arr).sum())
    dof = len(exp_arr) - 1
    return GofReport(statistic, dof, float(chdtrc(dof, statistic)), bins_merged)


def pool_small_bins(observed, expected):
    """(observed, expected, bins_merged) after pooling small bins.

    Bins whose expected count falls below MIN_EXPECTED are pooled into one
    bin, which is folded into the smallest regular bin if the pool itself
    stays small. Which bins are pooled depends only on the expected counts.
    Raises TooFewBinsError when fewer than 2 effective bins remain.
    """
    small = expected < MIN_EXPECTED
    bins_merged = int(small.sum())
    obs_eff = list(observed[~small])
    exp_eff = list(expected[~small])
    if bins_merged:
        pooled_obs = observed[small].sum()
        pooled_exp = expected[small].sum()
        if pooled_exp >= MIN_EXPECTED or not exp_eff:
            obs_eff.append(pooled_obs)
            exp_eff.append(pooled_exp)
        else:
            k = int(np.argmin(exp_eff))
            obs_eff[k] += pooled_obs
            exp_eff[k] += pooled_exp

    if len(exp_eff) < 2:
        raise TooFewBinsError("fewer than 2 effective bins after merging")
    return np.asarray(obs_eff), np.asarray(exp_eff), bins_merged
