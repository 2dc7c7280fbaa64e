"""Quadrature and chi-square goodness-of-fit utilities used to validate samplers.

The integration routines here serve as independent oracles: expected bin
probabilities are always computed by quadrature, never by sampling, so the
checks stay decoupled from the samplers they judge. The package has no KS
test of its own; callers that want one use scipy.stats.kstest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.stats import chi2

Rect = tuple[tuple[float, float], tuple[float, float]]

BAND_CELLS = 1 << 16  # grid cells midpoint_bands hands out at a time
BIN_SUBGRID = 100  # midpoint cells per axis of each 2-d chi-square bin
MIN_EXPECTED = 5.0  # expected count below which a chi-square bin is pooled


class TooFewBinsError(ValueError):
    """Too few samples for the bin layout: under 2 bins survive pooling."""


class QuadratureError(RuntimeError):
    """Adaptive subdivision failed to reach the requested tolerance."""


def quad_1d(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_depth: int = 50,
) -> float:
    """Integrate g over [lo, hi] by adaptive Simpson subdivision.

    tol is an absolute error target. Raises QuadratureError when an interval
    still misses its share of the tolerance at max_depth subdivisions.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if lo == hi:
        return 0.0
    if lo > hi:
        return -quad_1d(g, hi, lo, tol, max_depth)
    fa = g(lo)
    fb = g(hi)
    m = 0.5 * (lo + hi)
    fm = g(m)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_adapt(g, lo, hi, fa, fm, fb, whole, tol, max_depth)


def _simpson_adapt(g, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"subdivision depth exhausted on [{a}, {b}], residual {delta:.3e}"
        )
    half = 0.5 * tol
    return _simpson_adapt(g, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_adapt(
        g, m, b, fm, frm, fb, right, half, depth - 1
    )


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


def bin_probabilities_2d(
    g: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rect: Rect,
    bins_per_axis: int,
) -> np.ndarray:
    """Quadrature bin probabilities of a 2-d density over a uniform grid.

    Each bin is integrated on its own BIN_SUBGRID x BIN_SUBGRID midpoint
    subgrid; the matrix is normalized so the probabilities sum to 1.
    """
    (x_lo, x_hi), (y_lo, y_hi) = rect
    n = bins_per_axis * BIN_SUBGRID
    hx = (x_hi - x_lo) / n
    hy = (y_hi - y_lo) / n
    ys = y_lo + hy * (np.arange(n) + 0.5)
    masses = np.empty((bins_per_axis, bins_per_axis))
    for bx in range(bins_per_axis):
        xs = x_lo + hx * (np.arange(bx * BIN_SUBGRID, (bx + 1) * BIN_SUBGRID) + 0.5)
        band = g(xs[:, None], ys[None, :])
        masses[bx] = band.reshape(BIN_SUBGRID, bins_per_axis, BIN_SUBGRID).sum(
            axis=(0, 2)
        )
    return masses / masses.sum()


def bin_counts(samples, bin_edges) -> np.ndarray:
    """int64 counts of points (array of shape (n,) or (n, d)) on given edges.

    Every sample must land inside the edges; silently dropping points
    would corrupt goodness-of-fit counts downstream.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if isinstance(bin_edges, np.ndarray) and bin_edges.ndim == 1:
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
    return GofReport(statistic, dof, float(chi2.sf(statistic, dof)), bins_merged)


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
