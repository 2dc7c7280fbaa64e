"""The benchmark's own correctness oracle for patternblocks output.

Every expected value here comes from scipy closed forms, scipy.integrate
or published constants, never from patternblocks itself, so a change to
the package's quadrature or goodness-of-fit code cannot weaken the check.

Significance: each run of the benchmark checks up to ~20 outputs, and
comparing two commits takes a few hundred runs, so a correct sampler
faces at most ~10^4 checks of two tests each. Every test uses
ALPHA = 1e-9, which keeps the chance of any false failure across all of
them below 2e-5 (union bound) while a wrong block, weight or accept test
still moves a 10^5-sample chi-square far past it.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np
from scipy import integrate, optimize
from scipy.special import erf
from scipy.stats import chi2, halfnorm, norm

ALPHA = 1e-9
Z_BAND = float(norm.isf(ALPHA / 2))
MIN_EXPECTED = 5.0

# Marsaglia & Tsang (2000), "The Ziggurat Method for Generating Random
# Variables": right end of the 128-block normal ziggurat. The half-normal
# layout with 128 blocks has the same abscissas.
ZIGG_BLOCKS = 128
ZIGG_R = 3.442619855899
ZIGG_BINS = 100

# gauss-mix-2d target and cover constants, as fixed by the paper.
MIX_C = 2119.0 / 9970.0
MIX_LO, MIX_HI = -4.0, 4.0
MIX_B0 = 1.0 / 40.0
MIX_B1 = 1.0 / 15.0
MIX_B2 = MIX_C * (math.exp(-8.0) + 0.5)
MIX_B3 = MIX_C * (1.0 + 0.5 * math.exp(-8.0))
MIX_BOX = (-2.0, 3.5)  # superlevel bounding box, both axes
MIX_BINS = 16


def _gauss_segment(a, b, mu):
    """Integral of exp(-(x - mu)^2) over [a, b]."""
    return 0.5 * math.sqrt(math.pi) * (erf(b - mu) - erf(a - mu))


def _mix_xy(x, y):
    return MIX_C * (np.exp(-x * x - y * y) + 0.5 * np.exp(-(x - 2.0) ** 2 - (y - 2.0) ** 2))


def _superlevel_area() -> float:
    """Area of {f >= b0} by scipy.integrate.quad over x of its y-extent."""
    ys = np.linspace(MIX_BOX[0], MIX_BOX[1], 2201)

    def extent(x):
        g = _mix_xy(x, ys) - MIX_B0
        if g[0] >= 0.0 or g[-1] >= 0.0:
            raise ValueError("superlevel set reaches the bounding box")
        cross = np.nonzero(np.diff(np.sign(g)))[0]
        roots = [
            optimize.brentq(lambda y: _mix_xy(x, y) - MIX_B0, ys[i], ys[i + 1], xtol=1e-14)
            for i in cross
        ]
        return sum(b - a for a, b in zip(roots[::2], roots[1::2]))

    area, _ = integrate.quad(extent, MIX_BOX[0], MIX_BOX[1], limit=400, epsabs=1e-10)
    return area


@lru_cache(maxsize=None)
def exact_rate(dist: str) -> float:
    """Adoption rate K / nu(B) of a shipped target's cover."""
    if dist == "half-normal-zigg":
        v = ZIGG_R * halfnorm.pdf(ZIGG_R) + halfnorm.sf(ZIGG_R)
        return 1.0 / (ZIGG_BLOCKS * v)
    if dist == "gauss-mix-2d":
        span = (MIX_LO, MIX_HI)
        mass = MIX_C * (_gauss_segment(*span, 0.0) ** 2 + 0.5 * _gauss_segment(*span, 2.0) ** 2)
        measure = (
            (MIX_HI - MIX_LO) ** 2 * MIX_B0
            + _superlevel_area() * (MIX_B1 - MIX_B0)
            + math.pi * (1.25 ** 2 + 1.0) * (MIX_B2 - MIX_B1)
            + math.pi * (MIX_B3 - MIX_B2)
        )
        return mass / measure
    raise ValueError(f"no oracle for {dist!r}")


def rate_problem(dist: str, accepted: int, attempts: int) -> str | None:
    """None when accepted / attempts lies in the ALPHA band of the exact rate.

    attempts for a fixed accepted count is negative binomial, so the rate
    has standard deviation p * sqrt((1 - p) / accepted) to first order.
    """
    if accepted < 1 or attempts < accepted:
        return f"implausible counts: {accepted} accepted of {attempts} attempts"
    p = exact_rate(dist)
    band = Z_BAND * p * math.sqrt((1.0 - p) / accepted)
    rate = accepted / attempts
    if abs(rate - p) > band:
        return f"empirical rate {rate:.6f} outside {p:.6f} +- {band:.6f}"
    return None


def chi_square_p(observed: np.ndarray, expected: np.ndarray) -> float:
    """Pearson p-value; cells expected below MIN_EXPECTED are pooled."""
    observed = observed.ravel().astype(float)
    expected = expected.ravel().astype(float)
    small = expected < MIN_EXPECTED
    obs, exp = list(observed[~small]), list(expected[~small])
    if small.any():
        if expected[small].sum() >= MIN_EXPECTED:
            obs.append(observed[small].sum())
            exp.append(expected[small].sum())
        else:
            k = int(np.argmin(exp))
            obs[k] += observed[small].sum()
            exp[k] += expected[small].sum()
    obs, exp = np.asarray(obs), np.asarray(exp)
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(chi2.sf(stat, len(exp) - 1))


def _fit_problem(dist: str, data: np.ndarray) -> str | None:
    n = len(data)
    if dist == "half-normal-zigg":
        edges = halfnorm.ppf(np.linspace(0.0, 1.0, ZIGG_BINS + 1))
        observed = np.histogram(data[:, 0], bins=edges)[0]
        expected = np.full(ZIGG_BINS, n / ZIGG_BINS)
    else:
        edges = np.linspace(MIX_LO, MIX_HI, MIX_BINS + 1)
        observed = np.histogram2d(data[:, 0], data[:, 1], bins=(edges, edges))[0]
        seg0 = np.array([_gauss_segment(a, b, 0.0) for a, b in zip(edges[:-1], edges[1:])])
        seg2 = np.array([_gauss_segment(a, b, 2.0) for a, b in zip(edges[:-1], edges[1:])])
        mass = np.outer(seg0, seg0) + 0.5 * np.outer(seg2, seg2)
        expected = n * mass / mass.sum()
    p = chi_square_p(observed, expected)
    if p < ALPHA:
        return f"chi-square p-value {p:.3e} below {ALPHA:g}"
    return None


HEADERS = {"half-normal-zigg": "x", "gauss-mix-2d": "x1,x2"}


def _in_support(dist: str, data: np.ndarray) -> bool:
    if not np.isfinite(data).all():
        return False
    if dist == "half-normal-zigg":
        return bool((data >= 0.0).all())
    return bool(((data >= MIX_LO) & (data <= MIX_HI)).all())


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def points_problems(dist: str, data: np.ndarray, accepted: int, attempts: int) -> list[str]:
    """Problems with n sampled points of shape (n, dim) and their counts."""
    problems = []
    if not _in_support(dist, data):
        problems.append("value outside the support")
    if accepted != len(data):
        problems.append(f"accepted {accepted} != {len(data)} points")
    problems += [p for p in (rate_problem(dist, accepted, attempts), _fit_problem(dist, data)) if p]
    return problems


def sample_problems(dist: str, n: int, csv_path, summary_text: str) -> list[str]:
    """Problems with the output of `sample --dist dist --n n` (empty: correct)."""
    with open(csv_path) as fh:
        header = fh.readline().rstrip("\n")
        if header != HEADERS[dist]:
            return [f"header {header!r}, expected {HEADERS[dist]!r}"]
        if n == 0:
            rest = fh.read()
            return [f"{len(rest.splitlines())} rows for n = 0"] if rest else []
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (n, header.count(",") + 1):
        return [f"output shape {data.shape}, expected {n} rows"]
    try:
        summary = last_json_line(summary_text)
        counts = (int(summary["accepted"]), int(summary["attempts"]))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable summary: {exc}"]
    return points_problems(dist, data, *counts)


def validate_problems(dist: str, n: int, report_text: str) -> list[str]:
    """Problems with the JSON report of `validate --dist dist --n n`.

    The samples stay inside the program, so the fit is judged from the
    reported Pearson statistic, re-tested with scipy at ALPHA.
    """
    try:
        doc = json.loads(report_text)
        checks = doc["validation"]
        gof, rates = doc["gof"], doc["rates"]
        stat, dof = float(gof["statistic"]), int(gof["dof"])
        counts = (int(rates["accepted"]), int(rates["attempts"]))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    statuses = {name: checks.get(name, {}).get("status") for name in ("positivity", "cover", "overlap")}
    problems = [f"{name} check {status}" for name, status in statuses.items() if status != "pass"]
    if doc.get("passed") is not True:
        problems.append("report not passed")
    if counts[0] != n:
        problems.append(f"report accepted {counts[0]} != n {n}")
    if dof < 1 or chi2.sf(stat, dof) < ALPHA:
        problems.append(f"chi-square {stat:.3f} on {dof} dof fails at {ALPHA:g}")
    rate = rate_problem(dist, *counts)
    return problems + ([rate] if rate else [])
