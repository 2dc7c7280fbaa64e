"""Shipped densities and their block configurations.

Three targets:

* an arcsine-envelope density on (0, 1) with integrable singularities at
  both endpoints, modulated by 1 + sin(8 pi x) and covered by eight
  envelope strips (adoption rate exactly 2/3);
* a truncated two-component Gaussian mixture on [-4, 4]^2 covered by a
  slab, a superlevel block, and three cylinders (adoption rate ~ 0.3644);
* the half-normal with an equal-area ziggurat layout, the classical
  special case of the block construction.

TARGETS holds each target under its CLI name: the factories of its density,
its cover and its chi-square bins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numeric
from .blocks1d import ZigguratLayout, build_ziggurat, envelope_block, ziggurat_blockset
from .blocks2d import cylinder_block, slab_block, superlevel_block
from .core import BlockSet, Density
from .rng import UniformSource

# ---------------------------------------------------------------------------
# arcsine-modulated density on (0, 1)

ARCSINE_STRIPS = 8
ARCSINE_MASS_TOL = 1e-10  # absolute quadrature tolerance of arcsine_modulated_mass


def arcsine_pdf(x: float) -> float:
    """Beta(1/2, 1/2) density 1 / (pi sqrt(x (1 - x))); +inf at 0 and 1."""
    t = x * (1.0 - x)
    if t <= 0.0:
        return math.inf
    return 1.0 / (math.pi * math.sqrt(t))


def arcsine_cdf(x: float) -> float:
    """(2 / pi) arcsin(sqrt(x)) on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("arcsine_cdf domain is [0, 1]")
    return (2.0 / math.pi) * math.asin(math.sqrt(x))


def arcsine_cdf_inv(p: float) -> float:
    """sin^2(pi p / 2) on [0, 1]; avoids cancellation near the endpoints."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("arcsine_cdf_inv domain is [0, 1]")
    s = math.sin(0.5 * math.pi * p)
    return s * s


def modulation(x: float) -> float:
    """1 + sin(8 pi x), the factor shaping the arcsine envelope."""
    return 1.0 + math.sin(8.0 * math.pi * x)


def arcsine_modulated_pdf(x: float) -> float:
    """Target density: modulation(x) * arcsine_pdf(x) on (0, 1), else 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return modulation(x) * arcsine_pdf(x)


def arcsine_modulated_density() -> Density:
    # total mass is exactly 1: the sine term integrates to zero against the
    # arcsine weight (antisymmetry under x -> 1 - x of the odd harmonic)
    return Density(
        dim=1,
        evaluate=lambda p: arcsine_modulated_pdf(p[0]),
        domain_bounds=((0.0, 1.0),),
        K=1.0,
        K_provenance="exact",
    )


def arcsine_strip_scale(i: int) -> float:
    """Envelope scale on strip i (1-based): 2 on odd strips, 1 on even."""
    return 2.0 if i % 2 == 1 else 1.0


def arcsine_modulated_blockset() -> BlockSet:
    """Eight envelope strips [(i-1)/8, i/8] under scale * arcsine_pdf.

    The scales dominate the modulation factor on each strip (the sine is
    nonpositive on even strips), so the strips jointly cover the subgraph;
    total measure is exactly 3/2, hence the 2/3 adoption rate.
    """
    blocks = []
    for i in range(1, ARCSINE_STRIPS + 1):
        blocks.append(
            envelope_block(
                (i - 1) / ARCSINE_STRIPS,
                i / ARCSINE_STRIPS,
                arcsine_strip_scale(i),
                arcsine_pdf,
                arcsine_cdf,
                arcsine_cdf_inv,
                label=f"strip {i}",
            )
        )
    return BlockSet(blocks)


def arcsine_modulated_mass(lo: float, hi: float) -> float:
    """Integral of the modulated density over [lo, hi] in [0, 1], to ARCSINE_MASS_TOL.

    Uses the substitution x = sin^2(theta), which absorbs the arcsine
    weight into a constant and leaves a smooth bounded integrand, so the
    endpoint singularities never enter the quadrature.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("integration range must sit inside [0, 1]")
    t_lo = math.asin(math.sqrt(lo))
    t_hi = math.asin(math.sqrt(hi))

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        return (2.0 / math.pi) * modulation(s * s)

    return numeric.quad_1d(integrand, t_lo, t_hi, tol=ARCSINE_MASS_TOL)


# ---------------------------------------------------------------------------
# two-component Gaussian mixture on [-4, 4]^2

MIX_COEFF = 2119.0 / 9970.0
MIX_DOMAIN = ((-4.0, 4.0), (-4.0, 4.0))
SUPERLEVEL_BOX = ((-2.0, 3.5), (-2.0, 3.5))


def gauss_mixture_xy(x1, x2):
    """Mixture density, broadcasting over numpy arrays."""
    return MIX_COEFF * (
        np.exp(-x1 * x1 - x2 * x2)
        + 0.5 * np.exp(-((x1 - 2.0) ** 2) - (x2 - 2.0) ** 2)
    )


def _gauss_mixture_scalar(x1: float, x2: float) -> float:
    return MIX_COEFF * (
        math.exp(-x1 * x1 - x2 * x2)
        + 0.5 * math.exp(-((x1 - 2.0) ** 2) - (x2 - 2.0) ** 2)
    )


# Height levels of the mixture cover: the slab spans [0, B0], the superlevel
# block [B0, B1]; B2 is the density at the mode (2, 2) and B3 its maximum,
# at the origin up to the exponentially small cross term.
B0 = 1.0 / 40.0
B1 = 1.0 / 15.0
B2 = MIX_COEFF * (math.exp(-8.0) + 0.5)
B3 = MIX_COEFF * (1.0 + 0.5 * math.exp(-8.0))
# (center, radius, y_lo, y_hi) of the cylinders; the first two are disjoint
MIX_DISKS = (
    ((0.0, 0.0), 1.25, B1, B2),
    ((2.0, 2.0), 1.0, B1, B2),
    ((0.0, 0.0), 1.0, B2, B3),
)


def _gauss_segment(a: float, b: float, mu: float) -> float:
    """Integral of exp(-(x - mu)^2) over [a, b], from math.erf."""
    return 0.5 * math.sqrt(math.pi) * (math.erf(b - mu) - math.erf(a - mu))


def gauss_mixture_density() -> Density:
    """Mixture density with its mass in closed form.

    Each component factors over the axes, so K = MIX_COEFF * (S(0)^2 +
    S(2)^2 / 2) with S(mu) = _gauss_segment(-4, 4, mu).
    The coefficient very nearly normalizes the truncated mixture: K - 1 is
    about 3.3e-8.
    """
    mass = MIX_COEFF * (
        _gauss_segment(-4.0, 4.0, 0.0) ** 2 + _gauss_segment(-4.0, 4.0, 2.0) ** 2 / 2
    )

    def evaluate(point):
        x1, x2 = point
        if not (-4.0 <= x1 <= 4.0 and -4.0 <= x2 <= 4.0):
            return 0.0
        return _gauss_mixture_scalar(x1, x2)

    return Density(
        dim=2,
        evaluate=evaluate,
        domain_bounds=MIX_DOMAIN,
        K=mass,
        K_provenance="exact",
    )


def gauss_mixture_blockset() -> BlockSet:
    """Slab + superlevel + three cylinders covering the mixture subgraph."""
    blocks = [
        slab_block(MIX_DOMAIN, 0.0, B0, label="slab"),
        superlevel_block(
            SUPERLEVEL_BOX, gauss_mixture_xy, B0, B1, domain_rect=MIX_DOMAIN, label="superlevel"
        ),
    ]
    for center, radius, y_lo, y_hi in MIX_DISKS:
        blocks.append(
            cylinder_block(center, radius, y_lo, y_hi, label=f"disk r={radius} at {center}")
        )
    return BlockSet(blocks)


# ---------------------------------------------------------------------------
# half-normal and its ziggurat layout

HALF_NORMAL_PEAK = math.sqrt(2.0 / math.pi)


def half_normal_pdf(x: float) -> float:
    """sqrt(2 / pi) exp(-x^2 / 2) for x >= 0, zero below."""
    if x < 0.0:
        return 0.0
    return HALF_NORMAL_PEAK * math.exp(-0.5 * x * x)


def half_normal_cdf(x: float) -> float:
    if x <= 0.0:
        return 0.0
    return math.erf(x / math.sqrt(2.0))


def half_normal_pdf_inv(y: float) -> float:
    """Inverse of the pdf on [0, inf); defined for 0 < y <= the peak value."""
    if not 0.0 < y <= HALF_NORMAL_PEAK:
        raise ValueError("pdf value out of range")
    return math.sqrt(max(0.0, -2.0 * math.log(y / HALF_NORMAL_PEAK)))


def half_normal_tail_mass(r: float) -> float:
    """Integral of the pdf over [r, inf) = erfc(r / sqrt(2))."""
    return math.erfc(r / math.sqrt(2.0))


def half_normal_tail_sampler(r: float, source: UniformSource) -> float:
    """Exact draw from the half-normal restricted to [r, inf).

    Marsaglia's tail scheme: exponential proposals of rate r, accepted
    against the Gaussian curvature. log1p(-u) keeps u = 0 harmless.
    """
    if r <= 0.0:
        raise ValueError("tail start must be positive")
    while True:
        x = -math.log1p(-source.next_unit()) / r
        y = -math.log1p(-source.next_unit())
        if 2.0 * y >= x * x:
            return r + x


def half_normal_density() -> Density:
    return Density(
        dim=1,
        evaluate=lambda p: half_normal_pdf(p[0]),
        domain_bounds=((0.0, math.inf),),
        K=1.0,
        K_provenance="exact",
    )


def half_normal_ziggurat(n_layers: int = 128) -> ZigguratLayout:
    """Equal-area layout using the closed-form pdf inverse and tail mass."""
    return build_ziggurat(
        half_normal_pdf,
        n_layers,
        half_normal_tail_mass,
        f_inv=half_normal_pdf_inv,
        tail_sampler=half_normal_tail_sampler,
    )


def half_normal_ziggurat_blockset() -> BlockSet:
    """The 128-layer ziggurat cover of the half-normal."""
    return ziggurat_blockset(half_normal_ziggurat(), half_normal_pdf)


# ---------------------------------------------------------------------------
# the shipped targets

HALF_NORMAL_PROBE_HI = 8.0  # density mass beyond this is ~1e-15, below any tolerance
# chi-square bins per axis of each target's validate fit
ARCSINE_BINS = 64
MIX_BINS = 16
HALF_NORMAL_BINS = 64


def _arcsine_modulated_bins():
    edges = np.linspace(0.0, 1.0, ARCSINE_BINS + 1)
    return edges, numeric.bin_probabilities_1d(arcsine_modulated_mass, edges)


def _gauss_mixture_bins():
    # each component factors over the axes, so a bin's mass is a product
    # of segment integrals, as in gauss_mixture_density's K
    edges = np.linspace(-4.0, 4.0, MIX_BINS + 1)
    s0, s2 = (
        np.array([_gauss_segment(a, b, mu) for a, b in zip(edges[:-1], edges[1:])])
        for mu in (0.0, 2.0)
    )
    masses = MIX_COEFF * (np.outer(s0, s0) + np.outer(s2, s2) / 2)
    return (edges, edges), masses / masses.sum()


def _half_normal_bins():
    edges = np.linspace(0.0, HALF_NORMAL_PROBE_HI, HALF_NORMAL_BINS + 1)
    edges[-1] = math.inf  # the last bin takes the tail
    return edges, numeric.bin_probabilities_1d(
        lambda a, b: half_normal_cdf(b) - half_normal_cdf(a), edges
    )


@dataclass(frozen=True)
class Target:
    """A shipped target: the factories of its density, its one fixed cover
    and its one fixed set of chi-square bins.

    probe_bounds replaces the density's domain in the cover scan (None keeps
    it). bins() returns (edges, probs): the bin edges (one array, or one per
    axis) and the bin probabilities under the normalized density. A swapped
    factory takes effect only through a replaced registry entry.
    """

    density: Callable[[], Density]
    cover: Callable[[], BlockSet]
    probe_bounds: tuple[tuple[float, float], ...] | None
    bins: Callable[[], tuple]


TARGETS = {
    "arcsine-mod": Target(
        density=arcsine_modulated_density,
        cover=arcsine_modulated_blockset,
        probe_bounds=None,
        bins=_arcsine_modulated_bins,
    ),
    "gauss-mix-2d": Target(
        density=gauss_mixture_density,
        cover=gauss_mixture_blockset,
        probe_bounds=None,
        bins=_gauss_mixture_bins,
    ),
    "half-normal-zigg": Target(
        density=half_normal_density,
        cover=half_normal_ziggurat_blockset,
        probe_bounds=((0.0, HALF_NORMAL_PROBE_HI),),
        bins=_half_normal_bins,
    ),
}
