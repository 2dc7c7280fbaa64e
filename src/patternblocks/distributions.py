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
ARCSINE_NODES = 8  # Gauss-Legendre nodes of arcsine_modulated_mass


def arcsine_pdf(x):
    """Beta(1/2, 1/2) density 1 / (pi sqrt(x (1 - x))); +inf at 0 and 1 and
    outside [0, 1]. On a Python float or a numpy array: sqrt, products and
    quotients are correctly rounded in math and numpy alike, so both give
    the same bits."""
    t = x * (1.0 - x)
    if isinstance(t, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(t > 0.0, 1.0 / (math.pi * np.sqrt(t)), math.inf)
    return 1.0 / (math.pi * math.sqrt(t)) if t > 0.0 else math.inf


def arcsine_cdf(x: float) -> float:
    """(2 / pi) arcsin(sqrt(x)) on [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("arcsine_cdf domain is [0, 1]")
    return (2.0 / math.pi) * math.asin(math.sqrt(x))


def arcsine_cdf_inv(p):
    """sin^2(pi p / 2) on [0, 1], with np.sin, on a float or a numpy array;
    avoids cancellation near the endpoints."""
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError("arcsine_cdf_inv domain is [0, 1]")
    s = np.sin(0.5 * math.pi * p)
    return s * s  # not s ** 2: on a numpy scalar, that is pow, off by an ulp at times


def modulation(x):
    """1 + sin(8 pi x), the factor shaping the arcsine envelope, on a numpy
    array."""
    return 1.0 + np.sin(8.0 * math.pi * x)


def arcsine_modulated_pdf(x):
    """Target density: modulation(x) * arcsine_pdf(x) on (0, 1), else 0, on
    a numpy array."""
    with np.errstate(invalid="ignore"):
        return np.where((x <= 0.0) | (x >= 1.0), 0.0, modulation(x) * arcsine_pdf(x))


def arcsine_modulated_density() -> Density:
    # total mass is exactly 1: the sine term integrates to zero against the
    # arcsine weight (antisymmetry under x -> 1 - x of the odd harmonic)
    return Density(
        dim=1,
        evaluate=lambda points: arcsine_modulated_pdf(points[:, 0]),
        domain_bounds=((0.0, 1.0),),
        K=1.0,
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
    """Integral of the modulated density over [lo, hi] in [0, 1].

    The substitution x = sin^2(theta) absorbs the arcsine weight into the
    constant 2 / pi and leaves an entire integrand, so the endpoint
    singularities never enter the quadrature and ARCSINE_NODES nodes are
    exact to rounding on each of the 64 validate bins.
    """
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("integration range must sit inside [0, 1]")
    return numeric.gauss_legendre(
        lambda theta: (2.0 / math.pi) * modulation(np.sin(theta) ** 2),
        math.asin(math.sqrt(lo)),
        math.asin(math.sqrt(hi)),
        ARCSINE_NODES,
    )


# ---------------------------------------------------------------------------
# two-component Gaussian mixture on [-4, 4]^2

MIX_COEFF = 2119.0 / 9970.0
MIX_DOMAIN = ((-4.0, 4.0), (-4.0, 4.0))
SUPERLEVEL_BOX = ((-2.0, 3.5), (-2.0, 3.5))
SUPERLEVEL_NODES = 256  # Gauss-Legendre nodes of mixture_superlevel_area


def gauss_mixture_xy(x1, x2):
    """Mixture density on numpy arrays or Python floats. A Python float x1
    takes math.exp: the superlevel block's scalar proposals pass floats,
    and np.exp costs over twice as much on one."""
    exp = math.exp if type(x1) is float else np.exp
    return MIX_COEFF * (
        exp(-x1 * x1 - x2 * x2)
        + 0.5 * exp(-((x1 - 2.0) ** 2) - (x2 - 2.0) ** 2)
    )


# Height levels of the mixture cover: the slab spans [0, B0], the superlevel
# block [B0, B1]; B2 is the density at the mode (2, 2) and B3 its maximum,
# at the origin up to the exponentially small cross term.
B0 = 1.0 / 40.0
B1 = 1.0 / 15.0
B2 = gauss_mixture_xy(2.0, 2.0)
B3 = gauss_mixture_xy(0.0, 0.0)
# (center, radius, y_lo, y_hi) of the cylinders; the first two are disjoint
MIX_DISKS = (
    ((0.0, 0.0), 1.25, B1, B2),
    ((2.0, 2.0), 1.0, B1, B2),
    ((0.0, 0.0), 1.0, B2, B3),
)


def _gauss_segment(a: float, b: float, mu: float) -> float:
    """Integral of exp(-(x - mu)^2) over [a, b], from math.erf."""
    return 0.5 * math.sqrt(math.pi) * (math.erf(b - mu) - math.erf(a - mu))


def _gauss_mixture_masses(bins: int):
    """(edges per axis, masses) of the bins x bins grid over MIX_DOMAIN.

    Each component factors over the axes, so a cell's mass is a product
    of _gauss_segment integrals.
    """
    edges = tuple(np.linspace(lo, hi, bins + 1) for lo, hi in MIX_DOMAIN)
    s0, s2 = (
        [np.array([_gauss_segment(a, b, mu) for a, b in zip(e[:-1], e[1:])]) for e in edges]
        for mu in (0.0, 2.0)
    )
    return edges, MIX_COEFF * (np.outer(*s0) + np.outer(*s2) / 2)


def gauss_mixture_density() -> Density:
    """Mixture density with its mass K in closed form, the one cell of
    _gauss_mixture_masses(1). The coefficient very nearly normalizes the
    truncated mixture: K - 1 is about 3.3e-8.
    """
    (x1_lo, x1_hi), (x2_lo, x2_hi) = MIX_DOMAIN

    def evaluate(points):
        x1, x2 = points.T
        inside = (x1_lo <= x1) & (x1 <= x1_hi) & (x2_lo <= x2) & (x2 <= x2_hi)
        return np.where(inside, gauss_mixture_xy(x1, x2), 0.0)

    return Density(
        dim=2,
        evaluate=evaluate,
        domain_bounds=MIX_DOMAIN,
        K=float(_gauss_mixture_masses(1)[1][0, 0]),
    )


def mixture_superlevel_area() -> float:
    """Area of {gauss_mixture_xy >= B0}, exact to rounding.

    The components are isotropic, of one scale and centred on the diagonal,
    so f = exp(-v^2) f(s, s) with s = (x1 + x2) / 2, v = (x2 - x1) / sqrt(2),
    and the set is the chords v^2 <= L(s) = ln(f(s, s) / B0): its area is
    2 sqrt(2) times the integral of sqrt(L) ds over [a, b], where L >= 0.
    Both ends are bisected at once to adjacent floats, and s = a + (b - a)
    sin^2(theta / 2) leaves an entire integrand for SUPERLEVEL_NODES nodes.
    L takes math's exp and log element by element (_each), which round
    alike on every host; numpy's may differ in the last bit.
    """
    (box_lo, box_hi), _ = SUPERLEVEL_BOX

    def level(s: float) -> float:
        return math.log(gauss_mixture_xy(s, s) / B0)

    def chord(theta: float) -> float:
        s = a + (b - a) * math.sin(0.5 * theta) ** 2
        return math.sqrt(level(s)) * math.sin(theta)

    # outside and inside ends of each bracket: the box corners lie below B0
    lo, hi = np.array([box_lo, box_hi]), np.array([0.0, 2.0])
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        inside = _each(level, mid) >= 0.0
        lo, hi = np.where(inside, lo, mid), np.where(inside, mid, hi)
    a, b = hi.tolist()
    # 2 sqrt(2) ds = sqrt(2) (b - a) sin(theta) dtheta
    return math.sqrt(2.0) * (b - a) * numeric.gauss_legendre(
        lambda theta: _each(chord, theta), 0.0, math.pi, SUPERLEVEL_NODES
    )


def _each(fn, x):
    """fn on each element of the array x, as a float64 array."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def gauss_mixture_blockset() -> BlockSet:
    """Slab + superlevel + three cylinders covering the mixture subgraph."""
    blocks = [
        slab_block(MIX_DOMAIN, 0.0, B0, label="slab"),
        superlevel_block(
            SUPERLEVEL_BOX, gauss_mixture_xy, B0, B1, area=mixture_superlevel_area(),
            label="superlevel",
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


def half_normal_pdf(x):
    """sqrt(2 / pi) exp(-x^2 / 2) for x >= 0, zero below, on a Python float
    or a numpy array. A float takes math.exp, an array np.exp: the floats
    build the ziggurat and give its tail heights, the arrays feed the
    density's evaluate and the base block's contains."""
    exp = math.exp if type(x) is float else np.exp
    return HALF_NORMAL_PEAK * exp(-0.5 * x * x) * (x >= 0.0)


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
        evaluate=lambda points: half_normal_pdf(points[:, 0]),
        domain_bounds=((0.0, math.inf),),
        K=1.0,
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
    edges, masses = _gauss_mixture_masses(MIX_BINS)
    return edges, masses / masses.sum()


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
