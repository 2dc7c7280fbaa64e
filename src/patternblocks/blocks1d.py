"""One-dimensional block constructors.

Three families: rectangles (core.band_block over an interval),
scaled-envelope strips sampled by inverse CDF (for densities with singular
factors), and the equal-area ziggurat layout over a strictly decreasing
density, whose stacked rectangle layers plus composite base block
reproduce the classical ziggurat sampler. Rectangles and strips carry
array kernels, each written once for floats and arrays: the strips'
inverse CDF and envelope take numpy arrays whole. The ziggurat base's
kernel samples its rectangle part on arrays and hands only its tail
attempts (a few a round) to its scalar sampler, through core's adapter,
which reports the overflow units each of them read; the rectangle
attempts read none. Every membership test is one formula for floats and
arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import BlockSet, Kernel, PatternBlock, _adapter, band_block, formula_footprint
from .rng import UniformSource

R_BRACKET = (1e-3, 20.0)  # build_ziggurat bisects the tail start r in here
AREA_TOL = 1e-11  # top-layer area residual that ends the bisection


class ZigguratError(RuntimeError):
    """Equal-area bisection failed to converge."""


def _interval_point(x_lo, width, u):
    return (x_lo + width * u,)


def rect_block(
    x_lo: float, x_hi: float, y_lo: float, y_hi: float, label: str = ""
) -> PatternBlock:
    """Rectangle [x_lo, x_hi] x [y_lo, y_hi], the band block over an interval.

    Draw order per sample: one uniform for y, one for x.
    """
    if not x_lo < x_hi:
        raise ValueError("need x_lo < x_hi")
    width = x_hi - x_lo
    sample_point, footprint = formula_footprint(_interval_point, (x_lo, width), 1)
    return band_block(
        width, sample_point, lambda point: (x_lo <= point[0]) & (point[0] <= x_hi),
        y_lo, y_hi, label or "rect", footprint,
    )


def envelope_block(
    a_lo: float,
    a_hi: float,
    b: float,
    envelope_pdf: Callable[[float], float],
    envelope_cdf: Callable[[float], float],
    envelope_cdf_inv: Callable[[float], float],
    label: str = "",
) -> PatternBlock:
    """Region under b * envelope_pdf on the strip [a_lo, a_hi].

    The x-marginal is the envelope distribution restricted to the strip,
    sampled exactly through the inverse CDF; the height is then uniform on
    [0, b * envelope_pdf(x)]. Measure is b * (cdf(a_hi) - cdf(a_lo)). The
    envelope pdf may blow up at strip endpoints: those points are hit with
    probability zero, and an infinite height simply loses the later
    under-the-graph comparison. Draw order per sample: x, then the height.
    envelope_pdf and envelope_cdf_inv are called on floats (by the scalar
    sampler) and on numpy arrays (by the kernel, and contains for the pdf),
    and must round alike on both; the cdf is called on floats only.
    """
    if not a_lo < a_hi:
        raise ValueError("need a_lo < a_hi")
    if b <= 0.0:
        raise ValueError("scale b must be positive")
    cdf_lo = envelope_cdf(a_lo)
    span = envelope_cdf(a_hi) - cdf_lo
    measure = b * span

    def sample(source: UniformSource):
        return _strip_point(
            envelope_pdf, envelope_cdf_inv, cdf_lo, span, b, source.next_unit(), source.next_unit()
        )

    def contains(point, y):
        x = point[0]
        return (a_lo <= x) & (x <= a_hi) & (0.0 <= y) & (y <= b * envelope_pdf(x))

    kernel = Kernel(_strip_sample(envelope_pdf, envelope_cdf_inv), (cdf_lo, span, b))
    return PatternBlock(measure, sample, contains, label or "envelope", kernel=kernel)


def _strip_point(pdf, cdf_inv, cdf_lo, span, b, u, t):
    v = cdf_inv(cdf_lo + span * u)
    return (v,), b * pdf(v) * t


@functools.lru_cache(maxsize=64)
def _strip_sample(pdf, cdf_inv):
    """Kernel sample of the strips under one envelope (bounded cache, as
    core's kernel factories)."""

    def sample(params, units, overflow):
        cdf_lo, span, b = params.T
        coords, heights = _strip_point(pdf, cdf_inv, cdf_lo, span, b, units[:, 0], units[:, 1])
        return coords, heights, None

    return sample


@dataclass(frozen=True)
class ZigguratLayout:
    """Equal-area ziggurat abscissas for a strictly decreasing unit-mass f.

    x holds 0 = x[0] < x[1] < ... < x[n_layers-1]; every rectangle layer
    [0, x[i]] x [f(x[i]), f(x[i-1])] has the common area layer_area, and so
    does the base block (rectangle under f(x[-1]) plus the whole tail).
    tail_sampler(r, source) is required and must draw exactly from f
    restricted to [r, inf): the base block samples the tail through it.
    """

    x: tuple[float, ...]
    f_at_x: tuple[float, ...]
    layer_area: float
    tail_sampler: Callable[[float, UniformSource], float]

    @property
    def n_layers(self) -> int:
        return len(self.x)


def build_ziggurat(
    f: Callable[[float], float],
    n_layers: int,
    tail_mass: Callable[[float], float],
    f_inv: Callable[[float], float],
    tail_sampler: Callable[[float, UniformSource], float],
) -> ZigguratLayout:
    """Equal-area layout for a density strictly decreasing on (0, inf).

    Bisects on r = x[-1] within R_BRACKET: the common area is
    v = r f(r) + tail_mass(r), and walking x_{i-1} = f_inv(f(x_i) + v / x_i)
    down from r must land on x_0 = 0. The bisection stops when the top
    layer's area residual x_1 * (f(0) - y_0) is at most AREA_TOL (1e-11):
    that residual is the equal-area invariant itself, whether or not the
    peak is flat. It raises ZigguratError only when the bracket has shrunk
    below 4 ulp of r, after judging the last layout: within about 65
    halvings, where the half-normal meets AREA_TOL within 45. f must
    integrate to 1 on [0, inf) and f_inv invert it; tail_sampler is the
    layout's (see ZigguratLayout).
    """
    if n_layers < 2:
        raise ValueError("need at least 2 layers")
    f0 = f(0.0)

    def walk(r: float):
        """(xs descending to x1, v, implied y0), None on overshoot."""
        v = r * f(r) + tail_mass(r)
        xs = [r]
        y = f(r)
        for _ in range(n_layers - 2):
            y = y + v / xs[-1]
            if y >= f0:
                return None
            xs.append(f_inv(y))
        y0 = y + v / xs[-1]
        if y0 > f0:
            return None
        return xs, v, y0

    lo, hi = R_BRACKET
    if walk(lo) is not None:
        raise ZigguratError(f"lower end r = {lo} does not overshoot; check f and tail_mass")
    result = walk(hi)
    if result is None:
        raise ZigguratError(f"upper end r = {hi} overshoots; check f and tail_mass")

    while True:
        xs, v, y0 = result
        if xs[-1] * (f0 - y0) <= AREA_TOL:
            xs = (0.0, *reversed(xs))
            return ZigguratLayout(xs, tuple(f(x) for x in xs), v, tail_sampler)
        if hi - lo < 4.0 * math.ulp(hi):
            raise ZigguratError(
                f"bisection did not converge; top-layer area residual = {xs[-1] * (f0 - y0):.3e}"
            )
        mid = 0.5 * (lo + hi)
        attempt = walk(mid)
        if attempt is None:
            lo = mid
        else:
            hi = mid
            result = attempt


def ziggurat_base_block(layout: ZigguratLayout, f: Callable[[float], float]) -> PatternBlock:
    """Composite base: rectangle under f(r) on [0, r] plus the whole tail.

    With probability r f(r) / v the sampler picks the rectangle uniformly;
    otherwise x comes from the exact tail sampler and the height is uniform
    on [0, f(x)]. Both parts lie under the graph except for the rectangle's
    spillover above f on [0, r], which the generic acceptance test handles.
    contains calls f on numpy arrays as well as on floats. The kernel takes
    the rectangle branch on arrays, and runs the scalar sampler on the tail
    attempts alone.
    """
    r = layout.x[-1]
    f_r = layout.f_at_x[-1]
    v = layout.layer_area
    p_rect = r * f_r / v
    tail_sampler = layout.tail_sampler

    def sample(source: UniformSource):
        if source.next_unit() < p_rect:
            x = r * source.next_unit()
            y = f_r * source.next_unit()
        else:
            x = tail_sampler(r, source)
            y = f(x) * source.next_unit()
        return (x,), y

    tail = _adapter(sample)

    def rect_or_tail(params, units, overflow):
        x = r * units[:, 1]
        y = f_r * units[:, 2]
        rows = np.flatnonzero(units[:, 0] >= p_rect)
        if not rows.size:
            return (x,), y, None
        used = np.zeros(len(x), np.int64)
        (x[rows],), y[rows], used[rows] = tail(params.take(rows, 0), units.take(rows, 0), overflow)
        return (x,), y, used

    def contains(point, y):
        x = point[0]
        under = ((x <= r) & (y <= f_r)) | ((x >= r) & (y <= f(x)))
        return (x >= 0.0) & (y >= 0.0) & under

    return PatternBlock(v, sample, contains, "base", (0.0, f_r), Kernel(rect_or_tail))


def ziggurat_blockset(layout: ZigguratLayout, f: Callable[[float], float]) -> BlockSet:
    """All rectangle layers plus the base block, top layer first."""
    x, f_at_x = layout.x, layout.f_at_x
    blocks = [
        rect_block(0.0, x[i], f_at_x[i], f_at_x[i - 1], f"layer {i}")
        for i in range(1, layout.n_layers)
    ]
    blocks.append(ziggurat_base_block(layout, f))
    return BlockSet(blocks)
