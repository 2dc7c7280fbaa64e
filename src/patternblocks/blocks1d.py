"""One-dimensional block constructors.

Three families: axis-aligned rectangles, scaled-envelope strips sampled by
inverse CDF (for densities with singular factors), and the equal-area
ziggurat layout over a strictly decreasing density, whose stacked rectangle
layers plus composite base block reproduce the classical ziggurat sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import BlockSet, PatternBlock
from .rng import UniformSource

R_BRACKET = (1e-3, 20.0)  # build_ziggurat bisects the tail start r in here
X_TOL = 1e-12  # implied x_0 that ends the bisection
AREA_TOL = 1e-11  # top-layer area residual that ends it too
MAX_BISECTIONS = 200


class ZigguratError(RuntimeError):
    """Equal-area bisection failed to converge."""


def rect_block(
    x_lo: float, x_hi: float, y_lo: float, y_hi: float, label: str = ""
) -> PatternBlock:
    """Rectangle [x_lo, x_hi] x [y_lo, y_hi] with the obvious affine sampler.

    Draw order per sample: one uniform for x, one for y.
    """
    if not x_lo < x_hi:
        raise ValueError("need x_lo < x_hi")
    if not 0.0 <= y_lo < y_hi:
        raise ValueError("need 0 <= y_lo < y_hi")
    width = x_hi - x_lo
    height = y_hi - y_lo
    measure = width * height

    def sample(source: UniformSource):
        x = x_lo + width * source.next_unit()
        y = y_lo + height * source.next_unit()
        return (x,), y

    def contains(point, y):
        return x_lo <= point[0] <= x_hi and y_lo <= y <= y_hi

    return PatternBlock(measure, sample, contains, label or "rect", height_band=(y_lo, y_hi))


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
    under-the-graph comparison.
    """
    if not a_lo < a_hi:
        raise ValueError("need a_lo < a_hi")
    if b <= 0.0:
        raise ValueError("scale b must be positive")
    cdf_lo = envelope_cdf(a_lo)
    span = envelope_cdf(a_hi) - cdf_lo
    measure = b * span

    def sample(source: UniformSource):
        v = envelope_cdf_inv(cdf_lo + span * source.next_unit())
        w = b * envelope_pdf(v) * source.next_unit()
        return (v,), w

    def contains(point, y):
        x = point[0]
        return a_lo <= x <= a_hi and 0.0 <= y <= b * envelope_pdf(x)

    return PatternBlock(measure, sample, contains, label or "envelope")


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
    tail_mass_at_r: float
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
    down from r must land on x_0 = 0. Convergence accepts an implied x_0
    within X_TOL, or a top-layer area residual x_1 * |f(0) - y_0| below
    AREA_TOL: for densities with a flat peak (f'(0) = 0) the x-space
    residual floors near sqrt(machine eps), so the area residual is the
    criterion that actually guards the equal-area invariant. f must
    integrate to 1 on [0, inf) and f_inv invert it; tail_sampler is the
    layout's (see ZigguratLayout).
    """
    if n_layers < 2:
        raise ValueError("need at least 2 layers")
    f0 = f(0.0)

    def walk(r: float):
        """(xs descending to x1, implied x0, v, implied y0), None on overshoot."""
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
        return xs, f_inv(y0), v, y0

    lo, hi = R_BRACKET
    if walk(lo) is not None:
        raise ZigguratError(f"lower end r = {lo} does not overshoot; check f and tail_mass")
    result = walk(hi)
    if result is None:
        raise ZigguratError(f"upper end r = {hi} overshoots; check f and tail_mass")

    for _ in range(MAX_BISECTIONS):
        xs, x0, v, y0 = result
        if x0 <= X_TOL or xs[-1] * (f0 - y0) <= AREA_TOL:
            xs.append(0.0)
            xs.reverse()
            f_vals = tuple(f(x) for x in xs)
            return ZigguratLayout(
                tuple(xs), f_vals, v, tail_mass(xs[-1]), tail_sampler
            )
        mid = 0.5 * (lo + hi)
        attempt = walk(mid)
        if attempt is None:
            lo = mid
        else:
            hi = mid
            result = attempt
        if hi - lo < 4.0 * math.ulp(hi):
            break
    xs, x0, v, y0 = result
    raise ZigguratError(
        f"bisection did not converge; residual x0 = {x0:.3e}, "
        f"top-layer area residual = {xs[-1] * (f0 - y0):.3e}"
    )


def ziggurat_base_block(layout: ZigguratLayout, f: Callable[[float], float]) -> PatternBlock:
    """Composite base: rectangle under f(r) on [0, r] plus the whole tail.

    With probability r f(r) / v the sampler picks the rectangle uniformly;
    otherwise x comes from the exact tail sampler and the height is uniform
    on [0, f(x)]. Both parts lie under the graph except for the rectangle's
    spillover above f on [0, r], which the generic acceptance test handles.
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

    def contains(point, y):
        x = point[0]
        if x < 0.0 or y < 0.0:
            return False
        if x <= r and y <= f_r:
            return True
        return x >= r and y <= f(x)

    return PatternBlock(v, sample, contains, "base", height_band=(0.0, f_r))


def ziggurat_blockset(layout: ZigguratLayout, f: Callable[[float], float]) -> BlockSet:
    """All rectangle layers plus the base block, top layer first."""
    x, f_at_x = layout.x, layout.f_at_x
    blocks = [
        rect_block(0.0, x[i], f_at_x[i], f_at_x[i - 1], f"layer {i}")
        for i in range(1, layout.n_layers)
    ]
    blocks.append(ziggurat_base_block(layout, f))
    return BlockSet(blocks)
