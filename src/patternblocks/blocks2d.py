"""Two-dimensional block constructors.

Slabs cover a full rectangle at a height band, superlevel blocks restrict a
bounding-box sampler to {f >= level} by inner rejection, and cylinder
blocks sit over disks sampled in polar coordinates via the closed-form
radial inverse CDF r = d * sqrt(u).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import PatternBlock, RejectionCapError
from .numeric import Rect, quad_2d_grid
from .rng import UniformSource

DEFAULT_INNER_CAP = 1_000_000


def slab_block(rect: Rect, y_lo: float, y_hi: float, label: str = "") -> PatternBlock:
    """Full rectangle footprint times the height band [y_lo, y_hi].

    Draw order per sample: x1, x2, height.
    """
    (x1_lo, x1_hi), (x2_lo, x2_hi) = rect
    if not (x1_lo < x1_hi and x2_lo < x2_hi):
        raise ValueError("degenerate footprint rectangle")
    if not 0.0 <= y_lo < y_hi:
        raise ValueError("need 0 <= y_lo < y_hi")
    w1 = x1_hi - x1_lo
    w2 = x2_hi - x2_lo
    band = y_hi - y_lo
    measure = w1 * w2 * band

    def sample(source: UniformSource):
        x1 = x1_lo + w1 * source.next_unit()
        x2 = x2_lo + w2 * source.next_unit()
        y = y_lo + band * source.next_unit()
        return (x1, x2), y

    def contains(point, y):
        x1, x2 = point
        return (
            x1_lo <= x1 <= x1_hi
            and x2_lo <= x2 <= x2_hi
            and y_lo <= y <= y_hi
        )

    return PatternBlock(measure, sample, contains, label or "slab", height_band=(y_lo, y_hi))


def cylinder_block(
    center: tuple[float, float],
    radius: float,
    y_lo: float,
    y_hi: float,
    label: str = "",
) -> PatternBlock:
    """Disk of the given radius times the height band, sampled in polar form.

    Radius comes from r = radius * sqrt(u) (the area-uniform radial law),
    the angle is uniform on [0, 2*pi). Draw order: radius, angle, height.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if not y_lo < y_hi:
        raise ValueError("need y_lo < y_hi")
    c1, c2 = center
    band = y_hi - y_lo
    measure = math.pi * radius * radius * band
    r2 = radius * radius

    def sample(source: UniformSource):
        r = radius * math.sqrt(source.next_unit())
        theta = 2.0 * math.pi * source.next_unit()
        y = y_lo + band * source.next_unit()
        return (c1 + r * math.cos(theta), c2 + r * math.sin(theta)), y

    def contains(point, y):
        dx = point[0] - c1
        dy = point[1] - c2
        return dx * dx + dy * dy <= r2 and y_lo <= y <= y_hi

    return PatternBlock(
        measure, sample, contains, label or "cylinder", height_band=(y_lo, y_hi)
    )


def superlevel_block(
    level: float,
    bounding_rect: Rect,
    f_xy: Callable,
    y_lo: float,
    y_hi: float,
    cells_per_axis: int = 2000,
    domain_rect: Rect | None = None,
    inner_cap: int = DEFAULT_INNER_CAP,
    label: str = "",
) -> PatternBlock:
    """Superlevel set {f_xy >= level} times the height band [y_lo, y_hi].

    The footprint area is computed once at construction by midpoint-grid
    quadrature of the indicator over bounding_rect (deterministic, so the
    selection weights carry no seed dependence). f_xy must accept numpy
    arrays. When domain_rect is given, a grid scan asserts that nothing
    outside bounding_rect reaches the level, i.e. the box really contains
    the superlevel set.

    The sampler draws box-uniform candidates until one clears the level
    (the conditional-distribution restriction); those inner retries are
    invisible to the outer accept/reject attempt counting. Draw order per
    sample: (x1, x2) pairs until accepted, then the height.
    """
    if not y_lo < y_hi:
        raise ValueError("need y_lo < y_hi")
    (x1_lo, x1_hi), (x2_lo, x2_hi) = bounding_rect
    if not (x1_lo < x1_hi and x2_lo < x2_hi):
        raise ValueError("degenerate bounding rectangle")

    def indicator(a, b):
        return (f_xy(a, b) >= level).astype(float)

    area = quad_2d_grid(indicator, bounding_rect, cells_per_axis).value
    if domain_rect is not None:
        _assert_box_adequate(level, bounding_rect, f_xy, domain_rect, cells_per_axis)

    band = y_hi - y_lo
    measure = area * band
    if not measure > 0.0:
        raise ValueError("superlevel set has zero area at this resolution")
    w1 = x1_hi - x1_lo
    w2 = x2_hi - x2_lo

    def sample(source: UniformSource):
        for _ in range(inner_cap):
            x1 = x1_lo + w1 * source.next_unit()
            x2 = x2_lo + w2 * source.next_unit()
            if f_xy(x1, x2) >= level:
                y = y_lo + band * source.next_unit()
                return (x1, x2), y
        raise RejectionCapError(
            f"restriction sampler exhausted {inner_cap} proposals; "
            "level and bounding box are inconsistent"
        )

    def contains(point, y):
        return y_lo <= y <= y_hi and f_xy(point[0], point[1]) >= level

    return PatternBlock(
        measure, sample, contains, label or "superlevel", height_band=(y_lo, y_hi)
    )


def _assert_box_adequate(level, bounding_rect, f_xy, domain_rect, cells_per_axis):
    (bx_lo, bx_hi), (by_lo, by_hi) = bounding_rect
    (dx_lo, dx_hi), (dy_lo, dy_hi) = domain_rect
    n = cells_per_axis
    hx = (dx_hi - dx_lo) / n
    hy = (dy_hi - dy_lo) / n
    ys = dy_lo + hy * (np.arange(n) + 0.5)
    chunk = max(1, 4_000_000 // n)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        xs = dx_lo + hx * (np.arange(start, stop) + 0.5)
        vals = f_xy(xs[:, None], ys[None, :])
        outside = (
            (xs[:, None] < bx_lo)
            | (xs[:, None] > bx_hi)
            | (ys[None, :] < by_lo)
            | (ys[None, :] > by_hi)
        )
        if bool(np.any(outside & (vals >= level))):
            raise ValueError(
                "superlevel set leaks outside the bounding rectangle"
            )
