"""Two-dimensional block constructors.

Each is a band block (core.band_block), defined by its footprint's area,
uniform point sampler and membership test; a sample draws the height
first, then the point. Slabs stand on a rectangle, superlevel blocks
restrict a bounding-box sampler to {f >= y_lo} by inner rejection, with
the exact area their caller computes, and cylinders stand on disks
sampled in polar coordinates via the closed-form radial inverse CDF
r = d * sqrt(u). Each footprint formula is written once
and serves the scalar sampler and the array kernel; the disk takes numpy's
sqrt, cos and sin on floats and arrays alike. Each membership test is
likewise one formula for floats and arrays.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .core import Kernel, PatternBlock, RejectionCapError, band_block, formula_footprint
from .numeric import Rect
from .rng import UniformSource

INNER_CAP = 1_000_000  # box proposals one superlevel sample may spend
OVERFLOW_BATCH = 1 << 16  # most box proposals a superlevel kernel draws at a time


def _box_point(x1_lo, w1, x2_lo, w2, u1, u2):
    return x1_lo + w1 * u1, x2_lo + w2 * u2


def _in_rect(rect, point):
    (x1_lo, x1_hi), (x2_lo, x2_hi) = rect
    x1, x2 = point
    return (x1_lo <= x1) & (x1 <= x1_hi) & (x2_lo <= x2) & (x2 <= x2_hi)


def _disk_point(c1, c2, radius, u_r, u_t):
    r = radius * np.sqrt(u_r)
    theta = 2.0 * math.pi * u_t
    return c1 + r * np.cos(theta), c2 + r * np.sin(theta)


def slab_block(rect: Rect, y_lo: float, y_hi: float, label: str = "") -> PatternBlock:
    """Full rectangle footprint times the height band [y_lo, y_hi].

    Draw order per sample: height, x1, x2.
    """
    (x1_lo, x1_hi), (x2_lo, x2_hi) = rect
    if not (x1_lo < x1_hi and x2_lo < x2_hi):
        raise ValueError("degenerate footprint rectangle")
    w1 = x1_hi - x1_lo
    w2 = x2_hi - x2_lo
    sample_point, footprint = formula_footprint(_box_point, (x1_lo, w1, x2_lo, w2), 2)
    return band_block(
        w1 * w2, sample_point, functools.partial(_in_rect, rect), y_lo, y_hi,
        label or "slab", footprint,
    )


def cylinder_block(
    center: tuple[float, float],
    radius: float,
    y_lo: float,
    y_hi: float,
    label: str = "",
) -> PatternBlock:
    """Disk of the given radius times the height band, sampled in polar form.

    Radius comes from r = radius * sqrt(u) (the area-uniform radial law),
    the angle is uniform on [0, 2*pi). Draw order: height, radius, angle.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    c1, c2 = center
    r2 = radius * radius
    sample_point, footprint = formula_footprint(_disk_point, (c1, c2, radius), 2)

    def in_disk(point):
        dx = point[0] - c1
        dy = point[1] - c2
        return dx * dx + dy * dy <= r2

    return band_block(
        math.pi * radius * radius, sample_point, in_disk, y_lo, y_hi,
        label or "cylinder", footprint,
    )


def superlevel_block(
    bounding_rect: Rect,
    f_xy: Callable,
    y_lo: float,
    y_hi: float,
    area: float,
    label: str = "",
) -> PatternBlock:
    """Superlevel set {f_xy >= y_lo} within bounding_rect, times the height
    band [y_lo, y_hi].

    The level is the band's floor, as in the paper's block {f >= b0} x
    [b0, b1]. area is the footprint's exact area, which the caller
    supplies, as for band_block. The footprint is the box intersected with
    the set, and contains tests both, so validate_blockset's cover check
    fails when the box clips the set. f_xy is called on numpy arrays (the
    kernel's proposals, contains in validate_blockset) and on Python
    floats (the scalar sampler's proposals). The constructor never calls it.

    The sampler draws box-uniform candidates until one clears the level
    (the conditional-distribution restriction); those inner retries are
    invisible to the outer accept/reject attempt counting, and INNER_CAP
    misses in a row raise RejectionCapError. Draw order per sample: the
    height, then (x1, x2) pairs until accepted. In a sampling round the
    first pair comes from the attempt's slot; the kernel then hands the
    j-th pair of the block's overflow stream that clears the level to the
    j-th attempt whose slot pair missed, in attempt order, which is what
    the scalar sampler reads attempt by attempt.
    """
    (x1_lo, x1_hi), (x2_lo, x2_hi) = bounding_rect
    if not (x1_lo < x1_hi and x2_lo < x2_hi):
        raise ValueError("degenerate bounding rectangle")
    w1 = x1_hi - x1_lo
    w2 = x2_hi - x2_lo

    def sample_point(source: UniformSource):
        for _ in range(INNER_CAP):
            x1, x2 = _box_point(x1_lo, w1, x2_lo, w2, source.next_unit(), source.next_unit())
            if f_xy(x1, x2) >= y_lo:
                return x1, x2
        _exhausted()

    def restricted(params, units, overflow):
        x1, x2 = _box_point(x1_lo, w1, x2_lo, w2, units[:, 0], units[:, 1])
        missed = np.flatnonzero(~(f_xy(x1, x2) >= y_lo))
        if not missed.size:
            return (x1, x2), None
        cap = INNER_CAP
        found = []  # (x1, x2, overflow units its attempt read) of the pairs that clear
        wanted = missed.size
        read = last = 0  # overflow pairs read, and read through the last pair that cleared
        while wanted:
            batch = min(OVERFLOW_BATCH, math.ceil(1.1 * wanted * w1 * w2 / area) + 16)
            u = overflow.units(2 * batch)
            b1, b2 = _box_point(x1_lo, w1, x2_lo, w2, u[0::2], u[1::2])
            cleared = np.flatnonzero(f_xy(b1, b2) >= y_lo)[:wanted]
            through = read + 1 + cleared
            # an attempt spends its slot pair, then the pairs since the last one that cleared
            gaps = np.diff(through, prepend=last)
            found.append((b1[cleared], b2[cleared], 2 * gaps))
            read += batch
            wanted -= cleared.size
            if cleared.size:
                last = int(through[-1])
            if np.any(gaps >= cap) or (wanted and 1 + read - last >= cap):
                _exhausted()
        used = np.zeros(len(x1), np.int64)
        x1[missed], x2[missed], used[missed] = (np.concatenate(parts) for parts in zip(*found))
        return (x1, x2), used

    def in_superlevel(point):
        return _in_rect(bounding_rect, point) & (f_xy(point[0], point[1]) >= y_lo)

    return band_block(
        area, sample_point, in_superlevel, y_lo, y_hi, label or "superlevel", Kernel(restricted)
    )


def _exhausted():
    raise RejectionCapError(
        f"restriction sampler exhausted {INNER_CAP} proposals; "
        "level and bounding box are inconsistent"
    )
