"""Core pattern block machinery.

A pattern block is a region of the (point, height) space carrying its exact
measure and an exact uniform sampler. A block set stacks blocks into an
envelope of the region under a density's graph; sampling then draws a block
by measure-weighted selection, draws a uniform point of that block, and
accepts it when the height lies under the graph. The accepted points follow
the normalized density, and the acceptance probability of each attempt is
K / nu(B), the adoption rate.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

from .rng import UniformSource

Point = tuple[float, ...]

REJECTION_CAP = 1_000_000  # consecutive rejections that end a sample_many call

VALIDATE_TOLERANCE = 1e-12  # unprobed gap under the graph; forgiven overlap fraction
OVERLAP_SEED = 0  # stream of validate_blockset's overlap probes
HEIGHT_RUNGS = 8  # cover probe heights per grid point, from 0 up to the graph


class RejectionCapError(RuntimeError):
    """Too many consecutive rejections; the block set is misconfigured
    (adoption rate effectively zero) or the restriction region unreachable."""


class DensityValueError(RuntimeError):
    """The density returned NaN or a negative value at a sampled point."""


@dataclass(frozen=True)
class Density:
    """Nonnegative target function f with its total mass K = integral of f.

    evaluate maps a point (a 1- or 2-tuple of floats) to f(x) >= 0; f / K is
    the probability density the samplers aim at. K_provenance records
    whether K is known exactly (in closed form, as for every shipped
    target) or was estimated by quadrature.
    """

    dim: int
    evaluate: Callable[[Point], float]
    domain_bounds: tuple[tuple[float, float], ...]
    K: float
    K_provenance: str = "exact"

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        if len(self.domain_bounds) != self.dim:
            raise ValueError("domain_bounds must give one (lo, hi) per axis")
        if not (self.K > 0.0 and math.isfinite(self.K)):
            raise ValueError("K must be positive and finite")
        if self.K_provenance not in ("exact", "quadrature"):
            raise ValueError("K_provenance must be 'exact' or 'quadrature'")


@dataclass(frozen=True)
class PatternBlock:
    """Region with positive finite measure and an exact uniform sampler.

    sample_uniform consumes draws from a UniformSource and returns
    ((coords...), height) distributed uniformly over the region. contains is
    the region's membership test, through which validate_blockset probes
    cover and overlap; every block must have one.

    height_band is a closed interval (lo, hi) holding every height the
    sampler returns and every height contains accepts. validate_blockset
    probes a block for overlap only against blocks whose bands meet its
    own, and fails when a sampled or accepted height falls outside the
    declaring block's band. The unbounded default never prunes a probe.
    """

    measure: float
    sample_uniform: Callable[[UniformSource], tuple[Point, float]]
    contains: Callable[[Point, float], bool]
    label: str = ""
    height_band: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if not (self.measure > 0.0 and math.isfinite(self.measure)):
            raise ValueError(f"block measure must be positive and finite, got {self.measure}")
        lo, hi = self.height_band
        if not lo <= hi:
            raise ValueError(f"height band must satisfy lo <= hi, got {self.height_band}")


def check_band(y_lo: float, y_hi: float) -> float:
    """y_hi - y_lo, after the band rule 0 <= y_lo < y_hi (NaN breaks it)."""
    if not 0.0 <= y_lo < y_hi:
        raise ValueError("need 0 <= y_lo < y_hi")
    return y_hi - y_lo


def band_block(
    area: float, sample_point: Callable, in_footprint: Callable,
    y_lo: float, y_hi: float, label: str,
) -> PatternBlock:
    """Footprint of the given area times the height band [y_lo, y_hi].

    sample_point(source) draws a uniform point of the footprint and
    in_footprint(point) tests membership in it. A sample draws the point,
    then one uniform for the height; the measure is area * (y_hi - y_lo).
    """
    band = check_band(y_lo, y_hi)

    def sample(source: UniformSource):
        return sample_point(source), y_lo + band * source.next_unit()

    def contains(point, y):
        return y_lo <= y <= y_hi and in_footprint(point)

    return PatternBlock(area * band, sample, contains, label, height_band=(y_lo, y_hi))


class BlockSet:
    """Ordered pattern blocks with cumulative selection weights.

    The weights are block measures normalized by the total; the final
    cumulative entry is forced to exactly 1.0 so selection is total on
    [0, 1) despite floating-point summation. The constructor's contract
    (callers must supply blocks that overlap only on measure-zero sets and
    jointly cover the density's subgraph) is checked statistically by
    validate_blockset, not symbolically.
    """

    def __init__(self, blocks: Sequence[PatternBlock]):
        blocks = list(blocks)
        if not blocks:
            raise ValueError("a block set needs at least one block")
        total = math.fsum(b.measure for b in blocks)
        if not math.isfinite(total):
            raise ValueError("total measure must be finite")
        cumulative = []
        acc = 0.0
        for b in blocks:
            acc += b.measure
            cumulative.append(acc / total)
        cumulative[-1] = 1.0
        self.blocks = blocks
        self.cumulative = cumulative
        self.total_measure = total

    def __len__(self) -> int:
        return len(self.blocks)


# select_block(cumulative, u): smallest index i with u < cumulative[i]; one
# always exists for u in [0, 1), as the last entry is 1.0. The sampling loop
# selects through it, so it stays an alias: a def would cost a call per attempt.
select_block = bisect_right


def exact_adoption_rate(density: Density, blockset: BlockSet) -> float:
    """K / nu(B): the probability that a single attempt is accepted."""
    return density.K / blockset.total_measure


@dataclass(frozen=True)
class CheckResult:
    status: str  # "pass" | "fail"
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    positivity: CheckResult
    cover: CheckResult
    overlap: CheckResult

    def all_passed(self) -> bool:
        return all(
            c.status == "pass" for c in (self.positivity, self.cover, self.overlap)
        )


def validate_blockset(
    blockset: BlockSet,
    density: Density,
    n_probe: int = 20_000,
    probe_bounds: Optional[tuple[tuple[float, float], ...]] = None,
) -> ValidationReport:
    """Statistical validation of the block-set contract against a density.

    Three checks:
      positivity  reports the block count and smallest measure; it always
                  passes, as PatternBlock rejects a measure that is not > 0;
      cover       on a cell-centered quasi-grid of n_probe points x, every
                  probe (x, y) lies in some block, for HEIGHT_RUNGS evenly
                  spaced heights y from 0 to f(x) - VALIDATE_TOLERANCE;
      overlap     Monte Carlo: uniform samples of each block must not land
                  in any other block (pairwise intersections have measure
                  zero, so interior double-hits indicate real overlap).

    Cover and overlap ask the blocks' required membership tests, so every
    check ends "pass" or "fail". probe_bounds replaces
    density.domain_bounds for the cover grid and must be given when the
    domain is unbounded.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be at least 1")

    measures = [b.measure for b in blockset.blocks]
    positivity = CheckResult("pass", f"{len(measures)} blocks, min measure {min(measures):.6g}")

    bounds = probe_bounds if probe_bounds is not None else density.domain_bounds
    if not all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in bounds):
        raise ValueError("cover probing needs finite probe_bounds for unbounded domains")

    cover = _cover_check(blockset, density, bounds, n_probe)
    overlap = _overlap_check(blockset, n_probe)
    return ValidationReport(positivity, cover, overlap)


def _probe_points(bounds, n_probe):
    # cell midpoints of a grid with per_axis cells on each axis, first axis outermost
    per_axis = n_probe if len(bounds) == 1 else math.isqrt(n_probe)
    return product(*(
        [lo + (k + 0.5) * ((hi - lo) / per_axis) for k in range(per_axis)]
        for lo, hi in bounds
    ))


def _cover_check(blockset, density, bounds, n_probe):
    # Each rung remembers the block that last covered it and asks that
    # block first: probes walk the grid in order, so a rung's height
    # moves slowly and the hint nearly always hits. Whether some block
    # covers a probe does not depend on the order the blocks are asked in.
    blocks = blockset.blocks
    tests = [b.contains for b in blocks]
    evaluate = density.evaluate
    top = HEIGHT_RUNGS - 1
    hints = [0] * HEIGHT_RUNGS
    violations = 0
    missed = set()  # rungs with an uncovered probe
    checked = 0
    for point in _probe_points(bounds, n_probe):
        fx = evaluate(point)
        if not (fx > VALIDATE_TOLERANCE) or math.isinf(fx):
            continue
        for j in range(HEIGHT_RUNGS):
            y = (fx - VALIDATE_TOLERANCE) * j / top
            checked += 1
            hit = hints[j]
            if not tests[hit](point, y):
                hit = next(
                    (k for k, test in enumerate(tests) if k != hit and test(point, y)),
                    None,
                )
                if hit is None:
                    violations += 1
                    missed.add(j)
                    continue
                hints[j] = hit
            lo, hi = blocks[hit].height_band
            if y < lo or y > hi:
                return CheckResult(
                    "fail", f"{_block_name(blocks, hit)} contains height {y!r} "
                    f"outside its height band [{lo!r}, {hi!r}]"
                )
    if violations == 0:
        return CheckResult("pass", f"{checked} probes, 0 uncovered")
    return CheckResult(
        "fail", f"{violations} of {checked} probes uncovered, at heights "
        f"[{min(missed) / top:.3g}, {max(missed) / top:.3g}] * f(x)"
    )


def _overlap_check(blockset, n_probe):
    # A block can only contain heights inside its band, so each block is
    # probed only against the blocks whose bands meet its own.
    blocks = blockset.blocks
    if len(blocks) == 1:
        return CheckResult("pass", "single block")
    bands = [b.height_band for b in blocks]
    source = UniformSource(OVERLAP_SEED)
    per_block = max(100, n_probe // len(blocks))
    total = blockset.total_measure
    hits = 0
    weighted = 0.0
    for i, block in enumerate(blocks):
        lo, hi = bands[i]
        others = [
            b.contains for j, b in enumerate(blocks)
            if j != i and bands[j][0] <= hi and lo <= bands[j][1]
        ]
        block_hits = 0
        for _ in range(per_block):
            point, y = block.sample_uniform(source)
            if y < lo or y > hi:
                return CheckResult(
                    "fail", f"{_block_name(blocks, i)} sampled height {y!r} "
                    f"outside its height band [{lo!r}, {hi!r}]"
                )
            for contains in others:
                if contains(point, y):
                    block_hits += 1
        hits += block_hits
        # ordered-pair estimate of nu(B_i n B_j); halved below for i < j sums
        weighted += block.measure * block_hits / per_block
    estimate = weighted / (2.0 * total)
    if estimate <= VALIDATE_TOLERANCE:
        return CheckResult("pass", f"{per_block} probes/block, {hits} double-hits")
    return CheckResult(
        "fail", f"{hits} double-hits, overlap fraction estimate {estimate:.3e}"
    )


def _block_name(blocks, i):
    return f"block {i} ({blocks[i].label!r})"


class PatternBlockSampler:
    """Accept/reject sampler over a validated block set.

    Each attempt draws one selection uniform, picks a block with
    select_block, samples that block uniformly, and accepts when the height
    lies under the density graph (inclusive comparison; the boundary has
    measure zero, the choice is fixed for determinism). attempts counts
    loop iterations and accepted counts returned samples, so accepted /
    attempts estimates the adoption rate. A rejected attempt whose density
    value is NaN or negative raises DensityValueError; REJECTION_CAP
    consecutive rejections within one sample raise RejectionCapError.
    empirical_rate is None before the first attempt. One sampler per
    thread; the underlying source must not be shared.
    """

    def __init__(self, density: Density, blockset: BlockSet, source: UniformSource):
        self.density = density
        self.blockset = blockset
        self.source = source
        self.attempts = 0
        self.accepted = 0

    def sample_one(self) -> Point:
        return self.sample_many(1)[0]

    def sample_many(self, n: int) -> list[Point]:
        """n accepted points; the counters stay exact when an error stops
        the batch part way."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        evaluate = self.density.evaluate
        blocks = self.blockset.blocks
        cumulative = self.blockset.cumulative
        select = select_block
        source = self.source
        next_unit = source.next_unit
        cap = REJECTION_CAP
        points = []
        append = points.append
        attempts = 0
        try:
            for _ in range(n):
                consecutive = 0
                while True:
                    block = blocks[select(cumulative, next_unit())]
                    point, w = block.sample_uniform(source)
                    attempts += 1
                    fx = evaluate(point)
                    if w <= fx:
                        break
                    if not fx >= 0.0:
                        raise DensityValueError(
                            f"density is {fx!r} at {point!r}; it must be nonnegative, not NaN"
                        )
                    consecutive += 1
                    if consecutive >= cap:
                        raise RejectionCapError(
                            f"{consecutive} consecutive rejections; "
                            "block set does not match the density"
                        )
                append(point)
        finally:
            self.attempts += attempts
            self.accepted += len(points)
        return points

    @property
    def empirical_rate(self) -> Optional[float]:
        return self.accepted / self.attempts if self.attempts else None
