"""Core pattern block machinery.

A pattern block is a region of the (point, height) space carrying its exact
measure and an exact uniform sampler. A block set stacks blocks into an
envelope of the region under a density's graph; sampling then draws a block
by measure-weighted selection, draws a uniform point of that block, and
accepts it when the height lies under the graph. The accepted points follow
the normalized density, and the acceptance probability of each attempt is
K / nu(B), the adoption rate.

PatternBlockSampler runs attempts in numpy rounds. Attempt k reads the
fixed slot of rng.SLOT main-stream units: its selection unit, then the
units of its block. A block that needs more reads its own overflow stream
(UniformSource.overflow). A round selects its blocks through a guide table
(Chen and Asau 1974) in O(1) per attempt, with the index select_block
gives. Every block kind samples all of a round's attempts in one call of
its Kernel, on arrays gathered with take; a block without one runs its
scalar sample_uniform attempt by attempt through one adapter, on the same
units, with the same result. Every shipped block has a kernel. The density
is evaluated once a round, on the (m, dim) array of the round's points,
and once on the probe grid of validate_blockset's cover scan.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import SLOT, UniformSource

Point = tuple[float, ...]

REJECTION_CAP = 1_000_000  # consecutive rejections that end a sample_array call
ROUND = 4096  # most attempts one sampling round draws

VALIDATE_TOLERANCE = 1e-12  # unprobed gap under the graph; forgiven overlap fraction
OVERLAP_SEED = 0  # stream of validate_blockset's overlap probes
HEIGHT_RUNGS = 8  # cover probe heights per grid point, from 0 up to the graph


class RejectionCapError(RuntimeError):
    """Too many consecutive rejections; the block set is misconfigured
    (adoption rate effectively zero) or the restriction region unreachable."""


class DensityValueError(RuntimeError):
    """The density returned NaN or a negative value at a sampled point, or
    an array not shaped (m,) for m points."""


@dataclass(frozen=True)
class Density:
    """Nonnegative target function f with its total mass K = integral of f.

    evaluate maps an (m, dim) float64 array of points to the (m,) array of
    their values f(x) >= 0; f / K is the probability density the samplers
    aim at. A function that returns any other shape, as one written for a
    single point does, raises DensityValueError when it is first called.
    K_provenance records whether K is known exactly (in closed form, as for
    every shipped target) or was estimated by quadrature.
    """

    dim: int
    evaluate: Callable[[np.ndarray], np.ndarray]
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
class Kernel:
    """Array sampler of a block kind, called once a round for all the
    attempts that select a block of that kind.

    sample(params, units, overflow) samples g attempts and returns
    (coords, heights, used):
      params   (g, p) array, row j the params of attempt j's block;
      units    (g, SLOT - 1) array, the attempts' slot units after selection;
      overflow the block's overflow stream when the kind has one block,
               else None;
      coords   one (g,) array per coordinate; heights a (g,) array;
      used     None, or a (g,) array: overflow units read through attempt j.
    Blocks are of one kind when their kernels have the same sample function.
    A kernel must give, bit for bit, what the block's sample_uniform gives
    on a source that hands out the slot units and then the overflow stream.
    """

    sample: Callable
    params: tuple[float, ...] = ()


@dataclass(frozen=True)
class PatternBlock:
    """Region with positive finite measure and an exact uniform sampler.

    sample_uniform consumes draws from a UniformSource and returns
    ((coords...), height) distributed uniformly over the region. contains is
    the region's membership test, through which validate_blockset probes
    cover and overlap; every block must have one. It takes floats, or
    arrays: point a tuple of one array per coordinate and y an array of
    heights, for which it returns a bool array. One formula serves both
    when it is written with &, | and np.where, not with and, or and
    chained comparisons.

    height_band is a closed interval (lo, hi) holding every height the
    sampler returns and every height contains accepts. validate_blockset
    asks a block only about the cover probes and overlap samples whose
    heights its band holds, and fails when a sampled height falls outside
    the declaring block's band, or the block accepts a height just outside
    it. The unbounded default is asked about every probe.

    kernel is the block's optional array sampler (see Kernel); without one
    the sampler runs sample_uniform attempt by attempt.
    """

    measure: float
    sample_uniform: Callable[[UniformSource], tuple[Point, float]]
    contains: Callable[[Point, float], bool]
    label: str = ""
    height_band: tuple[float, float] = (-math.inf, math.inf)
    kernel: Optional[Kernel] = None

    def __post_init__(self):
        if not (self.measure > 0.0 and math.isfinite(self.measure)):
            raise ValueError(f"block measure must be positive and finite, got {self.measure}")
        lo, hi = self.height_band
        if not lo <= hi:
            raise ValueError(f"height band must satisfy lo <= hi, got {self.height_band}")


def formula_footprint(point: Callable, params: tuple, n_units: int):
    """(sample_point, footprint kernel) of a footprint whose uniform point
    is point(*params, *units) for n_units units: one formula, written for
    floats and arrays alike, serves both."""

    def sample_point(source: UniformSource):
        return point(*params, *[source.next_unit() for _ in range(n_units)])

    return sample_point, Kernel(_formula_sample(point, n_units), tuple(params))


# Blocks share a kind when their kernels share a sample function, so the
# factories below hand out one function per formula. Their caches are
# bounded: a miss only splits a kind in two, which changes no point.
@functools.lru_cache(maxsize=64)
def _formula_sample(point, n_units):
    def sample(params, units, overflow):
        return point(*params.T, *units.T[:n_units]), None

    return sample


def check_band(y_lo: float, y_hi: float) -> float:
    """y_hi - y_lo, after the band rule 0 <= y_lo < y_hi (NaN breaks it)."""
    if not 0.0 <= y_lo < y_hi:
        raise ValueError("need 0 <= y_lo < y_hi")
    return y_hi - y_lo


def band_block(
    area: float, sample_point: Callable, in_footprint: Callable,
    y_lo: float, y_hi: float, label: str, footprint: Kernel,
) -> PatternBlock:
    """Footprint of the given area times the height band [y_lo, y_hi].

    sample_point(source) draws a uniform point of the footprint and
    in_footprint(point) tests membership in it. footprint is the array
    form of sample_point: a Kernel whose sample returns (coords, used) for
    the (g, SLOT - 2) units after the height. A sample draws one uniform
    for the height first, then the point; the measure is
    area * (y_hi - y_lo).
    """
    band = check_band(y_lo, y_hi)

    def sample(source: UniformSource):
        y = y_lo + band * source.next_unit()
        return sample_point(source), y

    def contains(point, y):
        return (y_lo <= y) & (y <= y_hi) & in_footprint(point)

    kernel = Kernel(_band_sample(footprint.sample), (y_lo, band, *footprint.params))
    return PatternBlock(area * band, sample, contains, label, (y_lo, y_hi), kernel)


@functools.lru_cache(maxsize=64)
def _band_sample(footprint):
    def sample(params, units, overflow):
        coords, used = footprint(params[:, 2:], units[:, 1:], overflow)
        return coords, params[:, 0] + params[:, 1] * units[:, 0], used

    return sample


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
# always exists for u in [0, 1), as the last entry is 1.0.
select_block = bisect_right


def guide_table(cumulative: np.ndarray) -> np.ndarray:
    """Chen and Asau's guide table of a selection: entry j is
    select_block(cumulative, j / M) for M buckets, M the smallest power of
    two at least twice the number of blocks. M being a power of two makes
    u * M and j / M exact, so floor(u * M) is u's bucket."""
    m = 1 << (2 * len(cumulative) - 1).bit_length()
    return np.searchsorted(cumulative, np.arange(m) / m, side="right")


def select_blocks(cumulative: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """select_block on each unit of u, the selection of a sampling round:
    start at the guide entry of u's bucket, which is at most the answer,
    and step on while u >= cumulative[i]. The walk ends, as the last
    cumulative entry is 1.0; averaged over u it makes at most
    1 + len(cumulative) / M <= 1.5 comparisons."""
    i = guide.take((u * len(guide)).astype(np.intp))
    while True:
        step = u >= cumulative.take(i)
        if not step.any():
            return i
        i += step


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
                  The samples are drawn as a sampling round draws them,
                  in slots of the OVERLAP_SEED stream.

    Cover and overlap ask the blocks' required membership tests on numpy
    arrays, once per block, so every check ends "pass" or "fail"; a
    contains that cannot take arrays raises ValueError naming its block.
    probe_bounds replaces density.domain_bounds for the cover grid and
    must be given when the domain is unbounded.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be at least 1")

    measures = [b.measure for b in blockset.blocks]
    positivity = CheckResult("pass", f"{len(measures)} blocks, min measure {min(measures):.6g}")

    bounds = probe_bounds if probe_bounds is not None else density.domain_bounds
    if not all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in bounds):
        raise ValueError("cover probing needs finite probe_bounds for unbounded domains")

    cover = _cover_check(blockset, density, bounds, n_probe)
    overlap = _overlap_check(blockset, density.dim, n_probe)
    return ValidationReport(positivity, cover, overlap)


def _probe_grid(bounds, n_probe):
    # cell midpoints of a grid with per_axis cells on each axis, one array
    # per axis, first axis outermost
    per_axis = n_probe if len(bounds) == 1 else math.isqrt(n_probe)
    k = np.arange(per_axis) + 0.5
    axes = [lo + k * ((hi - lo) / per_axis) for lo, hi in bounds]
    return [axis.ravel() for axis in np.meshgrid(*axes, indexing="ij")]


def _cover_check(blockset, density, bounds, n_probe):
    # f is evaluated once, on the whole grid; the probes are sorted by
    # height, so each block is asked once, about the slice of probes its
    # height band holds
    blocks = blockset.blocks
    grid = _probe_grid(bounds, n_probe)
    fx = _evaluate(density, np.stack(grid, axis=1))
    probed = np.flatnonzero((fx > VALIDATE_TOLERANCE) & (fx < math.inf))
    probed = probed[np.argsort(fx[probed], kind="stable")]
    top = HEIGHT_RUNGS - 1
    # rung-major: probe q is rung q // m of grid point probed[q % m], and
    # each rung's heights are sorted, so the stable sort merges sorted runs;
    # int32 indices keep validate's memory small
    m = len(probed)
    y = (np.arange(HEIGHT_RUNGS)[:, None] * (fx[probed] - VALIDATE_TOLERANCE) / top).ravel()
    order = np.argsort(y, kind="stable").astype(np.int32)
    y = y[order]
    point = tuple(axis[probed][order % m] for axis in grid)
    covered = np.zeros(len(y), bool)
    for i, a, b in _band_slices(blocks, y):
        lo, hi = blocks[i].height_band
        sliced = tuple(axis[a:b] for axis in point)
        covered[a:b] |= _contains(blocks, i, sliced, y[a:b])
        # the band contract: no height just outside the band over these points
        for edge, away in ((lo, -math.inf), (hi, math.inf)):
            if not math.isfinite(edge):
                continue
            outside = math.nextafter(edge, away)
            if _contains(blocks, i, sliced, np.broadcast_to(outside, (b - a,))).any():
                return CheckResult(
                    "fail", f"{_block_name(blocks, i)} contains height {outside!r} "
                    f"outside its height band [{lo!r}, {hi!r}]"
                )
    missed = order[~covered] // m
    if not missed.size:
        return CheckResult("pass", f"{len(y)} probes, 0 uncovered")
    return CheckResult(
        "fail", f"{missed.size} of {len(y)} probes uncovered, at heights "
        f"[{int(missed.min()) / top:.3g}, {int(missed.max()) / top:.3g}] * f(x)"
    )


def _overlap_check(blockset, dim, n_probe):
    # The probe samples every block as a sampling round does: attempt k
    # reads a slot of SLOT main-stream units, then its block's overflow
    # stream, through its kind's kernel or the adapter. The samples are
    # then sorted by height, and each block is asked once, about the
    # samples its height band holds: it contains no height outside it.
    blocks = blockset.blocks
    if len(blocks) == 1:
        return CheckResult("pass", "single block")
    per_block = max(100, n_probe // len(blocks))
    owner = np.repeat(np.arange(len(blocks)), per_block)
    source = UniformSource(OVERLAP_SEED)
    units = source.units(SLOT * len(owner)).reshape(len(owner), SLOT)
    points, y, _ = _Kinds(blocks, dim).sample(owner, units, source)
    bands = np.array([b.height_band for b in blocks]).T[:, owner]
    outside = np.flatnonzero(~((bands[0] <= y) & (y <= bands[1])))
    if outside.size:
        k = outside[0]
        i = int(owner[k])
        lo, hi = blocks[i].height_band
        return CheckResult(
            "fail", f"{_block_name(blocks, i)} sampled height {float(y[k])!r} "
            f"outside its height band [{lo!r}, {hi!r}]"
        )
    order = np.argsort(y, kind="stable")
    y = y[order]
    point = tuple(points.take(order, 0).T)
    owner = owner[order]
    hit_owners = [np.empty(0, np.intp)]  # owners of the samples another block holds
    for j, a, b in _band_slices(blocks, y):
        hit = _contains(blocks, j, tuple(axis[a:b] for axis in point), y[a:b])
        others = owner[a:b]
        hit_owners.append(others[hit & (others != j)])
    counts = np.bincount(np.concatenate(hit_owners), minlength=len(blocks))
    weighted = 0.0
    for block, block_hits in zip(blocks, counts.tolist()):
        # ordered-pair estimate of nu(B_i n B_j); halved below for i < j sums
        weighted += block.measure * block_hits / per_block
    estimate = weighted / (2.0 * blockset.total_measure)
    hits = int(counts.sum())
    if estimate <= VALIDATE_TOLERANCE:
        return CheckResult("pass", f"{per_block} probes/block, {hits} double-hits")
    return CheckResult(
        "fail", f"{hits} double-hits, overlap fraction estimate {estimate:.3e}"
    )


def _band_slices(blocks, y):
    """(i, a, b) for each block i whose height band holds the sorted
    heights y[a:b], a < b."""
    lo, hi = np.array([b.height_band for b in blocks]).T
    starts = np.searchsorted(y, lo, side="left").tolist()
    ends = np.searchsorted(y, hi, side="right").tolist()
    return [(i, a, b) for i, (a, b) in enumerate(zip(starts, ends)) if a < b]


def _contains(blocks, i, point, y):
    """blocks[i].contains on probe arrays: a bool array shaped as y."""
    try:
        inside = np.asarray(blocks[i].contains(point, y), bool)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"{_block_name(blocks, i)}: contains must take numpy arrays ({error})"
        ) from error
    if inside.shape not in ((), y.shape):
        raise ValueError(
            f"{_block_name(blocks, i)}: contains returned shape {inside.shape} "
            f"for {y.shape[0]} probes"
        )
    return inside if inside.shape == y.shape else np.broadcast_to(inside, y.shape)


def _block_name(blocks, i):
    return f"block {i} ({blocks[i].label!r})"


def _evaluate(density, points):
    """density.evaluate on an (m, dim) array of points: their m values."""
    fx = np.asarray(density.evaluate(points), float)
    if fx.shape != (len(points),):
        raise DensityValueError(
            f"density.evaluate returned shape {fx.shape} for {len(points)} points; "
            "it must map an (m, dim) array of points to an (m,) array of values"
        )
    return fx


class PatternBlockSampler:
    """Accept/reject sampler over a validated block set.

    Each attempt takes one selection unit, picks a block with select_block's
    rule, samples that block uniformly, and accepts when the height lies
    under the density graph (inclusive comparison; the boundary has measure
    zero, the choice is fixed for determinism). Attempts run in rounds of
    at most ROUND, each sized to the points still needed at the exact
    adoption rate; after a round the streams are rewound to just after the
    last attempt used, so the points depend only on the seed, never on
    round or call sizes. attempts counts attempts through the last accepted
    point and accepted counts returned samples, so accepted / attempts
    estimates the adoption rate. The density is evaluated once a round, on
    the round's points; an evaluate that does not return one value per
    point raises DensityValueError. A rejected attempt whose density value
    is NaN or negative raises DensityValueError too; REJECTION_CAP
    consecutive rejections within one call raise RejectionCapError. These
    two are raised at the first such attempt in attempt order.
    empirical_rate is None before the first attempt. One sampler per
    thread; the underlying source must not be shared.
    """

    def __init__(self, density: Density, blockset: BlockSet, source: UniformSource):
        self.density = density
        self.blockset = blockset
        self.source = source
        self.attempts = 0
        self.accepted = 0
        self._rate = min(1.0, exact_adoption_rate(density, blockset))
        self._cumulative = np.array(blockset.cumulative)
        self._guide = guide_table(self._cumulative)
        self._kinds = _Kinds(blockset.blocks, density.dim)

    def sample_one(self) -> Point:
        return self.sample_many(1)[0]

    def sample_many(self, n: int) -> list[Point]:
        """n accepted points as tuples of floats: sample_array's rows."""
        return list(zip(*self.sample_array(n).T.tolist()))

    def sample_array(self, n: int) -> np.ndarray:
        """n accepted points as an (n, dim) float64 array; the counters
        stay exact when an error stops the batch part way."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        cap = REJECTION_CAP
        kept = []
        accepted = attempts = 0
        streak = 0  # consecutive rejections so far
        try:
            while accepted < n:
                need = n - accepted
                # sized to the need at the adoption rate; a round that met
                # only rejections doubles the next one
                rate = self._rate
                m = math.ceil(need / rate) if need < ROUND * rate else ROUND
                m = min(ROUND, max(streak, m))
                points, heights, reads = self._round(m)
                fx = _evaluate(self.density, points)
                hit = heights <= fx
                keep = np.flatnonzero(hit)
                # stop at the need-th acceptance, or at the first failing attempt
                stop = int(keep[need - 1]) if len(keep) >= need else m - 1
                bad = np.flatnonzero(~hit & ~(fx >= 0.0))
                capped = np.empty(0, np.intp)
                if streak + m >= cap:  # only then can a run of rejections reach the cap
                    index = np.arange(m)
                    streaks = index - np.maximum.accumulate(np.where(hit, index, -1 - streak))
                    capped = np.flatnonzero(streaks >= cap)
                error = None
                if bad.size and bad[0] <= stop and not (capped.size and capped[0] < bad[0]):
                    stop = int(bad[0])
                    error = DensityValueError(
                        f"density is {float(fx[stop])!r} at {tuple(points[stop].tolist())!r}; "
                        "it must be nonnegative, not NaN"
                    )
                elif capped.size and capped[0] <= stop:
                    stop = int(capped[0])
                    error = RejectionCapError(
                        f"{cap} consecutive rejections; block set does not match the density"
                    )
                keep = keep[:np.searchsorted(keep, stop, side="right")]
                kept.append(points.take(keep, 0))
                accepted += len(keep)
                attempts += stop + 1
                streak = stop - int(keep[-1]) if keep.size else streak + stop + 1
                self._rewind(m, stop, reads)
                if error is not None:
                    raise error
        finally:
            self.attempts += attempts
            self.accepted += accepted
        if not kept:
            return np.empty((0, self.density.dim))
        return np.concatenate(kept)

    def _round(self, m: int):
        """Points, heights and overflow reads (see _Kinds.sample) of the
        next m attempts."""
        units = self.source.units(SLOT * m).reshape(m, SLOT)
        blocks = select_blocks(self._cumulative, self._guide, units[:, 0])
        return self._kinds.sample(blocks, units, self.source)

    def _rewind(self, m: int, stop: int, reads):
        """Rewind every stream to just after attempt stop of an m-attempt round."""
        self.source.rewind(SLOT * (m - 1 - stop))
        for stream, mark, attempts, used in reads:
            k = int(np.searchsorted(attempts, stop, side="right"))
            read = int(used[k - 1]) if k else 0
            stream.rewind(stream.draws_issued - mark - read)

    @property
    def empirical_rate(self) -> Optional[float]:
        return self.accepted / self.attempts if self.attempts else None


class _Kinds:
    """A block set's blocks grouped into kinds, and the one kernel call per
    kind that samples a batch of attempts. A block without a kernel is a
    kind of its own on the adapter. The sampler's rounds and
    validate_blockset's overlap probe both sample through it."""

    def __init__(self, blocks: Sequence[PatternBlock], dim: int):
        # blocks of one kind share a kernel; kind_of and row_of map a block
        # to its kind and to its row of the kind's params
        kernels = [b.kernel or Kernel(_adapter(b.sample_uniform)) for b in blocks]
        members = {}
        for i, kernel in enumerate(kernels):
            members.setdefault(kernel.sample, []).append(i)
        self.dim = dim
        self.kinds = []
        self.kind_of = np.empty(len(kernels), np.intp)
        self.row_of = np.empty(len(kernels), np.intp)
        for k, (sample, ids) in enumerate(members.items()):
            self.kind_of[ids] = k
            self.row_of[ids] = range(len(ids))
            params = np.array([kernels[i].params for i in ids], float)
            params = params.reshape(len(ids), len(kernels[ids[0]].params))
            self.kinds.append((sample, params, ids[0] if len(ids) == 1 else None))

    def sample(self, blocks: np.ndarray, units: np.ndarray, source: UniformSource):
        """Points (m, dim) and heights (m,) of m attempts, attempt k a
        sample of block blocks[k] on its slot units[k] (SLOT units, the
        first the selection unit), and for each kind that read its
        overflow stream: (stream, its position before the call, the kind's
        attempts, overflow units used)."""
        # the gathers go through take, and the scatters into 1-D arrays:
        # numpy's 2-D fancy indexing costs several times more
        kinds = self.kind_of.take(blocks)
        rows = self.row_of.take(blocks)
        columns = np.empty((self.dim, len(blocks)))
        heights = np.empty(len(blocks))
        reads = []
        for kind, (sample, params, block) in enumerate(self.kinds):
            attempts = np.flatnonzero(kinds == kind)
            if not attempts.size:
                continue
            stream = None if block is None else source.overflow(block)
            mark = stream.draws_issued if stream is not None else 0
            coords, heights[attempts], used = sample(
                params.take(rows.take(attempts), 0), units.take(attempts, 0)[:, 1:], stream
            )
            for column, values in zip(columns, coords, strict=True):
                column[attempts] = values
            if used is not None:
                reads.append((stream, mark, attempts, used))
        return columns.T, heights, reads


class _SlotReader:
    """The source a block's sample_uniform reads on the adapter: its
    attempt's slot units, then its block's overflow stream."""

    def __init__(self, overflow):
        self.overflow = overflow
        self.slot = iter(())
        self.overflow_units = 0

    def next_unit(self) -> float:
        u = next(self.slot, None)
        if u is None:
            self.overflow_units += 1
            return self.overflow.next_unit()
        return u


def _adapter(sample_uniform):
    """Kernel sample of a block without one: sample_uniform on each attempt."""

    def sample(params, units, overflow):
        reader = _SlotReader(overflow)
        points, heights, used = [], [], []
        for slot in units.tolist():
            reader.slot = iter(slot)
            point, y = sample_uniform(reader)
            points.append(point)
            heights.append(y)
            used.append(reader.overflow_units)
        return np.array(points, float).T, heights, used

    return sample
