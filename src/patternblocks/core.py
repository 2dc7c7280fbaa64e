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
units of its block. A block that needs more reads an overflow stream
(UniformSource.overflow), that of the first block of its kind. A round
selects, for each attempt's selection unit u, the block of the smallest i
with u < cumulative[i], through BlockSet.select and its guide table (Chen
and Asau 1974), in O(1) per attempt. Every block kind samples all of a
round's attempts in one call of its Kernel, on arrays gathered with take;
a block without one runs its scalar sample_uniform attempt by attempt
through one adapter, on the same units, with the same result. Every
shipped block has a kernel. The density is evaluated once a round, on the
(m, dim) array of the round's points, and once on the probe grid of
validate_blockset's cover scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

import numpy as np

from .rng import SLOT, UniformSource

Point = tuple[float, ...]

REJECTION_CAP = 1_000_000  # consecutive rejections that end a sample_array call
ROUND = 4096  # most attempts one sampling round draws

VALIDATE_TOLERANCE = 1e-12  # unprobed gap under the graph; forgiven overlap and K / nu(B) - 1
OVERLAP_SEED = 0  # stream of validate_blockset's overlap probes
HEIGHT_RUNGS = 8  # cover probe heights per grid point, from 0 up to the graph


class RejectionCapError(RuntimeError):
    """Too many consecutive rejections; the block set is misconfigured
    (adoption rate effectively zero) or the restriction region unreachable."""


class CoverError(ValueError):
    """A cover that cannot serve the density: measure below K, or points of another dimension."""


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
      overflow the overflow stream of the kind's first block, which every
               attempt of the kind reads, in attempt order;
      coords   one (g,) array per coordinate; heights a (g,) array;
      used     a (g,) array, the overflow units attempt j read, or None
               when no attempt read any.
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
    area * (y_hi - y_lo), over a band with 0 <= y_lo < y_hi (not NaN).
    """
    if not 0.0 <= y_lo < y_hi:
        raise ValueError("need 0 <= y_lo < y_hi")
    band = y_hi - y_lo

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
    """A tuple of pattern blocks and the read-only tables built from it once:
    cumulative, whose float64 entry i is the in-order sum of the measures
    of blocks 0..i over the total, the last forced to exactly 1.0 so
    selection is total on [0, 1); guide, its guide table; bands, the (2, n)
    array of the blocks' height bands. select picks blocks by measure, on
    cumulative; sample_blocks makes one call per block kind (see Kernel; a
    block without a kernel is a kind of its own, on the adapter). The
    contract (blocks overlap only on measure-zero sets and jointly cover
    the density's subgraph) is checked statistically by validate_blockset,
    not symbolically."""

    def __init__(self, blocks: Sequence[PatternBlock]):
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("a block set needs at least one block")
        total = math.fsum(b.measure for b in blocks)
        if not math.isfinite(total):
            raise ValueError("total measure must be finite")
        cumulative = np.cumsum([b.measure for b in blocks]) / total
        cumulative[-1] = 1.0
        self.blocks = blocks
        self.cumulative = cumulative
        self.total_measure = total
        # Chen and Asau's guide table: entry j is the block of unit j / M, M
        # the smallest power of two at least twice the number of blocks, so
        # u * M and j / M are exact and floor(u * M) is u's bucket
        m = 1 << (2 * len(blocks) - 1).bit_length()
        self.guide = np.searchsorted(cumulative, np.arange(m) / m, side="right")
        self.bands = np.array([b.height_band for b in blocks]).T
        # kind_of and row_of map a block to its kind and its row of the kind's params
        kernels = [b.kernel or Kernel(_adapter(b.sample_uniform)) for b in blocks]
        members = {}
        for i, kernel in enumerate(kernels):
            members.setdefault(kernel.sample, []).append(i)
        self.kinds = []
        self.kind_of = np.empty(len(kernels), np.intp)
        self.row_of = np.empty(len(kernels), np.intp)
        for k, (sample, ids) in enumerate(members.items()):
            self.kind_of[ids] = k
            self.row_of[ids] = range(len(ids))
            params = np.array([kernels[i].params for i in ids], float)
            params.flags.writeable = False
            self.kinds.append((sample, params, ids[0]))
        for table in (cumulative, self.guide, self.bands, self.kind_of, self.row_of):
            table.flags.writeable = False

    def __len__(self) -> int:
        return len(self.blocks)

    def select(self, u: np.ndarray) -> np.ndarray:
        """The block of each unit of u in [0, 1): the smallest i with
        u < cumulative[i]. The walk starts at the guide entry of u's
        bucket, which is at most the answer, and steps on while
        u >= cumulative[i]; it ends, as the last entry is 1.0, and averaged
        over u makes at most 1 + len(self) / len(guide) <= 1.5 comparisons."""
        i = self.guide.take((u * len(self.guide)).astype(np.intp))
        while True:
            step = u >= self.cumulative.take(i)
            if not step.any():
                return i
            i += step

    def sample_blocks(self, blocks: np.ndarray, units: np.ndarray, source: UniformSource, dim: int):
        """Points (m, dim) and heights (m,) of m attempts, attempt k a
        sample of block blocks[k] on its slot units[k] (SLOT units, the
        first the selection unit) and then on the overflow stream of its
        kind's first block; and for each kind that read that stream:
        (stream, its position before the call, the kind's attempts, the
        overflow units each attempt read)."""
        # the gathers go through take, and the scatters into 1-D arrays:
        # numpy's 2-D fancy indexing costs several times more
        kinds = self.kind_of.take(blocks)
        rows = self.row_of.take(blocks)
        columns = np.empty((dim, len(blocks)))
        heights = np.empty(len(blocks))
        reads = []
        for kind, (sample, params, block) in enumerate(self.kinds):
            attempts = np.flatnonzero(kinds == kind)
            if not attempts.size:
                continue
            stream = source.overflow(block)
            mark = stream.draws_issued
            coords, heights[attempts], used = sample(
                params.take(rows.take(attempts), 0), units.take(attempts, 0)[:, 1:], stream
            )
            if len(coords) != dim:
                raise CoverError(
                    f"{_block_name(self.blocks, block)}: its kernel returned "
                    f"{len(coords)} coordinates for a {dim}-d density"
                )
            for column, values in zip(columns, coords):
                column[attempts] = values
            if used is not None:
                reads.append((stream, mark, attempts, used))
        return columns.T, heights, reads


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
                  it fails when no grid point has a finite f(x) above
                  VALIDATE_TOLERANCE, as it then checks nothing;
      overlap     Monte Carlo: uniform samples of each block must not land
                  in any other block (pairwise intersections have measure
                  zero, so interior double-hits indicate real overlap).
                  The samples are drawn as a sampling round draws them,
                  in slots of the OVERLAP_SEED stream.

    Cover and overlap ask the blocks' required membership tests on numpy
    arrays, once per block, so every check ends "pass" or "fail"; a
    contains that cannot take arrays raises ValueError naming its block.
    probe_bounds replaces density.domain_bounds for the cover grid, with
    one (lo, hi) per axis, and must be given when the domain is unbounded.
    """
    if n_probe < 1:
        raise ValueError("n_probe must be at least 1")

    measures = [b.measure for b in blockset.blocks]
    positivity = CheckResult("pass", f"{len(measures)} blocks, min measure {min(measures):.6g}")

    bounds = probe_bounds if probe_bounds is not None else density.domain_bounds
    if len(bounds) != density.dim:
        raise ValueError("probe_bounds must give one (lo, hi) per axis")
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
    if not probed.size:
        # a grid with nothing under the graph checks nothing, so it cannot pass
        return CheckResult(
            "fail", f"0 probes: no grid point in probe bounds {bounds!r} "
            f"has {VALIDATE_TOLERANCE:g} < f(x) < inf"
        )
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
    for i, a, b in _band_slices(blockset, y):
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
    # The probe samples every block through blockset.sample_blocks, on
    # slots of SLOT main-stream units, as a sampling round does. The
    # samples are then sorted by height, and each block is asked once,
    # about the samples its height band holds: it contains no height
    # outside it.
    blocks = blockset.blocks
    if len(blocks) == 1:
        return CheckResult("pass", "single block")
    per_block = max(100, n_probe // len(blocks))
    owner = np.repeat(np.arange(len(blocks)), per_block)
    source = UniformSource(OVERLAP_SEED)
    units = source.units(SLOT * len(owner)).reshape(len(owner), SLOT)
    points, y, _ = blockset.sample_blocks(owner, units, source, dim)
    bands = blockset.bands[:, owner]
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
    for j, a, b in _band_slices(blockset, y):
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


def _band_slices(blockset, y):
    """(i, a, b) for each block i whose height band holds the sorted
    heights y[a:b], a < b."""
    lo, hi = blockset.bands
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

    Each attempt takes one selection unit, picks a block through
    blockset.select, samples it through blockset.sample_blocks, and accepts
    when the height lies under the density graph (inclusive comparison; the
    boundary has measure zero, the choice is fixed for determinism). A
    block set whose measure is below K beyond rounding cannot cover the
    density's subgraph, so it raises CoverError, a ValueError, at
    construction; so does a kernel whose points have another dimension than
    the density's, at the first round that samples it. Attempts run in
    rounds of at most ROUND, each sized to the points still needed at the
    exact adoption rate; after a round the streams are rewound to
    just after the last attempt used, so the points depend only on the
    seed, never on round or call sizes. attempts counts attempts through
    the last accepted point and accepted counts returned samples, so
    accepted / attempts estimates the adoption rate. The density is
    evaluated once a round, on the round's points; an evaluate that does
    not return one value per point raises DensityValueError. A rejected
    attempt whose density value is NaN or negative raises DensityValueError
    too; REJECTION_CAP consecutive rejections within one call raise
    RejectionCapError. These two are raised at the first such attempt in
    attempt order; an attempt that is both the cap-th rejection and a NaN
    or negative value raises DensityValueError. empirical_rate is None
    before the first attempt. One sampler per thread; the underlying source
    must not be shared.
    """

    def __init__(self, density: Density, blockset: BlockSet, source: UniformSource):
        self.density = density
        self.blockset = blockset
        self.source = source
        self.attempts = 0
        self.accepted = 0
        self._rate = exact_adoption_rate(density, blockset)
        if self._rate > 1.0 + VALIDATE_TOLERANCE:
            raise CoverError(
                f"K = {density.K!r} exceeds the block set's measure "
                f"{blockset.total_measure!r}; a cover of the density's subgraph has at least K"
            )

    def sample_many(self, n: int) -> list[Point]:
        """n accepted points as tuples of floats: sample_array's rows."""
        return list(zip(*self.sample_array(n).T.tolist()))

    def sample_array(self, n: int) -> np.ndarray:
        """n accepted points as an (n, dim) float64 array. Each round books
        its attempts and acceptances before it raises or loops, so the
        counters stay exact when an error stops the batch part way."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        cap = REJECTION_CAP
        kept = [np.empty((0, self.density.dim))]
        accepted = 0
        streak = 0  # consecutive rejections so far
        while accepted < n:
            need = n - accepted
            # sized to the need at the adoption rate; a round that met
            # only rejections doubles the next one
            m = min(ROUND, max(streak, math.ceil(need / self._rate)))
            units = self.source.units(SLOT * m).reshape(m, SLOT)
            blocks = self.blockset.select(units[:, 0])
            points, heights, reads = self.blockset.sample_blocks(
                blocks, units, self.source, self.density.dim
            )
            fx = _evaluate(self.density, points)
            hit = heights <= fx
            keep = np.flatnonzero(hit)
            # stop at the need-th acceptance, or at the first failing attempt
            stop = int(keep[need - 1]) if len(keep) >= need else m - 1
            fail = bad = ~hit & ~(fx >= 0.0)
            if streak + m >= cap:  # only then can a run of rejections reach the cap
                index = np.arange(m)
                streaks = index - np.maximum.accumulate(np.where(hit, index, -1 - streak))
                fail = bad | (streaks >= cap)
            first = int(fail[:stop + 1].argmax())  # 0 when no attempt through stop fails
            error = None
            if fail[first]:
                stop = first
                if bad[stop]:  # a NaN or negative value wins over the cap
                    error = DensityValueError(
                        f"density is {float(fx[stop])!r} at {tuple(points[stop].tolist())!r}; "
                        "it must be nonnegative, not NaN"
                    )
                else:
                    error = RejectionCapError(
                        f"{cap} consecutive rejections; block set does not match the density"
                    )
            keep = keep[:np.searchsorted(keep, stop, side="right")]
            kept.append(points.take(keep, 0))
            accepted += len(keep)
            self.accepted += len(keep)
            self.attempts += stop + 1
            streak = stop - int(keep[-1]) if keep.size else streak + stop + 1
            self._rewind(m, stop, reads)
            if error is not None:
                raise error
        return np.concatenate(kept)

    def _rewind(self, m: int, stop: int, reads):
        """Rewind every stream to just after attempt stop of an m-attempt round."""
        self.source.rewind(SLOT * (m - 1 - stop))
        for stream, mark, attempts, used in reads:
            k = int(np.searchsorted(attempts, stop, side="right"))
            stream.rewind(stream.draws_issued - mark - int(np.sum(used[:k])))

    @property
    def empirical_rate(self) -> Optional[float]:
        return self.accepted / self.attempts if self.attempts else None


def _adapter(sample_uniform):
    """Kernel sample of a block without one: sample_uniform on each attempt,
    on a source that hands out the attempt's slot units and then the
    overflow stream; an attempt's used is what it drew from that stream."""

    def sample(params, units, overflow):
        stream = iter(overflow.next_unit, None)  # endless: next_unit never gives None
        points, heights, used = [], [], []
        for slot in units.tolist():
            mark = overflow.draws_issued
            point, y = sample_uniform(SimpleNamespace(next_unit=chain(slot, stream).__next__))
            points.append(point)
            heights.append(y)
            used.append(overflow.draws_issued - mark)
        return np.array(points, float).T, heights, used

    return sample
