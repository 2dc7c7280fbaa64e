import dataclasses
import itertools
import math
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patternblocks import core, distributions
from patternblocks.blocks1d import envelope_block, rect_block
from patternblocks.blocks2d import cylinder_block, slab_block, superlevel_block
from patternblocks.core import (
    BlockSet,
    CheckResult,
    Density,
    DensityValueError,
    PatternBlock,
    PatternBlockSampler,
    RejectionCapError,
    exact_adoption_rate,
    validate_blockset,
)
from patternblocks.distributions import (
    arcsine_cdf,
    arcsine_cdf_inv,
    arcsine_pdf,
    arcsine_strip_scale,
)
from patternblocks.rng import SLOT, UniformSource


def _uniform_density():
    return Density(
        dim=1,
        evaluate=lambda p: np.where((0.0 <= p[:, 0]) & (p[:, 0] <= 1.0), 1.0, 0.0),
        domain_bounds=((0.0, 1.0),),
        K=1.0,
    )


def _constant_density(value, K=1.0):
    return Density(
        dim=1, evaluate=lambda p: np.full(len(p), value), domain_bounds=((0.0, 1.0),), K=K
    )


# ---------------------------------------------------------------------------
# selection


def _cover(measures):
    """Block set of rectangles [0, m] x [0, 1], one of measure m per entry."""
    return BlockSet([rect_block(0.0, m, 0.0, 1.0) for m in measures])


def test_select_single_block():
    assert _cover([1.0]).select(np.array([0.999])).tolist() == [0]


def test_select_boundary_is_strict():
    # u equal to a cumulative entry belongs to the next block
    cover = _cover([0.5, 0.5])
    assert cover.cumulative.tolist() == [0.5, 1.0]
    assert cover.select(np.array([0.5, 0.4999999])).tolist() == [1, 0]


def test_select_first_block_on_zero_with_arcsine_weights():
    deltas = [arcsine_cdf(i / 8) - arcsine_cdf((i - 1) / 8) for i in range(1, 9)]
    cover = _cover([arcsine_strip_scale(i) * d for i, d in zip(range(1, 9), deltas)])
    assert cover.cumulative[0] > 0.0
    assert cover.select(np.array([0.0])).tolist() == [0]


@given(
    # repeated measures come from a small pool; 1e-12 next to 1 puts many
    # tiny blocks into one guide bucket
    st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(
            st.sampled_from([*pool, 1e-12, 1.0]), min_size=1, max_size=300
        )
    ),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example([1.0] + [1e-12] * 50, 0.5)
@example([1e-12] * 50 + [1.0], 0.0)
@example([1.0] * 300, 1.0 - 2.0**-53)
def test_select_matches_linear_scan(measures, u):
    # bisect_right, the reference, and the rounds' guide-table selection,
    # on u, 0, every cumulative entry, its neighbours and the largest unit
    # below 1
    cover = _cover(measures)
    array = cover.cumulative
    cumulative = array.tolist()
    units = [u, 0.0, *array, *np.nextafter(array, 0.0), *np.nextafter(array, 1.0), 1.0 - 2.0**-53]
    units = np.array([v for v in units if v < 1.0])
    linear = [next(i for i, c in enumerate(cumulative) if v < c) for v in units.tolist()]
    assert [bisect_right(cumulative, v) for v in units.tolist()] == linear
    assert cover.select(units).tolist() == linear


def test_guide_table_with_tied_cumulative_entries():
    # blocks of 1e-20 next to 0.25 add nothing to the running sum, so their
    # cumulative entries tie with the block before them
    cover = _cover([0.25, 1e-20, 1e-20, 0.25, 1e-20, 0.5])
    cumulative = cover.cumulative.tolist()
    assert cumulative == [0.25, 0.25, 0.25, 0.5, 0.5, 1.0]
    m = len(cover.guide)
    assert m == 16 and cover.guide.tolist() == [bisect_right(cumulative, j / m) for j in range(m)]
    units = np.array([0.0, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0 - 2.0**-53])
    assert cover.select(units).tolist() == [0, 0, 3, 3, 5, 5, 5]


def test_selection_frequencies(arcsine_blocks):
    source = UniformSource(5)
    n = 200_000
    counts = [0] * len(arcsine_blocks)
    for _ in range(n):
        counts[bisect_right(arcsine_blocks.cumulative, source.next_unit())] += 1
    for block, observed in zip(arcsine_blocks.blocks, counts):
        p = block.measure / arcsine_blocks.total_measure
        sigma = math.sqrt(n * p * (1.0 - p))
        assert abs(observed - n * p) < 4.0 * sigma


# ---------------------------------------------------------------------------
# construction contracts


def test_density_rejects_bad_inputs():
    def ones(p):
        return np.ones(len(p))

    with pytest.raises(ValueError):
        Density(dim=3, evaluate=ones, domain_bounds=((0, 1),) * 3, K=1.0)
    with pytest.raises(ValueError):
        Density(dim=1, evaluate=ones, domain_bounds=((0, 1),), K=0.0)
    with pytest.raises(ValueError):
        Density(dim=1, evaluate=ones, domain_bounds=((0, 1),), K=1.0, K_provenance="guess")


def test_pattern_block_rejects_nonpositive_measure():
    with pytest.raises(ValueError):
        PatternBlock(0.0, lambda s: ((0.0,), 0.0), lambda p, y: True)
    with pytest.raises(ValueError):
        PatternBlock(math.inf, lambda s: ((0.0,), 0.0), lambda p, y: True)


def test_blockset_requires_blocks():
    with pytest.raises(ValueError):
        BlockSet([])


def test_blockset_cumulative_ends_at_one(arcsine_blocks, mixture_blocks, zigg_blocks):
    # the weights are, bit for bit, the running sum in block order over the
    # total, and read-only, as the samplers select on them without a copy
    for blockset in (arcsine_blocks, mixture_blocks, zigg_blocks):
        cum = blockset.cumulative
        assert cum[-1] == 1.0
        assert all(a <= b for a, b in zip(cum, cum[1:]))
        acc, running = 0.0, []
        for block in blockset.blocks:
            acc += block.measure
            running.append(acc / blockset.total_measure)
        assert cum.dtype == np.float64 and cum[:-1].tolist() == running[:-1]
        with pytest.raises(ValueError):
            cum[0] = 0.0


def test_blockset_blocks_cannot_change_under_their_weights(arcsine_blocks):
    # the weights, guide table, bands and kinds are built once, from a tuple
    cover = distributions.TARGETS["arcsine-mod"].cover()
    with pytest.raises(AttributeError):
        cover.blocks.append(rect_block(0.0, 1.0, 0.0, 1.0))
    assert len(cover) == len(cover.cumulative) == 8
    for table in (cover.guide, cover.bands, cover.kind_of, cover.row_of, cover.kinds[0][1]):
        with pytest.raises(ValueError):
            table[0] = 0
    from_generator = BlockSet(block for block in arcsine_blocks.blocks)
    assert from_generator.blocks == arcsine_blocks.blocks
    assert from_generator.cumulative.tobytes() == arcsine_blocks.cumulative.tobytes()


def test_exact_adoption_rate_single_exact_block():
    blockset = BlockSet([rect_block(0.0, 1.0, 0.0, 1.0)])
    assert exact_adoption_rate(_uniform_density(), blockset) == 1.0


def test_sampler_rejects_a_cover_smaller_than_k():
    # [0, 0.5] x [0, 1] misses half the subgraph of the uniform density on
    # [0, 1]; sampled, it would give points below 0.5 only, at rate 1
    blockset = BlockSet([rect_block(0.0, 0.5, 0.0, 1.0)])
    with pytest.raises(ValueError, match=r"K = 1\.0 exceeds the block set's measure 0\.5"):
        PatternBlockSampler(_uniform_density(), blockset, UniformSource(0))


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
    st.floats(min_value=0.01, max_value=10.0),
)
@settings(max_examples=50)
def test_adding_block_never_increases_rate(widths, extra):
    blocks = [rect_block(0.0, w, 0.0, 1.0) for w in widths]
    density = _constant_density(0.0, K=0.005)  # K below any block total: the rate stays in (0, 1]
    before = exact_adoption_rate(density, BlockSet(blocks))
    after = exact_adoption_rate(
        density, BlockSet(blocks + [rect_block(0.0, extra, 0.0, 1.0)])
    )
    assert after <= before


# ---------------------------------------------------------------------------
# sampling loop


def test_exact_cover_never_rejects():
    density = _uniform_density()
    blockset = BlockSet([rect_block(0.0, 1.0, 0.0, 1.0)])
    sampler = PatternBlockSampler(density, blockset, UniformSource(3))
    sampler.sample_many(5000)
    assert sampler.attempts == sampler.accepted == 5000


def test_sample_many_zero():
    sampler = PatternBlockSampler(
        _uniform_density(), BlockSet([rect_block(0.0, 1.0, 0.0, 1.0)]), UniformSource(3)
    )
    assert sampler.sample_many(0) == []
    assert sampler.attempts == 0
    with pytest.raises(ValueError):
        sampler.sample_many(-1)


def test_sample_many_is_the_rows_of_sample_array(mixture_density, mixture_blocks):
    def sampler():
        return PatternBlockSampler(mixture_density, mixture_blocks, UniformSource(5))

    arrays = sampler()
    points = np.concatenate([arrays.sample_array(m) for m in (0, 1, 700)])
    assert points.shape == (701, 2) and points.dtype == np.float64
    assert arrays.sample_array(0).shape == (0, 2)
    tuples = sampler()
    assert tuples.sample_many(701) == [tuple(p) for p in points.tolist()]
    assert (tuples.attempts, tuples.accepted) == (arrays.attempts, arrays.accepted)


def test_sampling_is_deterministic(arcsine_density, arcsine_blocks):
    runs = []
    for _ in range(2):
        sampler = PatternBlockSampler(
            arcsine_density, arcsine_blocks, UniformSource(99)
        )
        runs.append(sampler.sample_many(10_000))
    assert runs[0] == runs[1]


def test_arcsine_empirical_rate(arcsine_density, arcsine_blocks):
    sampler = PatternBlockSampler(arcsine_density, arcsine_blocks, UniformSource(2))
    sampler.sample_many(10_000)
    # 3 sigma band around the exact 2/3 acceptance probability
    assert abs(sampler.empirical_rate - 2.0 / 3.0) < 0.015


def test_rejection_cap_fires(monkeypatch):
    # block sits entirely above the graph, so nothing is ever accepted; K
    # is the block's measure, as the sampler rejects a cover below K
    blockset = BlockSet([rect_block(0.0, 1.0, 0.6, 1.0)])
    density = _constant_density(0.5, K=blockset.total_measure)
    monkeypatch.setattr(core, "REJECTION_CAP", 500)
    sampler = PatternBlockSampler(density, blockset, UniformSource(0))
    with pytest.raises(RejectionCapError):
        sampler.sample_many(1)


def _scripted_density(values, K=1.0):
    """Density whose k-th evaluation returns values[k], then 0.0."""
    calls = iter(values)
    return Density(
        dim=1,
        evaluate=lambda p: np.array([next(calls, 0.0) for _ in p]),
        domain_bounds=((0.0, 1.0),),
        K=K,
    )


def test_counters_exact_after_cap_error_mid_batch(monkeypatch):
    # five accepted attempts, then nothing under the graph
    monkeypatch.setattr(core, "REJECTION_CAP", 50)
    sampler = PatternBlockSampler(
        _scripted_density([1.0] * 5, K=0.5),
        BlockSet([rect_block(0.0, 1.0, 0.0, 0.5)]),
        UniformSource(3),
    )
    with pytest.raises(RejectionCapError):
        sampler.sample_many(10)
    assert (sampler.accepted, sampler.attempts) == (5, 55)


def test_cap_counts_consecutive_rejections_per_sample(monkeypatch):
    # every sample takes two rejections, then an acceptance
    script = [0.0, 0.0, 1.0] * 100
    blockset = BlockSet([rect_block(0.0, 1.0, 0.1, 0.5)])
    K = blockset.total_measure
    monkeypatch.setattr(core, "REJECTION_CAP", 3)
    sampler = PatternBlockSampler(_scripted_density(script, K), blockset, UniformSource(4))
    assert len(sampler.sample_many(100)) == 100
    assert (sampler.accepted, sampler.attempts) == (100, 300)

    monkeypatch.setattr(core, "REJECTION_CAP", 2)
    sampler = PatternBlockSampler(_scripted_density(script, K), blockset, UniformSource(4))
    with pytest.raises(RejectionCapError):
        sampler.sample_many(100)
    assert (sampler.accepted, sampler.attempts) == (0, 2)


@pytest.mark.parametrize("bad", [math.nan, -0.25])
def test_nan_or_negative_density_fails_fast(bad):
    sampler = PatternBlockSampler(
        _scripted_density([1.0, 1.0, bad], K=0.5),
        BlockSet([rect_block(0.0, 1.0, 0.0, 0.5)]),
        UniformSource(5),
    )
    with pytest.raises(DensityValueError, match="nonnegative"):
        sampler.sample_many(10)
    assert (sampler.accepted, sampler.attempts) == (2, 3)


# One call's first round on a cover of adoption rate 1/4 holds 4n attempts,
# so each script below runs in one round; 10.0 accepts every height of the
# block and 0.0 rejects it. The cap is 3 consecutive rejections.
@pytest.mark.parametrize(("script", "n", "error", "counters"), [
    # the third attempt is both the cap-th rejection and a NaN
    ([0.0, 0.0, math.nan], 10, DensityValueError, (0, 3)),
    # the cap is reached one attempt before a NaN
    ([10.0, 0.0, 0.0, 0.0, math.nan], 10, RejectionCapError, (1, 4)),
    # a NaN one attempt before the cap
    ([10.0, 0.0, math.nan, 0.0], 10, DensityValueError, (1, 3)),
    # a NaN, and then the cap, after the need-th acceptance
    ([10.0, 0.0, 10.0, math.nan, 0.0, 0.0], 2, None, (2, 3)),
])
def test_failure_precedence_within_one_round(monkeypatch, script, n, error, counters):
    monkeypatch.setattr(core, "REJECTION_CAP", 3)
    source = UniformSource(6)
    sampler = PatternBlockSampler(
        _scripted_density(script), BlockSet([rect_block(0.0, 1.0, 0.1, 4.1)]), source
    )
    if error is None:
        assert sampler.sample_array(n).shape == (n, 1)
    else:
        with pytest.raises(error):
            sampler.sample_array(n)
    assert (sampler.accepted, sampler.attempts) == counters
    assert source.draws_issued == SLOT * sampler.attempts


def _ramp_density():
    return Density(
        dim=1,
        evaluate=lambda p: np.where((0.0 <= p[:, 0]) & (p[:, 0] <= 1.0), 2.0 * p[:, 0], 0.0),
        domain_bounds=((0.0, 1.0),),
        K=1.0,
    )


def _pointwise_ramp():
    # the ramp written for one point: on an (m, 1) array it returns (1,)
    return Density(
        dim=1,
        evaluate=lambda p: 2.0 * p[0] if 0.0 <= p[0] <= 1.0 else 0.0,
        domain_bounds=((0.0, 1.0),),
        K=1.0,
    )


POINTWISE_MESSAGE = r"returned shape \(1,\) for \d+ points; it must map an \(m, dim\) array"


def test_pointwise_evaluate_fails_fast():
    # a broadcast (1,) would silently accept every attempt against f(x_0)
    cover = BlockSet([rect_block(0.0, 1.0, 0.0, 2.0)])
    sampler = PatternBlockSampler(_pointwise_ramp(), cover, UniformSource(42))
    with pytest.raises(DensityValueError, match=POINTWISE_MESSAGE):
        sampler.sample_array(10_000)
    assert (sampler.accepted, sampler.attempts) == (0, 0)
    ramp = PatternBlockSampler(_ramp_density(), cover, UniformSource(42))
    assert abs(ramp.sample_array(10_000).mean() - 2.0 / 3.0) < 0.01


def test_infinite_density_value_accepts_finite_heights():
    density = _constant_density(math.inf)
    blockset = BlockSet([rect_block(0.0, 1.0, 0.0, 5.0)])
    sampler = PatternBlockSampler(density, blockset, UniformSource(1))
    sampler.sample_many(100)
    assert sampler.attempts == sampler.accepted == 100


# ---------------------------------------------------------------------------
# validation


def test_validate_arcsine_cover_and_overlap(arcsine_density, arcsine_blocks):
    report = validate_blockset(
        arcsine_blocks, arcsine_density, n_probe=100_000
    )
    assert report.positivity.status == "pass"
    assert report.cover.status == "pass"
    assert report.overlap.status == "pass"
    assert report.all_passed()


def test_validate_mixture_cover_and_overlap(mixture_density, mixture_blocks):
    report = validate_blockset(
        mixture_blocks, mixture_density, n_probe=100_000
    )
    assert report.all_passed()


def test_validate_detects_uncovered_region():
    # half-width block leaves the right half of the subgraph uncovered
    density = _uniform_density()
    blockset = BlockSet([rect_block(0.0, 0.5, 0.0, 1.0)])
    report = validate_blockset(blockset, density, n_probe=1000)
    assert report.cover.status == "fail"


def test_validate_detects_overlap():
    density = _uniform_density()
    blockset = BlockSet(
        [rect_block(0.0, 0.6, 0.0, 1.0), rect_block(0.4, 1.0, 0.0, 1.0)]
    )
    report = validate_blockset(blockset, density, n_probe=2000)
    assert report.overlap.status == "fail"


def test_a_block_listed_twice_samples_and_fails_the_overlap_check(mixture_density):
    # the two superlevel blocks are one kind, which reads the overflow
    # stream of its first block
    blocks = distributions.gauss_mixture_blockset().blocks
    twice = BlockSet([*blocks[:2], blocks[1], *blocks[2:]])
    sampler = PatternBlockSampler(mixture_density, twice, UniformSource(4))
    assert sampler.sample_array(1000).shape == (1000, 2)
    report = validate_blockset(twice, mixture_density, n_probe=2000)
    assert report.cover.status == "pass"
    assert report.overlap.status == "fail"
    hits, estimate = report.overlap.detail.split(" double-hits, ")
    assert estimate.startswith("overlap fraction estimate ")
    # every sample of either twin lies in the other
    assert int(hits) >= 2 * (2000 // len(twice))


def test_validate_needs_finite_probe_bounds(half_normal_density, zigg_blocks):
    with pytest.raises(ValueError):
        validate_blockset(zigg_blocks, half_normal_density, n_probe=100)
    report = validate_blockset(
        zigg_blocks, half_normal_density, n_probe=10_000,
        probe_bounds=((0.0, 8.0),),
    )
    assert report.all_passed()


@pytest.mark.parametrize(("density", "blocks", "bounds"), [
    ("half_normal_density", "zigg_blocks", ((0.0, 8.0), (0.0, 8.0))),
    ("mixture_density", "mixture_blocks", ((-4.0, 4.0),)),
])
def test_validate_rejects_probe_bounds_of_the_wrong_dimension(request, density, blocks, bounds):
    # unchecked, the 2-D box on the 1-D cover would pass and the 1-D box
    # would fail inside the 2-D mixture's density; both stop before it runs
    density = request.getfixturevalue(density)
    calls = []

    def evaluate(points):
        calls.append(len(points))
        return density.evaluate(points)

    with pytest.raises(ValueError, match=r"probe_bounds must give one \(lo, hi\) per axis"):
        validate_blockset(
            request.getfixturevalue(blocks), dataclasses.replace(density, evaluate=evaluate),
            n_probe=10_000, probe_bounds=bounds,
        )
    assert calls == []


def _two_rectangles():
    return BlockSet([
        rect_block(-4.0, 0.0, 0.0, 1.0, label="left"), rect_block(0.0, 4.0, 0.0, 1.0, label="right"),
    ])


def _one_slab():
    return BlockSet([slab_block(((0.0, 1.0), (0.0, 1.0)), 0.0, 1.0)])


def _sample_ten(cover, density):
    return PatternBlockSampler(density, cover, UniformSource(1)).sample_array(10)


@pytest.mark.parametrize("run, cover, density, message", [
    (_sample_ten, _two_rectangles, "mixture_density",
     "block 0 ('left'): its kernel returned 1 coordinates for a 2-d density"),
    (validate_blockset, _two_rectangles, "mixture_density",
     "block 0 ('left'): its kernel returned 1 coordinates for a 2-d density"),
    (_sample_ten, _one_slab, "half_normal_density",
     "block 0 ('slab'): its kernel returned 2 coordinates for a 1-d density"),
], ids=["rectangles-sample", "rectangles-validate", "slab-sample"])
def test_cover_of_the_wrong_dimension_names_its_block(request, run, cover, density, message):
    with pytest.raises(ValueError) as raised:
        run(cover(), request.getfixturevalue(density))
    assert str(raised.value) == message


def test_readme_library_use_example_runs():
    # the first python block under "## Library use", run as written
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(code, namespace)
    points = np.array(namespace["points"])
    assert points.shape == (10_000, 1)
    assert ((0.0 <= points) & (points <= 1.0)).all()


# ---------------------------------------------------------------------------
# validation against a brute-force reference
#
# validate_blockset asks each block, on arrays, only about the cover probes
# and overlap samples its height band holds. The reference below asks
# every block, on floats, about every probe, so the two must report the
# same results.


def _reference_cover(blockset, density, bounds, n_probe, tolerance=1e-12, rungs=8):
    violations = 0
    missed = set()
    checked = 0
    if len(bounds) == 1:
        (lo, hi), = bounds
        step = (hi - lo) / n_probe
        points = [(lo + (k + 0.5) * step,) for k in range(n_probe)]
    else:
        (x_lo, x_hi), (y_lo, y_hi) = bounds
        per_axis = max(1, math.isqrt(n_probe))
        sx = (x_hi - x_lo) / per_axis
        sy = (y_hi - y_lo) / per_axis
        points = [
            (x_lo + (i + 0.5) * sx, y_lo + (j + 0.5) * sy)
            for i in range(per_axis)
            for j in range(per_axis)
        ]
    for point in points:
        fx = float(density.evaluate(np.array([point]))[0])
        if not (fx > tolerance) or math.isinf(fx):
            continue
        for j in range(rungs):
            y = (fx - tolerance) * j / (rungs - 1)
            checked += 1
            if not any(b.contains(point, y) for b in blockset.blocks):
                violations += 1
                missed.add(j / (rungs - 1))
    if checked == 0:
        return CheckResult(
            "fail", f"0 probes: no grid point in probe bounds {bounds!r} has {tolerance:g} < f(x) < inf"
        )
    if violations == 0:
        return CheckResult("pass", f"{checked} probes, 0 uncovered")
    return CheckResult(
        "fail", f"{violations} of {checked} probes uncovered, at heights "
        f"[{min(missed):.3g}, {max(missed):.3g}] * f(x)"
    )


class _Units:
    """A source that hands out the given units in order."""

    def __init__(self, units):
        self.next_unit = units.__next__


def _reference_overlap(blockset, n_probe, tolerance=1e-12, seed=0):
    # the probe points of a sampling round: attempt k reads a slot of SLOT
    # main-stream units, skips the selection unit, then reads its block's
    # overflow stream; attempts run block by block
    blocks = blockset.blocks
    source = UniformSource(seed)
    per_block = max(100, n_probe // len(blocks))
    hits = 0
    weighted = 0.0
    for i, block in enumerate(blocks):
        overflow = source.overflow(i)
        block_hits = 0
        for _ in range(per_block):
            slot = [source.next_unit() for _ in range(SLOT)]
            units = itertools.chain(slot[1:], iter(overflow.next_unit, None))
            point, y = block.sample_uniform(_Units(units))
            block_hits += sum(
                other.contains(point, y) for j, other in enumerate(blocks) if j != i
            )
        hits += block_hits
        weighted += block.measure * block_hits / per_block
    estimate = weighted / (2.0 * blockset.total_measure)
    if estimate <= tolerance:
        return CheckResult("pass", f"{per_block} probes/block, {hits} double-hits")
    return CheckResult(
        "fail", f"{hits} double-hits, overlap fraction estimate {estimate:.3e}"
    )


def _assert_matches_reference(blockset, density, n_probe, probe_bounds=None):
    report = validate_blockset(blockset, density, n_probe=n_probe, probe_bounds=probe_bounds)
    bounds = probe_bounds or density.domain_bounds
    assert report.cover == _reference_cover(blockset, density, bounds, n_probe)
    assert report.overlap == _reference_overlap(blockset, n_probe)
    return report


def _halved_radius_blocks(mixture_blocks):
    # the top cylinder over the (0, 0) bump with half its radius
    *rest, top = mixture_blocks.blocks
    lo, hi = top.height_band
    return BlockSet(rest + [cylinder_block((0.0, 0.0), 0.5, lo, hi)])


def test_validate_matches_reference_on_shipped_covers(
    arcsine_density, arcsine_blocks, mixture_density, mixture_blocks,
    half_normal_density, zigg_blocks,
):
    for blockset, density, n_probe, bounds in (
        (arcsine_blocks, arcsine_density, 20_000, None),
        (mixture_blocks, mixture_density, 20_000, None),
        (zigg_blocks, half_normal_density, 1_000, ((0.0, 8.0),)),
    ):
        report = _assert_matches_reference(blockset, density, n_probe, bounds)
        assert report.all_passed()


def test_validate_matches_reference_on_broken_covers(
    arcsine_density, mixture_density, mixture_blocks
):
    density = _uniform_density()
    uncovered = _assert_matches_reference(
        BlockSet([rect_block(0.0, 0.5, 0.0, 1.0)]), density, 1000
    )
    assert uncovered.cover.status == "fail"
    overlapping = _assert_matches_reference(
        BlockSet([rect_block(0.0, 0.6, 0.0, 1.0), rect_block(0.4, 1.0, 0.0, 1.0)]),
        density,
        2000,
    )
    assert overlapping.overlap.status == "fail"
    stacked = _assert_matches_reference(
        BlockSet([rect_block(0.0, 1.0, 0.0, 0.6), rect_block(0.0, 1.0, 0.4, 1.0)]),
        density,
        2000,
    )
    assert stacked.overlap.status == "fail"
    halved = _assert_matches_reference(
        _halved_radius_blocks(mixture_blocks), mixture_density, 20_000
    )
    assert halved.cover.status == "fail"
    # both covers miss only a thin band just under the graph
    ramp = _ramp_density()
    short_rect = _assert_matches_reference(
        BlockSet([rect_block(0.0, 1.0, 0.0, 1.9)]), ramp, 20_000
    )
    assert short_rect.cover == CheckResult(
        "fail", "1000 of 160000 probes uncovered, at heights [1, 1] * f(x)"
    )
    short_strips = BlockSet([
        envelope_block(
            (i - 1) / 8, i / 8, 1.9 if i % 2 else 1.0, arcsine_pdf, arcsine_cdf, arcsine_cdf_inv
        )
        for i in range(1, 9)
    ])
    truncated = _assert_matches_reference(short_strips, arcsine_density, 20_000)
    assert truncated.cover.status == "fail"


def test_validate_fails_a_cover_check_with_no_probes(
    arcsine_density, arcsine_blocks, half_normal_density, zigg_blocks
):
    # probe bounds where f is 0 everywhere leave the cover check nothing to probe
    for blockset, density, bounds in (
        (zigg_blocks, half_normal_density, ((-9.0, -1.0),)),
        (arcsine_blocks, arcsine_density, ((2.0, 3.0),)),
    ):
        report = validate_blockset(blockset, density, n_probe=1000, probe_bounds=bounds)
        assert report.cover == _reference_cover(blockset, density, bounds, 1000)
        assert report.cover == CheckResult(
            "fail", f"0 probes: no grid point in probe bounds {bounds!r} has 1e-12 < f(x) < inf"
        )
        assert not report.all_passed()


@st.composite
def _rect_covers(draw):
    # a tiling of the unit square by columns of stacked bands, with some
    # block edges moved by 1/8: into gaps, side overlaps or band overlaps
    cuts = st.sets(st.sampled_from([0.25, 0.5, 0.75]), max_size=2)
    xs = [0.0, *sorted(draw(cuts)), 1.0]
    blocks = []
    for x_lo, x_hi in zip(xs, xs[1:]):
        ys = [0.0, *sorted(draw(cuts)), 1.0]
        blocks += [[x_lo, x_hi, y_lo, y_hi] for y_lo, y_hi in zip(ys, ys[1:])]
    for edges in blocks:
        side = draw(st.integers(0, 9))
        if side < 4:
            edges[side] += draw(st.sampled_from([-0.125, 0.125]))
        edges[2] = max(0.0, edges[2])
    return BlockSet([rect_block(*edges) for edges in blocks])


@given(_rect_covers())
@settings(max_examples=40, deadline=None)
def test_validate_matches_reference_on_random_rect_covers(blockset):
    _assert_matches_reference(blockset, _uniform_density(), 400)


def test_validate_contains_budget(half_normal_density, zigg_blocks):
    # brute force asks every block for every probe: 18,769,394 calls here,
    # each about one probe
    calls = probes = 0

    def counted(contains):
        def wrapper(point, y):
            nonlocal calls, probes
            calls += 1
            probes += np.size(y)
            return contains(point, y)

        return wrapper

    blockset = BlockSet(
        [dataclasses.replace(b, contains=counted(b.contains)) for b in zigg_blocks.blocks]
    )
    report = validate_blockset(
        blockset, half_normal_density, n_probe=20_000, probe_bounds=((0.0, 8.0),)
    )
    assert report.all_passed()
    assert calls <= 300_000
    assert probes <= 1_000_000


def test_validate_rejects_a_pointwise_evaluate():
    cover = BlockSet([rect_block(0.0, 1.0, 0.0, 2.0)])
    with pytest.raises(DensityValueError, match=POINTWISE_MESSAGE):
        validate_blockset(cover, _pointwise_ramp(), n_probe=8)


def test_validate_names_a_contains_that_cannot_take_arrays():
    def unit_square(label, contains):
        return PatternBlock(1.0, lambda s: ((s.next_unit(),), s.next_unit()), contains, label=label)

    for blocks, message in (
        (
            [rect_block(0.0, 1.0, 0.0, 0.5), unit_square("scalar", lambda p, y: 0 <= y <= 1)],
            r"^block 1 \('scalar'\): contains must take numpy arrays",
        ),
        # one bool for all the probes is not spread over them
        (
            [unit_square("constant", lambda p, y: True)],
            r"^block 0 \('constant'\): contains returned shape \(\) for 8000 probes$",
        ),
    ):
        with pytest.raises(ValueError, match=message):
            validate_blockset(BlockSet(blocks), _uniform_density(), n_probe=1000)


def _flat(x1, x2):
    # a constant density: its superlevel set below 1 is the whole box
    return 1.0 + 0.0 * (x1 * x2)


def _not_called(x1, x2):
    raise AssertionError("f_xy called by the constructor")


_BOX = ((0.0, 2.0), (0.0, 1.5))
# each band constructor on [y_lo, y_hi] (a superlevel block of f_xy),
# its footprint area, and the uniforms its footprint point takes
BAND_BLOCKS = {
    "rect": (lambda lo, hi, f_xy: rect_block(0.5, 2.5, lo, hi), 2.0, 1),
    "slab": (lambda lo, hi, f_xy: slab_block(_BOX, lo, hi), 3.0, 2),
    "cylinder": (
        lambda lo, hi, f_xy: cylinder_block((1.0, -1.0), 0.5, lo, hi), math.pi * 0.25, 2
    ),
    "superlevel": (
        lambda lo, hi, f_xy: superlevel_block(_BOX, f_xy, lo, hi, area=3.0), 3.0, 2
    ),
}


@pytest.mark.parametrize("kind", list(BAND_BLOCKS))
def test_constructors_declare_height_bands(kind, stub_source):
    make, area, footprint_draws = BAND_BLOCKS[kind]
    for y_lo, y_hi in [(-0.5, 1.0), (0.5, 0.5), (1.0, 0.5), (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError, match=r"^need 0 <= y_lo < y_hi$"):
            make(y_lo, y_hi, _not_called)
    block = make(0.25, 0.75, _flat)
    assert block.label == kind
    assert block.height_band == (0.25, 0.75)
    assert block.measure == pytest.approx(area * 0.5, rel=1e-12)
    values = [0.1, 0.2, 0.3, 0.4]
    source = stub_source(values)
    point, y = block.sample_uniform(source)
    # the height takes the first draw, the footprint point the next ones
    assert source.draws_issued == footprint_draws + 1
    assert y == 0.25 + 0.5 * values[0]
    assert block.contains(point, 0.25) and block.contains(point, 0.75)
    assert not block.contains(point, 0.2) and not block.contains(point, 0.8)


def test_other_blocks_declare_height_bands(zigg_layout, zigg_blocks, mixture_blocks):
    assert zigg_blocks.blocks[-1].height_band == (0.0, zigg_layout.f_at_x[-1])
    assert [b.height_band for b in mixture_blocks.blocks[:2]] == [
        (0.0, distributions.B0),
        (distributions.B0, distributions.B1),
    ]
    bare = PatternBlock(1.0, lambda s: ((0.0,), 0.0), lambda p, y: True)
    assert bare.height_band == (-math.inf, math.inf)
    with pytest.raises(ValueError):
        PatternBlock(1.0, lambda s: ((0.0,), 0.0), lambda p, y: True, height_band=(1.0, 0.0))


def test_validate_flags_samples_outside_declared_band():
    # the upper block claims (0.5, 1) but samples the whole unit square
    upper = [
        rect_block(0.0, 1.0, 0.0, 0.5, label="low"),
        dataclasses.replace(
            rect_block(0.0, 1.0, 0.0, 1.0, label="liar"), height_band=(0.5, 1.0)
        ),
    ]
    # a lone block claims [0, 1], and its contains keeps to it, but it
    # samples heights up to 2: one block is probed like many
    lone = [
        dataclasses.replace(
            rect_block(0.0, 1.0, 0.0, 2.0, label="liar"),
            height_band=(0.0, 1.0), contains=rect_block(0.0, 1.0, 0.0, 1.0).contains,
        )
    ]
    for blocks, liar in ((upper, 1), (lone, 0)):
        report = validate_blockset(BlockSet(blocks), _uniform_density(), n_probe=1000)
        assert report.overlap.status == "fail"
        assert f"block {liar} ('liar') sampled height" in report.overlap.detail


def test_validate_flags_contains_outside_declared_band():
    # the lower block samples inside its band but its membership test
    # accepts the whole unit square
    low = rect_block(0.0, 1.0, 0.0, 0.5)
    liar = dataclasses.replace(
        low, contains=rect_block(0.0, 1.0, 0.0, 1.0).contains, label="liar"
    )
    blocks = [liar, rect_block(0.0, 1.0, 0.5, 1.0, label="high")]
    report = validate_blockset(BlockSet(blocks), _uniform_density(), n_probe=1000)
    assert report.cover.status == "fail"
    assert "block 0 ('liar') contains height" in report.cover.detail
