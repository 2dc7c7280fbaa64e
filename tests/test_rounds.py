"""The sampling rounds: slot layout, exact rewind, kernels against the
scalar samplers, and the vectorized selection."""

import dataclasses
import math
from bisect import bisect_right

import numpy as np
import pytest

from patternblocks import blocks1d, core, distributions
from patternblocks.blocks1d import rect_block
from patternblocks.core import (
    BlockSet,
    Density,
    PatternBlockSampler,
    RejectionCapError,
)
from patternblocks.rng import SLOT, UniformSource

COVERS = ["arcsine_blocks", "mixture_blocks", "zigg_blocks"]
TARGETS = {
    "arcsine-mod": ("arcsine_density", "arcsine_blocks"),
    "gauss-mix-2d": ("mixture_density", "mixture_blocks"),
    "half-normal-zigg": ("half_normal_density", "zigg_blocks"),
}


def _overflow_positions(sampler):
    """Draws issued on each block's overflow stream, 0 for one never read."""
    source = sampler.source
    return [source.overflow(i).draws_issued for i in range(len(sampler.blockset))]


# the blocks whose kernels read overflow at seed 6 and n = 6000
OVERFLOW_READERS = {"arcsine-mod": set(), "gauss-mix-2d": {1}, "half-normal-zigg": {127}}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_points_do_not_depend_on_round_or_call_sizes(request, monkeypatch, target):
    density, blockset = (request.getfixturevalue(name) for name in TARGETS[target])
    n = 6000
    reference = PatternBlockSampler(density, blockset, UniformSource(6))
    expected = reference.sample_many(n)
    positions = _overflow_positions(reference)
    assert {i for i, read in enumerate(positions) if read} == OVERFLOW_READERS[target]
    # the same blocks with no kernel: every attempt runs on the adapter
    bare = BlockSet([dataclasses.replace(b, kernel=None) for b in blockset.blocks])
    monkeypatch.setattr(core, "ROUND", 7)
    for cover, size in ((blockset, 1), (blockset, 13), (blockset, 4096), (bare, 13)):
        sampler = PatternBlockSampler(density, cover, UniformSource(6))
        points = []
        while len(points) < n:
            points += sampler.sample_many(min(size, n - len(points)))
        assert points == expected, size
        assert (sampler.attempts, sampler.accepted) == (reference.attempts, n)
        # the main stream ends just after the last attempt's slot, and each
        # overflow stream just after the last attempt's reads
        assert sampler.source.draws_issued == SLOT * reference.attempts
        assert _overflow_positions(sampler) == positions, size


def test_rejection_cap_counts_across_rounds(monkeypatch):
    # five accepted attempts, then nothing under the graph, in rounds of 7
    monkeypatch.setattr(core, "REJECTION_CAP", 50)
    monkeypatch.setattr(core, "ROUND", 7)
    calls = iter([1.0] * 5)
    density = Density(
        dim=1,
        evaluate=lambda p: np.array([next(calls, 0.0) for _ in p]),
        domain_bounds=((0.0, 1.0),),
        K=0.5,  # the cover's measure
    )
    sampler = PatternBlockSampler(
        density, BlockSet([rect_block(0.0, 1.0, 0.0, 0.5)]), UniformSource(3)
    )
    with pytest.raises(RejectionCapError):
        sampler.sample_many(10)
    assert (sampler.accepted, sampler.attempts) == (5, 55)
    assert sampler.source.draws_issued == SLOT * 55


class _SlotThenOverflow:
    """An attempt's slot units, then its block's overflow stream."""

    def __init__(self, slot, overflow):
        self.slot = list(slot)
        self.overflow = overflow
        self.overflow_units = 0

    def next_unit(self):
        if self.slot:
            return self.slot.pop(0)
        self.overflow_units += 1
        return self.overflow.next_unit()


def _assert_kernel_matches_scalar(block, units, i):
    """block's kernel on the slot units and block i's overflow stream gives,
    bit for bit, the points, heights and overflow reads of sample_uniform
    run attempt by attempt; returns the overflow units read."""
    g = len(units)
    kernel = block.kernel
    params = np.array([kernel.params] * g, float).reshape(g, len(kernel.params))
    coords, heights, used = kernel.sample(params, units, UniformSource(7).overflow(i))
    overflow = UniformSource(7).overflow(i)
    read = 0
    for j, slot in enumerate(units.tolist()):
        source = _SlotThenOverflow(slot, overflow)
        point, y = block.sample_uniform(source)
        assert point == tuple(float(c[j]) for c in coords), (block.label, j)
        assert y == heights[j], (block.label, j)
        read += source.overflow_units
        assert (0 if used is None else used[j]) == source.overflow_units, (block.label, j)
    assert (used is None) == (read == 0), block.label
    return read


@pytest.mark.parametrize("cover", COVERS)
def test_kernels_match_scalar_samplers(request, cover):
    # every shipped block has a kernel; on the same slot units and overflow
    # stream it gives what sample_uniform gives
    blocks = request.getfixturevalue(cover).blocks
    g = 400
    overflow_readers = set()
    for i, block in enumerate(blocks):
        units = UniformSource(100 + i).units(g * (SLOT - 1)).reshape(g, SLOT - 1)
        if _assert_kernel_matches_scalar(block, units, i):
            overflow_readers.add(block.label)
    expected = {"mixture_blocks": {"superlevel"}, "zigg_blocks": {"base"}}
    assert overflow_readers == expected.get(cover, set())


def test_base_block_tail_branch_reads_overflow(zigg_layout, zigg_blocks):
    # slots that force the tail branch: its proposals and height spill over
    base = zigg_blocks.blocks[-1]
    units = np.array([[0.999, 0.3, 0.7], [0.5, 0.2, 0.4], [0.9999, 0.6, 0.1]])
    coords, heights, used = base.kernel.sample(
        np.empty((3, 0)), units, UniformSource(7).overflow(len(zigg_blocks) - 1)
    )
    r = zigg_layout.x[-1]
    assert coords[0][0] >= r and coords[0][2] >= r and coords[0][1] < r
    assert used[0] > 0 and used[1] == 0 and used[2] > 0
    _assert_kernel_matches_scalar(base, units, len(zigg_blocks) - 1)


@pytest.mark.parametrize("branch", ["rectangle", "tail"])
def test_base_kernel_rounds_of_one_branch(zigg_layout, zigg_blocks, branch):
    # forced slots: no attempt takes the tail (no overflow read, used is
    # None), or every attempt does
    base = zigg_blocks.blocks[-1]
    r, f_r = zigg_layout.x[-1], zigg_layout.f_at_x[-1]
    p_rect = r * f_r / zigg_layout.layer_area
    units = UniformSource(5).units(3 * 300).reshape(300, 3)
    units[:, 0] *= p_rect
    if branch == "tail":
        units[:, 0] = np.maximum(p_rect, 1.0 - units[:, 0])
    read = _assert_kernel_matches_scalar(base, units, len(zigg_blocks) - 1)
    assert (read == 0) == (branch == "rectangle")


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_shipped_targets_never_sample_on_the_adapter(zigg_layout, monkeypatch, target):
    # every block of a shipped cover brings its own kernel, so BlockSet wraps
    # no block in the adapter; only the ziggurat base's kernel hands the
    # adapter rows, and only those of its tail branch
    adapter = core._adapter
    calls, branch_units = [], []

    def counted(sample_uniform):
        sample = adapter(sample_uniform)

        def counted_sample(params, units, overflow):
            branch_units.extend(units[:, 0].tolist())
            return sample(params, units, overflow)

        return counted_sample

    monkeypatch.setattr(core, "_adapter", lambda sample: calls.append(sample))
    monkeypatch.setattr(blocks1d, "_adapter", counted)
    entry = distributions.TARGETS[target]
    sampler = PatternBlockSampler(entry.density(), entry.cover(), UniformSource(8))
    assert len(sampler.sample_array(20000)) == 20000
    assert calls == []
    if target != "half-normal-zigg":
        assert branch_units == []
        return
    p_rect = zigg_layout.x[-1] * zigg_layout.f_at_x[-1] / zigg_layout.layer_area
    # 20000 points take about 20240 attempts, of which about 11.5 are
    # expected to select the base and take its tail (18 rows at seed 8,
    # the last round's overshoot included)
    assert branch_units and min(branch_units) >= p_rect


@pytest.mark.parametrize("cover", COVERS)
def test_round_selection_matches_select_block(request, cover):
    # the cover's select against bisect_right, on 0, every cumulative
    # entry, their neighbours on both sides and the largest unit below 1
    cover = request.getfixturevalue(cover)
    array = cover.cumulative
    m = len(cover.guide)
    assert m & (m - 1) == 0 and 2 * len(array) <= m < 4 * len(array)
    units = np.array([0.0, *array, *np.nextafter(array, 0.0), *np.nextafter(array, 1.0),
                      1.0 - 2.0**-53])
    units = units[units < 1.0]
    assert cover.select(units).tolist() == [
        bisect_right(array, u) for u in units.tolist()
    ]


def test_blocks_of_one_kind_share_a_kernel(zigg_blocks, mixture_blocks):
    # one kernel call a round serves all 127 layers, and all three disks;
    # the ziggurat base is a kind of its own
    layers = {b.kernel.sample for b in zigg_blocks.blocks[:-1]}
    disks = {b.kernel.sample for b in mixture_blocks.blocks[2:]}
    base = zigg_blocks.blocks[-1].kernel
    assert len(layers) == len(disks) == 1 and base is not None and base.sample not in layers


def _arcsine_mod_at(x):
    if not 0.0 < x < 1.0:
        return 0.0
    return (1.0 + math.sin(8.0 * math.pi * x)) / (math.pi * math.sqrt(x * (1.0 - x)))


def _mixture_at(x1, x2):
    if not (-4.0 <= x1 <= 4.0 and -4.0 <= x2 <= 4.0):
        return 0.0
    return distributions.MIX_COEFF * (
        math.exp(-x1 * x1 - x2 * x2) + 0.5 * math.exp(-((x1 - 2.0) ** 2) - (x2 - 2.0) ** 2)
    )


def _half_normal_at(x):
    return math.sqrt(2.0 / math.pi) * math.exp(-0.5 * x * x) if x >= 0.0 else 0.0


# each target's density written point by point with math, independently
POINTWISE = {
    "arcsine-mod": _arcsine_mod_at,
    "gauss-mix-2d": _mixture_at,
    "half-normal-zigg": _half_normal_at,
}


def test_shipped_densities_evaluate_arrays_like_points():
    # evaluate maps an (m, dim) array to m values, those of the point-wise
    # formula up to the last bits of numpy's transcendentals
    rng = np.random.default_rng(3)
    for name, entry in distributions.TARGETS.items():
        density = entry.density()
        lo = [max(a, -5.0) for a, _ in density.domain_bounds]
        hi = [min(b, 5.0) for _, b in density.domain_bounds]
        points = rng.uniform(np.array(lo) - 0.5, np.array(hi) + 0.5, (2000, density.dim))
        values = density.evaluate(points)
        assert values.shape == (2000,) and values.dtype == np.float64, name
        reference = [POINTWISE[name](*p) for p in points.tolist()]
        np.testing.assert_allclose(values, reference, rtol=1e-13, atol=1e-14, err_msg=name)
