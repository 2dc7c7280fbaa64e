"""The sampling rounds: slot layout, exact rewind, kernels against the
scalar samplers, and the vectorized selection."""

import numpy as np
import pytest

from patternblocks import core, distributions
from patternblocks.blocks1d import rect_block
from patternblocks.core import (
    BlockSet,
    Density,
    Kernel,
    PatternBlockSampler,
    RejectionCapError,
    select_block,
    select_blocks,
)
from patternblocks.rng import SLOT, UniformSource

COVERS = ["arcsine_blocks", "mixture_blocks", "zigg_blocks"]
TARGETS = {
    "arcsine-mod": ("arcsine_density", "arcsine_blocks"),
    "gauss-mix-2d": ("mixture_density", "mixture_blocks"),
    "half-normal-zigg": ("half_normal_density", "zigg_blocks"),
}


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_points_do_not_depend_on_round_or_call_sizes(request, monkeypatch, target):
    density, blockset = (request.getfixturevalue(name) for name in TARGETS[target])
    n = 1500
    reference = PatternBlockSampler(density, blockset, UniformSource(6))
    expected = reference.sample_many(n)
    monkeypatch.setattr(core, "ROUND", 7)
    for size in (1, 13, 4096):
        sampler = PatternBlockSampler(density, blockset, UniformSource(6))
        points = []
        while len(points) < n:
            points += sampler.sample_many(min(size, n - len(points)))
        assert points == expected, size
        assert (sampler.attempts, sampler.accepted) == (reference.attempts, n)
        # the main stream ends just after the last attempt's slot
        assert sampler.source.draws_issued == SLOT * reference.attempts


def test_rejection_cap_counts_across_rounds(monkeypatch):
    # five accepted attempts, then nothing under the graph, in rounds of 7
    monkeypatch.setattr(core, "REJECTION_CAP", 50)
    monkeypatch.setattr(core, "ROUND", 7)
    calls = iter([1.0] * 5)
    density = Density(
        dim=1, evaluate=lambda p: next(calls, 0.0), domain_bounds=((0.0, 1.0),), K=1.0
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


@pytest.mark.parametrize("cover", COVERS)
def test_kernels_match_scalar_samplers(request, cover):
    # every shipped block, on the same slot units and overflow stream; a
    # block without a kernel (the ziggurat base) runs through the adapter
    blocks = request.getfixturevalue(cover).blocks
    g = 400
    overflow_readers = set()
    for i, block in enumerate(blocks):
        units = UniformSource(100 + i).units(g * (SLOT - 1)).reshape(g, SLOT - 1)
        kernel = block.kernel or Kernel(core._adapter(block.sample_uniform))
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
            assert (0 if used is None else used[j]) == read, (block.label, j)
        if read:
            overflow_readers.add(block.label)
    expected = {"mixture_blocks": {"superlevel"}, "zigg_blocks": {"base"}}
    assert overflow_readers == expected.get(cover, set())


def test_base_block_tail_branch_reads_overflow(zigg_layout, zigg_blocks):
    # slots that force the tail branch: its proposals and height spill over
    base = zigg_blocks.blocks[-1]
    units = np.array([[0.999, 0.3, 0.7], [0.5, 0.2, 0.4], [0.9999, 0.6, 0.1]])
    coords, heights, used = core._adapter(base.sample_uniform)(
        np.empty((3, 0)), units, UniformSource(7).overflow(len(zigg_blocks) - 1)
    )
    r = zigg_layout.x[-1]
    assert coords[0][0] >= r and coords[0][2] >= r and coords[0][1] < r
    assert used[0] > 0 and used[1] == used[0] and used[2] > used[1]


@pytest.mark.parametrize("cover", COVERS)
def test_round_selection_matches_select_block(request, cover):
    cumulative = request.getfixturevalue(cover).cumulative
    units = [0.0, *cumulative[:-1], *np.nextafter(cumulative, 0.0).tolist(), 1.0 - 2.0**-53]
    assert select_blocks(np.array(cumulative), np.array(units)).tolist() == [
        select_block(cumulative, u) for u in units
    ]


def test_blocks_of_one_kind_share_a_kernel(zigg_blocks, mixture_blocks):
    # one kernel call a round serves all 127 layers, and all three disks
    layers = {b.kernel.sample for b in zigg_blocks.blocks[:-1]}
    disks = {b.kernel.sample for b in mixture_blocks.blocks[2:]}
    assert len(layers) == len(disks) == 1 and zigg_blocks.blocks[-1].kernel is None


def test_shipped_densities_evaluate_arrays_like_points():
    rng = np.random.default_rng(3)
    for name, entry in distributions.TARGETS.items():
        density = entry.density()
        if density.evaluate_array is None:
            continue
        lo = [max(a, -5.0) for a, _ in density.domain_bounds]
        hi = [min(b, 5.0) for _, b in density.domain_bounds]
        points = rng.uniform(np.array(lo) - 0.5, np.array(hi) + 0.5, (2000, density.dim))
        scalar = [density.evaluate(tuple(p)) for p in points.tolist()]
        np.testing.assert_allclose(
            density.evaluate_array(points), scalar, rtol=1e-13, atol=1e-14, err_msg=name
        )
