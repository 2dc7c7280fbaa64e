import math

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chi2

from patternblocks import blocks1d
from patternblocks.blocks1d import (
    AREA_TOL,
    ZigguratError,
    build_ziggurat,
    envelope_block,
    rect_block,
    ziggurat_base_block,
)
from patternblocks.core import PatternBlockSampler
from patternblocks.distributions import (
    arcsine_cdf,
    arcsine_cdf_inv,
    arcsine_modulated_blockset,
    arcsine_pdf,
    half_normal_pdf,
    half_normal_pdf_inv,
    half_normal_tail_mass,
    half_normal_tail_sampler,
)
from patternblocks.rng import UniformSource

# frozen from the tanh-sinh quadrature of the arcsine pdf over [0, 1/8]
FIRST_STRIP_MEASURE = 0.46010691232523177
# frozen from the independent equal-area bisection (brentq + erfc residual)
ZIGG_R_128 = 3.442619855896636
ZIGG_V_128 = 0.007909081003880564
ZIGG_RECT_BRANCH = 0.9271586026095812
ZIGG_V_2 = 0.62217282965369


# ---------------------------------------------------------------------------
# rectangles


def test_rect_block_measure():
    assert rect_block(0.0, 2.0, 3.0, 4.0).measure == 2.0


def test_rect_block_sampler_moments():
    block = rect_block(0.0, 1.0, 0.0, 1.0)
    source = UniformSource(8)
    pts = [block.sample_uniform(source) for _ in range(100_000)]
    xs = np.array([p[0][0] for p in pts])
    ys = np.array([p[1] for p in pts])
    assert abs(xs.mean() - 0.5) < 0.005
    assert abs(ys.mean() - 0.5) < 0.005


def test_rect_block_rejects_degenerate():
    # bad bands: test_core.py::test_constructors_declare_height_bands
    with pytest.raises(ValueError, match="need x_lo < x_hi"):
        rect_block(1.0, 1.0, 0.0, 1.0)


def test_rect_block_contains():
    block = rect_block(0.0, 2.0, 1.0, 3.0)
    assert block.contains((1.0,), 2.0)
    assert block.contains((0.0,), 1.0)
    assert not block.contains((2.5,), 2.0)
    assert not block.contains((1.0,), 0.5)


# ---------------------------------------------------------------------------
# envelope strips


def _strip(i):
    scale = 2.0 if i % 2 == 1 else 1.0
    return envelope_block(
        (i - 1) / 8.0, i / 8.0, scale, arcsine_pdf, arcsine_cdf, arcsine_cdf_inv
    )


def test_envelope_left_endpoint(stub_source):
    block = _strip(1)
    point, _ = block.sample_uniform(stub_source([0.0, 0.5]))
    assert point[0] == 0.0
    block2 = _strip(2)
    point2, _ = block2.sample_uniform(stub_source([0.0, 0.5]))
    assert abs(point2[0] - 0.125) < 1e-12


def test_first_strip_measure_against_quadrature_oracle():
    block = _strip(1)
    assert abs(block.measure - FIRST_STRIP_MEASURE) < 1e-13
    mp.mp.dps = 30
    oracle = 2.0 * mp.quad(
        lambda x: 1 / (mp.pi * mp.sqrt(x * (1 - x))), [0, mp.mpf(1) / 8]
    )
    assert abs(block.measure - float(oracle)) < 1e-12


def test_strip_measures_sum_to_three_halves():
    blockset = arcsine_modulated_blockset()
    assert abs(blockset.total_measure - 1.5) < 1e-12


def test_envelope_rejects_bad_strip():
    with pytest.raises(ValueError):
        _ = envelope_block(0.5, 0.5, 2.0, arcsine_pdf, arcsine_cdf, arcsine_cdf_inv)
    with pytest.raises(ValueError):
        _ = envelope_block(0.0, 0.5, 0.0, arcsine_pdf, arcsine_cdf, arcsine_cdf_inv)


def test_envelope_marginal_law():
    # the x-marginal restricted to the strip follows the envelope CDF
    block = _strip(1)
    source = UniformSource(21)
    n = 100_000
    s, t = 0.02, 0.07
    hits = sum(s <= block.sample_uniform(source)[0][0] <= t for _ in range(n))
    p = (arcsine_cdf(t) - arcsine_cdf(s)) / (arcsine_cdf(0.125) - arcsine_cdf(0.0))
    sigma = math.sqrt(n * p * (1.0 - p))
    assert abs(hits - n * p) < 4.0 * sigma


def test_envelope_conditional_height_uniform():
    block = _strip(3)
    source = UniformSource(22)
    ratios = []
    while len(ratios) < 20_000:
        (v,), w = block.sample_uniform(source)
        if 0.30 <= v <= 0.33:  # narrow x-bin inside the strip
            ratios.append(w / (2.0 * arcsine_pdf(v)))
    counts, _ = np.histogram(ratios, bins=10, range=(0.0, 1.0))
    expected = len(ratios) / 10
    statistic = ((counts - expected) ** 2 / expected).sum()
    assert chi2.sf(statistic, 9) > 0.001


# ---------------------------------------------------------------------------
# ziggurat layout


def _oracle_r(n_layers):
    """Independent equal-area bisection via brentq on the walk residual."""
    c = math.sqrt(2.0 / math.pi)
    f = lambda x: c * math.exp(-0.5 * x * x)
    f_inv = lambda y: math.sqrt(-2.0 * math.log(y / c))

    def residual(r):
        v = r * f(r) + half_normal_tail_mass(r)
        x, y = r, f(r)
        for _ in range(n_layers - 2):
            y += v / x
            if y >= f(0.0):
                return -1.0
            x = f_inv(y)
        return f(0.0) - (y + v / x)

    return brentq(residual, 2.0, 5.0, xtol=1e-13)


def test_build_ziggurat_matches_independent_bisection(zigg_layout):
    assert abs(zigg_layout.x[-1] - _oracle_r(128)) < 1e-8
    assert abs(zigg_layout.x[-1] - ZIGG_R_128) < 1e-3
    assert abs(zigg_layout.layer_area - ZIGG_V_128) < 1e-9


def test_layer_areas_equal(zigg_layout):
    xs, fs, v = zigg_layout.x, zigg_layout.f_at_x, zigg_layout.layer_area
    for i in range(1, zigg_layout.n_layers):
        assert abs(xs[i] * (fs[i - 1] - fs[i]) - v) < 1e-10
    base = xs[-1] * fs[-1] + half_normal_tail_mass(xs[-1])
    assert abs(base - v) < 1e-10


def test_two_layer_layout():
    layout = build_ziggurat(
        half_normal_pdf, 2, half_normal_tail_mass, half_normal_pdf_inv, half_normal_tail_sampler
    )
    # both blocks share one area; the rectangle layer spills above the
    # graph, so the common area exceeds half of the unit mass
    base = layout.x[-1] * layout.f_at_x[-1] + half_normal_tail_mass(layout.x[-1])
    assert abs(base - layout.layer_area) < 1e-10
    assert layout.layer_area > 0.5
    assert abs(layout.layer_area - ZIGG_V_2) < 1e-9


def test_build_ziggurat_bad_bracket():
    # a tail mass of 10 is no unit-mass density: even from the bracket's
    # upper end the walk overshoots the peak
    with pytest.raises(ZigguratError, match="upper end r = 20.0 overshoots"):
        build_ziggurat(
            half_normal_pdf, 128, lambda r: 10.0, half_normal_pdf_inv, half_normal_tail_sampler
        )


def test_build_ziggurat_gives_up_when_the_bracket_collapses(monkeypatch):
    # no residual meets a negative tolerance: the bisection runs until the
    # bracket collapses and names the last layout's residual
    monkeypatch.setattr(blocks1d, "AREA_TOL", -1.0)
    with pytest.raises(ZigguratError, match=r"^bisection did not converge; top-layer area"):
        build_ziggurat(
            half_normal_pdf, 128, half_normal_tail_mass, half_normal_pdf_inv,
            half_normal_tail_sampler,
        )


@pytest.mark.parametrize("n_layers", [2, 3, 8, 128])
@pytest.mark.parametrize("rate", [1.0, 10.0, 20.0])
def test_stopping_rule_on_a_peak_that_is_not_flat(rate, n_layers):
    # the rate-lambda exponential has f'(0) < 0; every layout stops at a
    # top-layer area residual within AREA_TOL
    layout = build_ziggurat(
        lambda x: rate * math.exp(-rate * x),
        n_layers,
        lambda r: math.exp(-rate * r),
        lambda y: -math.log(y / rate) / rate,
        lambda r, source: r - math.log1p(-source.next_unit()) / rate,
    )
    x1, f1 = layout.x[1], layout.f_at_x[1]
    assert x1 * (rate - f1) - layout.layer_area <= AREA_TOL

def test_base_block_branch_probability(zigg_layout):
    r, f_r = zigg_layout.x[-1], zigg_layout.f_at_x[-1]
    assert abs(r * f_r / zigg_layout.layer_area - ZIGG_RECT_BRANCH) < 1e-6


def test_base_block_tail_branch_support(zigg_layout, stub_source):
    block = ziggurat_base_block(zigg_layout, half_normal_pdf)
    r = zigg_layout.x[-1]
    # first draw above the rectangle probability forces the tail branch
    source = stub_source([0.999] + [0.3, 0.7] * 50)
    (x,), y = block.sample_uniform(source)
    assert x >= r
    assert 0.0 <= y <= half_normal_pdf(x)


def test_base_block_samples_stay_in_region(zigg_layout):
    block = ziggurat_base_block(zigg_layout, half_normal_pdf)
    r, f_r = zigg_layout.x[-1], zigg_layout.f_at_x[-1]
    source = UniformSource(31)
    for _ in range(20_000):
        (x,), y = block.sample_uniform(source)
        assert x >= 0.0 and y >= 0.0
        assert (x <= r and y <= f_r) or y <= half_normal_pdf(x)


def test_layers_do_not_overlap(zigg_layout):
    # geometry check with an independent generator: uniform points of each
    # rectangle layer (base handled by its rectangle part) must not fall in
    # the interior of any other layer
    rng = np.random.default_rng(17)
    xs, fs = np.array(zigg_layout.x), np.array(zigg_layout.f_at_x)
    x_hi = np.append(xs[1:], xs[-1])         # widths of layers 1..N-1, base
    y_lo = np.append(fs[1:], 0.0)
    y_hi = np.append(fs[:-1], fs[-1])
    n_blocks = len(x_hi)
    per_block = 1_000_000 // n_blocks
    double_hits = 0
    for i in range(n_blocks):
        px = x_hi[i] * rng.random(per_block)
        py = y_lo[i] + (y_hi[i] - y_lo[i]) * rng.random(per_block)
        inside = (
            (px[:, None] < x_hi[None, :])
            & (py[:, None] > y_lo[None, :])
            & (py[:, None] < y_hi[None, :])
        )
        inside[:, i] = False
        double_hits += int(inside.sum())
    assert double_hits == 0


def test_full_ziggurat_moments(zigg_blocks, half_normal_density):
    sampler = PatternBlockSampler(half_normal_density, zigg_blocks, UniformSource(4))
    xs = np.array([p[0] for p in sampler.sample_many(1_000_000)])
    assert abs(xs.mean() - math.sqrt(2.0 / math.pi)) < 0.003
    assert abs(xs.var() - (1.0 - 2.0 / math.pi)) < 0.005
