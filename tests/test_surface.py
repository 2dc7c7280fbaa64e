"""The names other code reaches the package by: the public exports, the
parameters of the library's constructors, and the hooks the benchmark's
traced run (perfbench/traced.py) looks up by name."""

import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import patternblocks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

PUBLIC = [
    "BlockSet",
    "Density",
    "DensityValueError",
    "GofReport",
    "PatternBlock",
    "PatternBlockSampler",
    "Point",
    "QuadratureError",
    "RejectionCapError",
    "UniformSource",
    "ValidationReport",
    "ZigguratError",
    "ZigguratLayout",
    "build_ziggurat",
    "chi_square_gof",
    "cylinder_block",
    "envelope_block",
    "exact_adoption_rate",
    "quad_1d",
    "quad_2d_grid",
    "rect_block",
    "select_block",
    "slab_block",
    "superlevel_block",
    "validate_blockset",
    "ziggurat_base_block",
    "ziggurat_blockset",
]


def test_public_surface_is_pinned():
    # a new export needs a deliberate edit here
    assert patternblocks.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(patternblocks, name) is not None


def _parameters(fn):
    return set(inspect.signature(fn).parameters)


def test_library_knobs_are_pinned():
    # caps and levels are module constants; a new parameter or defaulted
    # field needs a deliberate edit here
    assert _parameters(patternblocks.PatternBlockSampler.__init__) == {
        "self", "density", "blockset", "source",
    }
    assert _parameters(patternblocks.superlevel_block) == {
        "bounding_rect", "f_xy", "y_lo", "y_hi", "domain_rect", "label",
    }
    defaulted = {
        f.name for f in dataclasses.fields(patternblocks.PatternBlock)
        if f.default is not dataclasses.MISSING
    }
    assert defaulted == {"label", "height_band"}


@pytest.fixture(scope="module")
def traced():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("traced")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_build_spans_resolve(traced):
    for module_name, fn_name, _metric in traced.BUILD_SPANS:
        module = importlib.import_module(f"patternblocks.{module_name}")
        assert callable(getattr(module, fn_name)), (module_name, fn_name)


@pytest.mark.parametrize(
    "density_fixture, blocks_fixture",
    [("half_normal_density", "zigg_blocks"), ("mixture_density", "mixture_blocks")],
)
def test_traced_copy_keeps_cover(traced, request, density_fixture, blocks_fixture):
    density = request.getfixturevalue(density_fixture)
    blockset = request.getfixturevalue(blocks_fixture)
    copy_density, copy_blocks = traced._traced_copy(density, blockset, traced.Tracer())
    assert copy_density.K == density.K
    assert [(b.measure, b.label) for b in copy_blocks.blocks] == [
        (b.measure, b.label) for b in blockset.blocks
    ]
