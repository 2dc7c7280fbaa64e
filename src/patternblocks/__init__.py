"""Block-composed rejection sampling.

Build an envelope of a target density from blocks that each carry an exact
measure and an exact uniform sampler, select blocks by measure weight,
and accept candidates under the graph. The classical ziggurat sampler is
the special case of stacked rectangle layers over a decreasing density.
"""

from .blocks1d import (
    ZigguratError,
    ZigguratLayout,
    build_ziggurat,
    envelope_block,
    rect_block,
    ziggurat_base_block,
    ziggurat_blockset,
)
from .blocks2d import cylinder_block, slab_block, superlevel_block
from .core import (
    BlockSet,
    Density,
    DensityValueError,
    PatternBlock,
    PatternBlockSampler,
    Point,
    RejectionCapError,
    ValidationReport,
    exact_adoption_rate,
    select_block,
    validate_blockset,
)
from .numeric import (
    GofReport,
    QuadratureError,
    chi_square_gof,
    quad_1d,
    quad_2d_grid,
)
from .rng import UniformSource

__version__ = "0.1.0"

__all__ = [
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
