"""omnikit: universal-matrix (omnimosaic) construction, verification, search and bounds."""

from omnikit.core import (
    MosaicError,
    MosaicMatrix,
    ParseError,
    Placement,
    SymmetryOp,
    apply_symmetry,
    decode_target,
    encode_target,
    parse_matrix,
    serialize_matrix,
)
from omnikit.construct import (
    GridDiagram,
    RegionMap,
    build_mosaic,
    canonical_grid,
    higher_dim_side_estimate,
    locate,
    square_omnimosaic,
    thin_strip,
)
from omnikit.verify import (
    VerifyReport,
    contains_target,
    coverage,
    is_omnimosaic,
    verify_placement,
)

__all__ = [
    "MosaicError",
    "MosaicMatrix",
    "ParseError",
    "Placement",
    "SymmetryOp",
    "apply_symmetry",
    "decode_target",
    "encode_target",
    "parse_matrix",
    "serialize_matrix",
    "GridDiagram",
    "RegionMap",
    "build_mosaic",
    "canonical_grid",
    "higher_dim_side_estimate",
    "locate",
    "square_omnimosaic",
    "thin_strip",
    "VerifyReport",
    "contains_target",
    "coverage",
    "is_omnimosaic",
    "verify_placement",
]

__version__ = "0.1.0"
