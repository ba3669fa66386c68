"""Orthogonal product bases: tile constructions, certification, winding.

The package builds two families of unextendible product bases in arbitrary
allowed dimensions, certifies their defining properties numerically
(orthonormality, completeness, unextendibility via see-saw search with an
independent grid oracle), analyzes the bound-entanglement signature of the
complement state (PPT plus range criterion), and implements winding moves
on complete product bases together with a certified depth-bounded unwinder.
"""

from .basis import Family, ProductBasis, ProductState
from .boundent import (
    DensityMatrix,
    RangeCriterionReport,
    RangeVerdict,
    is_ppt,
    range_criterion_report,
    upb_density_state,
)
from .config import TOLERANCES, Tolerances
from .errors import (
    BasisFileError,
    CompleteBasisInput,
    CountMismatch,
    DimensionMismatch,
    DimensionTooLarge,
    IncompleteBasis,
    IndexOutOfRange,
    InvalidDimension,
    InvalidProjector,
    InvalidSplit,
    NonMonotoneSeesaw,
    NonOrthonormalInput,
    NoTileMetadata,
    NoValidSplit,
    ProductBasisError,
    WindingInvariantError,
    ZeroState,
)
from .families import (
    cartesian_basis,
    cyclic_shift_basis,
    fourier_local_state,
    gen_tiles1,
    gen_tiles2,
    swap_shift_basis,
)
from .io import load_basis, save_basis
from .linalg import partial_transpose, top_eigenvector
from .render import render_tiles
from .verify import (
    GramDeviations,
    GridOracleResult,
    SeesawResult,
    Verdict,
    VerificationReport,
    basis_set_equal_up_to_phase,
    check_orthonormal,
    check_upb,
    complement_projector,
    gram_matrix,
    grid_oracle_max_product_overlap,
    seesaw_max_product_overlap,
)
from .winding import (
    SplitClass,
    SubspacePair,
    WindingMove,
    apply_winding_move,
    enumerate_splits,
    inverse_move,
    is_cartesian,
    move_from_record,
    move_to_record,
    random_wound_basis,
    unwind,
    validate_split,
    wind_basis,
)

__all__ = [
    # basis
    "Family", "ProductBasis", "ProductState",
    # boundent
    "DensityMatrix", "RangeCriterionReport", "RangeVerdict", "is_ppt",
    "range_criterion_report", "upb_density_state",
    # config
    "TOLERANCES", "Tolerances",
    # errors
    "BasisFileError", "CompleteBasisInput", "CountMismatch", "DimensionMismatch",
    "DimensionTooLarge", "IncompleteBasis", "IndexOutOfRange", "InvalidDimension",
    "InvalidProjector", "InvalidSplit", "NonMonotoneSeesaw", "NonOrthonormalInput",
    "NoTileMetadata", "NoValidSplit", "ProductBasisError", "WindingInvariantError",
    "ZeroState",
    # families
    "cartesian_basis", "cyclic_shift_basis", "fourier_local_state", "gen_tiles1",
    "gen_tiles2", "swap_shift_basis",
    # io
    "load_basis", "save_basis",
    # linalg
    "partial_transpose", "top_eigenvector",
    # render
    "render_tiles",
    # verify
    "GramDeviations", "GridOracleResult", "SeesawResult", "Verdict",
    "VerificationReport", "basis_set_equal_up_to_phase", "check_orthonormal",
    "check_upb", "complement_projector", "gram_matrix",
    "grid_oracle_max_product_overlap", "seesaw_max_product_overlap",
    # winding
    "SplitClass", "SubspacePair", "WindingMove", "apply_winding_move",
    "enumerate_splits", "inverse_move", "is_cartesian", "move_from_record",
    "move_to_record", "random_wound_basis", "unwind", "validate_split", "wind_basis",
]

__version__ = "0.1.0"
