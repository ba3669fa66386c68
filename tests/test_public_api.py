"""The public API (``prodbasis.__all__``), the ``Tolerances`` fields and the
settable values of the certification entry points are contracts."""

import dataclasses
import inspect

import numpy as np

import prodbasis

PUBLIC_API = [
    "BasisFileError", "CompleteBasisInput", "CountMismatch", "DensityMatrix",
    "DimensionMismatch", "DimensionTooLarge", "Family", "GramDeviations",
    "GridOracleResult", "IncompleteBasis", "IndexOutOfRange", "InvalidDimension",
    "InvalidProjector", "InvalidSplit", "NoTileMetadata", "NoValidSplit",
    "NonMonotoneSeesaw", "NonOrthonormalInput", "ProductBasis", "ProductBasisError",
    "ProductState", "RangeCriterionReport", "RangeVerdict", "SeesawResult",
    "SplitClass", "SubspacePair", "TOLERANCES", "Tolerances", "Verdict",
    "VerificationReport", "WindingInvariantError", "WindingMove", "ZeroState",
    "apply_winding_move", "basis_set_equal_up_to_phase",
    "cartesian_basis", "check_orthonormal", "check_upb", "complement_projector",
    "cyclic_shift_basis", "enumerate_splits", "fourier_local_state", "gen_tiles1",
    "gen_tiles2", "gram_matrix", "grid_oracle_max_product_overlap", "inverse_move",
    "is_cartesian", "is_ppt", "load_basis", "move_from_record",
    "move_to_record", "partial_transpose", "random_wound_basis",
    "range_criterion_report", "render_tiles", "save_basis",
    "seesaw_max_product_overlap", "swap_shift_basis", "top_eigenvector", "unwind",
    "upb_density_state", "validate_split", "wind_basis",
]

TOLERANCE_FIELDS = [
    "unit_norm", "orthonormality", "operator_interval", "upb_margin",
    "extendible_margin", "range_cutoff", "ppt", "ray_grouping",
    "split_inside_residual", "split_outside_overlap", "set_match",
]


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 64
    assert sorted(prodbasis.__all__) == PUBLIC_API


def test_public_api_names_resolve():
    namespace = {}
    exec("from prodbasis import *", namespace)
    assert all(name in namespace for name in PUBLIC_API)
    for removed in ("projector_from_states", "hermitian_eig", "NotHermitian", "kron", "basis_vector"):
        assert not hasattr(prodbasis, removed)
        assert not hasattr(prodbasis.linalg, removed)
    assert not hasattr(prodbasis.ProductBasis, "with_provenance")
    for removed in ("global_vector", "d_a", "d_b"):
        assert not hasattr(prodbasis.ProductState, removed)
    for removed in ("a_projector", "b_projector", "is_proper_for"):
        assert not hasattr(prodbasis.SubspacePair, removed)
    assert not hasattr(prodbasis.DensityMatrix, "dim")
    # a state keeps one private field, its range operand, and no eigenpairs
    rho = prodbasis.DensityMatrix(np.eye(4) / 4, 2, 2)
    assert [f.name for f in dataclasses.fields(rho)] == ["matrix", "d_a", "d_b", "_range"]
    assert set(vars(rho)) == {"matrix", "d_a", "d_b", "_range"}


def test_tolerance_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(prodbasis.Tolerances)] == TOLERANCE_FIELDS


# Each entry point's parameters, with the keyword-only ones marked by "*".
# The see-saw's stop rule and iteration cap are constants of ``verify`` and
# the unextendibility margin is ``tol.upb_margin``, so none is a parameter.
CERTIFICATION_SIGNATURES = {
    prodbasis.check_upb: ["basis", "restarts", "seed", "*tol"],
    prodbasis.seesaw_max_product_overlap: ["q", "d_a", "d_b", "restarts", "seed"],
    prodbasis.range_criterion_report: ["rho", "restarts", "seed"],
    prodbasis.verify.overlap_verdict: ["value", "*tol"],
}

# Every public function that reads a threshold.  Only the three that the
# ``verify --tol/--eta`` path sets take one; the rest, the see-saw included,
# read ``TOLERANCES`` of their module when called.
THRESHOLD_SIGNATURES = {
    **CERTIFICATION_SIGNATURES,
    prodbasis.check_orthonormal: ["basis", "tol"],
    prodbasis.complement_projector: ["basis"],
    prodbasis.grid_oracle_max_product_overlap: ["q", "d_a", "d_b", "resolution"],
    prodbasis.basis_set_equal_up_to_phase: ["b1", "b2"],
    prodbasis.upb_density_state: ["basis"],
    prodbasis.is_ppt: ["rho"],
    prodbasis.validate_split: ["basis", "split"],
    prodbasis.apply_winding_move: ["basis", "move"],
    prodbasis.is_cartesian: ["basis"],
    prodbasis.enumerate_splits: ["basis"],
    prodbasis.unwind: ["basis", "max_depth"],
    prodbasis.wind_basis: ["basis", "k_moves", "seed"],
    prodbasis.random_wound_basis: ["d_a", "d_b", "k_moves", "seed"],
}
TAKE_TOLERANCE = {"check_upb", "overlap_verdict", "check_orthonormal"}


def test_swap_shift_has_one_convention():
    assert list(inspect.signature(prodbasis.swap_shift_basis).parameters) == ["basis"]


def signature_names(func):
    params = inspect.signature(func).parameters.values()
    return ["*" * (p.kind is p.KEYWORD_ONLY) + p.name for p in params]


def test_certification_signatures_are_pinned():
    for func, expected in CERTIFICATION_SIGNATURES.items():
        assert signature_names(func) == expected, func.__name__


def test_threshold_signatures_are_pinned():
    assert len(THRESHOLD_SIGNATURES) == 17
    for func, expected in THRESHOLD_SIGNATURES.items():
        assert signature_names(func) == expected, func.__name__
    # no other public function takes a threshold either
    public = [getattr(prodbasis, name) for name in prodbasis.__all__]
    funcs = [f for f in public if inspect.isfunction(f)] + [prodbasis.verify.overlap_verdict]
    assert {f.__name__ for f in funcs if "tol" in inspect.signature(f).parameters} == TAKE_TOLERANCE


def test_records_with_array_fields_compare_by_identity():
    # equality of frozen records holding ndarrays would compare the arrays;
    # both compare by identity and hash, and basis_set_equal_up_to_phase
    # compares by value
    a = prodbasis.ProductState([1, 0], [0, 1])
    b = prodbasis.ProductState([1, 0], [0, 1])
    rho = prodbasis.DensityMatrix(np.eye(4) / 4, 2, 2)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    assert rho == rho and rho != prodbasis.DensityMatrix(np.eye(4) / 4, 2, 2)
    assert len({rho, rho}) == 1
    ok, _ = prodbasis.basis_set_equal_up_to_phase(prodbasis.ProductBasis(2, 2, [a]), prodbasis.ProductBasis(2, 2, [b]))
    assert ok
