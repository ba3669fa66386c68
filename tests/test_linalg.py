import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError

from prodbasis import linalg
from prodbasis.errors import DimensionMismatch
from prodbasis.families import cartesian_basis, gen_tiles1, gen_tiles2
from prodbasis.boundent import DensityMatrix
from prodbasis.linalg import dagger, hermitian_part, partial_transpose, top_eigenvector
from prodbasis.verify import grid_oracle_max_product_overlap, seesaw_max_product_overlap


def random_vector(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def test_top_eigenvector_deterministic_under_degeneracy():
    m = np.eye(3, dtype=complex)
    val1, vec1 = top_eigenvector(m)
    val2, vec2 = top_eigenvector(m)
    assert val1 == val2 == 1.0
    assert np.array_equal(vec1, vec2)


@pytest.mark.parametrize("shape", [(0, 0), (2, 3), (3,), (), (2, 3, 3), (2, 2, 3), (1, 2, 2, 2), (4, 0, 0)], ids=str)
def test_top_eigenvector_rejects_other_shapes(shape):
    with pytest.raises(DimensionMismatch):
        top_eigenvector(np.ones(shape, dtype=complex))


def nonfinite_inputs():
    return {
        "nan": np.full((2, 2), np.nan, dtype=complex),
        "inf_entry": np.array([[np.inf, 0], [0, 1]], dtype=complex),
        "inf_imaginary_diagonal": np.array([[1, 0], [0, 1j * np.inf]]),
        "entry_sum_overflows": np.full((2, 2), 1.5e308, dtype=complex),
        "nan_1x1": np.array([[np.nan]], dtype=complex),
        # a finite input whose top eigenvalue, 2.67e308, overflows; its vector is finite
        "overflow": np.full((3, 3), 0.89e308, dtype=complex),
    }


@pytest.mark.parametrize("name", list(nonfinite_inputs()))
def test_top_eigenvector_raises_on_a_nonfinite_eigenpair(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinAlgError):
            top_eigenvector(nonfinite_inputs()[name])


def test_partial_transpose_product_operator():
    rng = np.random.default_rng(3)
    ra = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rb = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = np.kron(ra, rb)
    assert np.max(np.abs(partial_transpose(m, 2, 3) - np.kron(ra, rb.T))) <= 1e-12


def test_partial_transpose_bell_eigenvalues():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    pt = partial_transpose(np.outer(bell, bell.conj()), 2, 2)
    w = np.linalg.eigvalsh(pt)
    # exact spectrum of SWAP/2
    assert np.allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_partial_transpose_involution_and_trace(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    double = partial_transpose(partial_transpose(m, 2, 3), 2, 3)
    assert np.array_equal(double, m)
    assert np.trace(partial_transpose(m, 2, 3)) == np.trace(m)


def test_partial_transpose_dimension_check():
    with pytest.raises(DimensionMismatch):
        partial_transpose(np.eye(5, dtype=complex), 2, 3)
    # (-2) * (-3) = 6 matches the shape, but no local dimension is below 1
    for d_a, d_b in ((-2, -3), (0, 3), (3, 0)):
        with pytest.raises(DimensionMismatch, match=r"must be at least 1$"):
            partial_transpose(np.eye(6, dtype=complex), d_a, d_b)


ENTRY_POINTS = {
    "DensityMatrix": lambda d_a, d_b: DensityMatrix(np.eye(6) / 6, d_a, d_b),
    "partial_transpose": lambda d_a, d_b: partial_transpose(np.eye(6), d_a, d_b),
    "seesaw": lambda d_a, d_b: seesaw_max_product_overlap(np.eye(6) / 6, d_a, d_b, 3, 0),
    "grid_oracle": lambda d_a, d_b: grid_oracle_max_product_overlap(np.eye(6) / 6, d_a, d_b),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("d_a,d_b", [(2.0, 3), (2, 3.0), (True, 6), (6, True), ("2", 3), (None, 3)])
def test_local_dimensions_that_are_not_integers_raise_dimension_mismatch(name, d_a, d_b):
    # each used to leak a TypeError from a reshape or from range()
    with pytest.raises(DimensionMismatch, match="must be integers$"):
        ENTRY_POINTS[name](d_a, d_b)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_numpy_integer_local_dimensions_are_accepted(name):
    ENTRY_POINTS[name](np.int64(2), np.int32(3))


def reference_canonical_phase(v):
    """The take_along_axis formulation the direct indexing replaced."""
    mag = np.abs(v)
    big = mag > 1e-12
    first = np.argmax(big, axis=-1)[..., None]
    found = np.any(big, axis=-1, keepdims=True)
    x = np.take_along_axis(v, first, axis=-1)
    phase = np.divide(np.take_along_axis(mag, first, axis=-1), x, out=np.ones_like(x), where=found)
    return np.where(found, v * phase, v)


def reference_hermitian_part(m):
    return (m + dagger(m)) / 2


def phase_inputs():
    rng = np.random.default_rng(31)
    stack = random_vector(rng, (40, 5))
    stack[3] = 0                                   # all-zero row
    stack[7] = -0.0                                # all negative zeros
    stack[11, :2] *= 1e-13                         # leading entries below the cut
    stack[12, :4] = 1e-13j                         # ... and below it exactly at the front
    stack[13] *= 1e-14                             # no entry above the cut
    stack[17, 0] = -0.0 + 0j
    stack[19, 1:] = 0                              # one large entry, then zeros
    stack[23, 0] = 1e-12                           # leading entry exactly at the cut
    return [random_vector(rng, 6), np.zeros(3, dtype=complex), 1e-13 * random_vector(rng, 4),
            stack, stack[[3, 7, 13]], stack.reshape(8, 5, 5)]


@pytest.mark.parametrize("index", range(6))
def test_canonical_phase_matches_reference_bitwise(index):
    v = phase_inputs()[index]
    got = linalg._canonical_phase(v)
    want = reference_canonical_phase(v)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_canonical_phase_tolerance_is_named():
    assert linalg._PHASE_TOL == 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (12, 12), (7, 3, 3), (2, 4, 4)])
def test_hermitian_part_matches_reference_bitwise(shape):
    rng = np.random.default_rng(sum(shape))
    m = random_vector(rng, shape)
    m[rng.random(shape) < 0.25] = -0.0
    m[rng.random(shape) < 0.25] = 0.0
    before = m.copy()
    got = hermitian_part(m)
    want = reference_hermitian_part(m)
    assert got.shape == want.shape and got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert m.tobytes() == before.tobytes()          # the input is left alone


def test_hermitian_part_of_infinite_and_huge_entries():
    # halving before the sum: an infinite entry stays infinite with a zero
    # imaginary part, and entries whose sum overflows give their own value
    cases = {
        "inf_entry": (np.array([[np.inf, 0], [0, 1]], dtype=complex), np.array([[np.inf, 0], [0, 1]], dtype=complex)),
        "entry_sum_overflows": (np.full((2, 2), 1.5e308, dtype=complex), np.full((2, 2), 1.5e308, dtype=complex)),
        "stack": (np.array([[[np.inf]], [[1.5e308 + 1.5e308j]]]), np.array([[[np.inf]], [[1.5e308]]], dtype=complex)),
    }
    for m, want in cases.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hermitian_part(m)
        assert got.tobytes() == want.tobytes()


def row_norm_inputs(d):
    """Row stacks of dimension ``d``: contiguous, Fortran-ordered, every other row, every other entry."""
    rng = np.random.default_rng(d)
    out = []
    for n in (1, 5, 100):
        v = random_vector(rng, (n, d))
        v[n // 2] = 0                              # a zero row
        v[-1] *= 1e-160                            # squares below the normal range
        out += [v, np.asfortranarray(v), v[::2], v[:, ::2]]
    return out


@pytest.mark.parametrize("d", range(1, 34))
def test_row_norms_match_per_row_norm_bitwise(d):
    for v in row_norm_inputs(d):
        want = np.array([np.linalg.norm(x) for x in v])
        got = linalg._row_norms(v)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("basis", [cartesian_basis(4, 4), gen_tiles1(6), gen_tiles2(4, 6)], ids=["cart_4x4", "g1_6", "g2_4x6"])
def test_row_norms_of_basis_factor_rows_bitwise(basis):
    # a_matrix().T is a transposed view: each row is a strided factor
    for v in (basis.a_matrix().T, basis.b_matrix().T):
        want = np.array([np.linalg.norm(x) for x in v])
        assert linalg._row_norms(v).tobytes() == want.tobytes()
