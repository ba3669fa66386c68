from collections import Counter

import numpy as np
import pytest

from prodbasis.basis import Family, ProductBasis
from prodbasis.errors import DimensionMismatch, IndexOutOfRange, InvalidDimension
from prodbasis.families import (
    cartesian_basis,
    cyclic_shift_basis,
    fourier_local_state,
    gen_tiles1,
    gen_tiles2,
    swap_shift_basis,
)
from prodbasis.verify import basis_set_equal_up_to_phase, gram_matrix
from test_winding import domino_basis


def brute_force_set_equal(b1, b2, tol=1e-9):
    """Independent matcher: every state must overlap exactly one partner at ~1."""
    n = len(b1)
    if n != len(b2):
        return False
    hits = np.zeros((n, n), dtype=bool)
    for i, x in enumerate(b1):
        for j, y in enumerate(b2):
            hits[i, j] = abs(x.overlap(y)) >= 1 - tol
    return bool(np.all(hits.sum(axis=1) == 1) and np.all(hits.sum(axis=0) == 1))


def support_cells(state, tol=1e-12):
    cells = set()
    for c, amp_a in enumerate(state.a):
        for r, amp_b in enumerate(state.b):
            if abs(amp_a * amp_b) > tol:
                cells.add((c, r))
    return frozenset(cells)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_gentiles1_count_and_orthonormality(n):
    basis = gen_tiles1(n)
    assert len(basis) == (n - 1) ** 2
    assert all(abs(np.linalg.norm(st.a) - 1) <= 1e-12 for st in basis)
    assert all(abs(np.linalg.norm(st.b) - 1) <= 1e-12 for st in basis)
    g = gram_matrix(basis)
    assert np.max(np.abs(g - np.eye(len(basis)))) <= 1e-10


def test_gentiles1_n4_real_phases():
    # the phase base degenerates to -1, so every amplitude is real
    basis = gen_tiles1(4)
    assert len(basis) == 9
    for st in basis:
        assert np.max(np.abs(st.a.imag)) < 1e-14
        assert np.max(np.abs(st.b.imag)) < 1e-14


def test_gentiles1_rejects_bad_n():
    with pytest.raises(InvalidDimension):
        gen_tiles1(5)
    with pytest.raises(InvalidDimension):
        gen_tiles1(2)


@pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 4), (4, 5), (5, 6)])
def test_gentiles2_count_and_orthonormality(m, n):
    basis = gen_tiles2(m, n)
    assert len(basis) == m * n - 2 * m + 1
    g = gram_matrix(basis)
    assert np.max(np.abs(g - np.eye(len(basis)))) <= 1e-10


@pytest.mark.parametrize("m,n", [(3, 3), (2, 4), (5, 4)])
def test_gentiles2_rejects_bad_dims(m, n):
    with pytest.raises(InvalidDimension):
        gen_tiles2(m, n)


def test_cartesian_basis():
    basis = cartesian_basis(2, 2)
    assert [st.label for st in basis] == ["C[0,0]", "C[0,1]", "C[1,0]", "C[1,1]"]
    assert len(cartesian_basis(1, 3)) == 3
    g = gram_matrix(cartesian_basis(3, 3))
    assert np.array_equal(g, np.eye(9))


def test_fourier_local_state_values():
    v = fourier_local_state(4, (1, 2), 1, -1.0)
    expect = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert np.max(np.abs(v - expect)) < 1e-15

    u = fourier_local_state(5, (0, 2, 4), 0, np.exp(2j * np.pi / 3))
    assert np.allclose(u[[0, 2, 4]], 1 / np.sqrt(3))


def test_fourier_local_state_dft_orthogonality():
    s = 4
    omega = np.exp(2j * np.pi / s)
    vectors = [fourier_local_state(6, (1, 2, 4, 5), m, omega) for m in range(s)]
    for i in range(s):
        for j in range(i + 1, s):
            assert abs(np.vdot(vectors[i], vectors[j])) < 1e-12


def test_fourier_local_state_rejects_bad_support():
    with pytest.raises(IndexOutOfRange):
        fourier_local_state(4, (1, 1), 0, 1.0)
    with pytest.raises(IndexOutOfRange):
        fourier_local_state(4, (1, 4), 0, 1.0)
    # non-integer indices are rejected, not truncated or read as 0/1
    with pytest.raises(IndexOutOfRange):
        fourier_local_state(4, (0.5, 1.7), 1, -1.0)
    with pytest.raises(IndexOutOfRange):
        fourier_local_state(4, (True, 2), 1, -1.0)
    with pytest.raises(IndexOutOfRange, match="support must be nonempty"):
        fourier_local_state(3, [], 0, 1.0)


@pytest.mark.parametrize("m", [0.5, 1.0, True, "1", None, 1 + 0j])
def test_fourier_local_state_rejects_a_non_integer_frequency(m):
    # 0.5 used to give a half-power phase, none of the s Fourier vectors
    with pytest.raises(IndexOutOfRange, match="frequency must be an integer"):
        fourier_local_state(4, (0, 1), m, -1.0)


@pytest.mark.parametrize("dim", [2.5, 4.0, True, 0, -3, "4", None])
def test_fourier_local_state_rejects_a_bad_dimension(dim):
    # 2.5 used to leak numpy's bare TypeError
    with pytest.raises(InvalidDimension, match="dim must be a positive integer"):
        fourier_local_state(dim, (0, 1), 1, -1.0)


def test_fourier_local_state_takes_numpy_integers():
    v = fourier_local_state(np.int64(4), (np.int64(1), 2), np.int32(1), -1.0)
    assert v.tobytes() == fourier_local_state(4, (1, 2), 1, -1.0).tobytes()


@pytest.mark.parametrize("make", [
    lambda: gen_tiles1(4),
    lambda: gen_tiles1(6),
    lambda: gen_tiles2(3, 4),
    lambda: gen_tiles2(4, 6),
    lambda: gen_tiles1(8),
    lambda: gen_tiles2(5, 8),
    domino_basis,
])
def test_tile_cells_match_amplitude_support(make):
    basis = make()
    for st in basis:
        assert st.tile_cells == support_cells(st)


def reference_gen_tiles1(n):
    """Reference first tile family from explicit per-state loops, apart from the tile-row builder."""
    omega = np.exp(4j * np.pi / n)
    half = n // 2
    states = []  # (a, b, label, tile cells) per state
    for m in range(1, half):
        for k in range(n):
            support = tuple((j + k + 1) % n for j in range(half))
            states.append((
                np.eye(n, dtype=complex)[k],
                fourier_local_state(n, support, m, omega),
                f"V[{m},{k}]",
                frozenset((k, r) for r in support),
            ))
    for m in range(1, half):
        for k in range(n):
            support = tuple((j + k) % n for j in range(half))
            states.append((
                fourier_local_state(n, support, m, omega),
                np.eye(n, dtype=complex)[k],
                f"H[{m},{k}]",
                frozenset((c, k) for c in support),
            ))
    uniform = fourier_local_state(n, range(n), 0, 1.0)
    states.append((
        uniform, uniform, "F",
        frozenset((c, r) for c in range(n) for r in range(n)),
    ))
    return ProductBasis._from_rows((n, n), *zip(*states), family=Family.GENTILES1)


def reference_gen_tiles2(m, n):
    """Reference second tile family from explicit per-state loops, apart from the tile-row builder."""
    states = []  # (a, b, label, tile cells) per state
    for j in range(m):
        states.append((
            fourier_local_state(m, (j, (j + 1) % m), 1, -1.0),
            np.eye(n, dtype=complex)[j],
            f"S[{j}]",
            frozenset({(j, j), ((j + 1) % m, j)}),
        ))
    omega = np.exp(2j * np.pi / (n - 2))
    for j in range(m):
        support = tuple((i + j + 1) % m for i in range(m - 2)) + tuple(i + 2 for i in range(m - 2, n - 2))
        for k in range(1, n - 2):
            states.append((
                np.eye(m, dtype=complex)[j],
                fourier_local_state(n, support, k, omega),
                f"L[{j},{k}]",
                frozenset((j, r) for r in support),
            ))
    states.append((
        fourier_local_state(m, range(m), 0, 1.0),
        fourier_local_state(n, range(n), 0, 1.0),
        "F",
        frozenset((c, r) for c in range(m) for r in range(n)),
    ))
    return ProductBasis._from_rows((m, n), *zip(*states), family=Family.GENTILES2)


def test_tile_rows_reproduce_reference_bits():
    pairs = [(gen_tiles1(n), reference_gen_tiles1(n)) for n in range(4, 21, 2)]
    pairs += [(gen_tiles2(m, n), reference_gen_tiles2(m, n))
              for m in range(3, 9) for n in range(max(m, 4), 21)]
    for built, ref in pairs:
        assert built.a_matrix().tobytes() == ref.a_matrix().tobytes()
        assert built.b_matrix().tobytes() == ref.b_matrix().tobytes()
        assert built.labels == ref.labels
        assert built.tile_cells == ref.tile_cells
        assert built.family == ref.family


@pytest.mark.parametrize("make,missing",
                         [(lambda n=n: gen_tiles1(n), 1) for n in range(4, 13, 2)]
                         + [(lambda m=m, n=n: gen_tiles2(m, n), 1)
                            for m in range(3, 7) for n in range(max(m, 4), 11)]
                         + [(domino_basis, 0)])
def test_tiles_partition_the_grid(make, missing):
    # The tiles other than the whole-grid stopper partition the grid.  A tile
    # family leaves one state out of each tile (a tile of s cells carries
    # s - 1 states) and adds one stopper; the complete domino basis does neither.
    basis = make()
    grid = frozenset((c, r) for c in range(basis.d_a) for r in range(basis.d_b))
    per_tile = Counter(basis.tile_cells)
    stoppers = per_tile.pop(grid, 0)
    assert sum(len(tile) for tile in per_tile) == len(grid)
    assert frozenset().union(*per_tile) == grid
    assert all(k == len(tile) - missing for tile, k in per_tile.items())
    assert stoppers == missing


def test_cartesian_carries_no_tile_metadata():
    assert all(st.tile_cells is None for st in cartesian_basis(2, 3))


def test_gentiles1_vertical_tile_geometry():
    basis = gen_tiles1(4)
    v10 = next(st for st in basis if st.label == "V[1,0]")
    assert v10.tile_cells == frozenset({(0, 1), (0, 2)})
    h13 = next(st for st in basis if st.label == "H[1,3]")
    assert h13.tile_cells == frozenset({(3, 3), (0, 3)})


def test_cyclic_shift_identity_and_periodicity():
    basis = gen_tiles1(6)
    same = cyclic_shift_basis(basis, 0)
    assert all(np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b) for x, y in zip(basis, same))
    full = cyclic_shift_basis(basis, 6)
    assert all(np.array_equal(x.a, y.a) for x, y in zip(basis, full))


@pytest.mark.parametrize("s", range(6))
def test_gentiles1_cyclic_shift_invariance(s):
    basis = gen_tiles1(6)
    ok, _ = basis_set_equal_up_to_phase(basis, cyclic_shift_basis(basis, s))
    assert ok


def test_cyclic_shift_requires_square():
    with pytest.raises(DimensionMismatch):
        cyclic_shift_basis(gen_tiles2(3, 4), 1)


def test_swap_shift_invariance_of_gentiles1():
    basis = gen_tiles1(6)
    swapped = swap_shift_basis(basis)
    ok, _ = basis_set_equal_up_to_phase(basis, swapped)
    assert ok
    assert swapped.provenance[-1] == {"op": "swap_shift", "variant": "shift_a"}


def test_swap_shift_double_composition():
    # applying twice equals a simultaneous shift by one, undone by shifting back
    basis = gen_tiles1(4)
    double = swap_shift_basis(swap_shift_basis(basis))
    assert brute_force_set_equal(basis, cyclic_shift_basis(double, -1))


def test_swap_shift_on_cartesian():
    basis = cartesian_basis(3, 3)
    assert brute_force_set_equal(basis, swap_shift_basis(basis))


def test_swap_shift_requires_square():
    with pytest.raises(DimensionMismatch):
        swap_shift_basis(gen_tiles2(3, 4))
