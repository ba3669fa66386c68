"""The factor-matrix storage of ProductBasis against per-state references, bit for bit."""

import numpy as np
import pytest

from prodbasis.basis import ProductBasis, ProductState
from prodbasis.errors import CountMismatch, DimensionMismatch
from prodbasis.families import cartesian_basis, cyclic_shift_basis, gen_tiles1, gen_tiles2, swap_shift_basis
from prodbasis.io import load_basis, save_basis
from prodbasis.verify import complement_projector, gram_matrix
from prodbasis.winding import random_wound_basis, unwind, wind_basis

FAMILIES = {
    "g1_4": lambda: gen_tiles1(4),
    "g1_6": lambda: gen_tiles1(6),
    "g2_3x4": lambda: gen_tiles2(3, 4),
    "g2_4x6": lambda: gen_tiles2(4, 6),
    "g2_5x8": lambda: gen_tiles2(5, 8),
    "cyclic_g1_6": lambda: cyclic_shift_basis(gen_tiles1(6), 2),
    "swap_a_g1_4": lambda: swap_shift_basis(gen_tiles1(4)),
    "swap_b_g2_4x4": lambda: swap_shift_basis(gen_tiles2(4, 4)),
    **{f"cart_{m}x{n}": (lambda m=m, n=n: cartesian_basis(m, n)) for m in (2, 3, 4) for n in (2, 3, 4)},
    **{f"wound_{m}x{n}_k{k}": (lambda m=m, n=n, k=k: random_wound_basis(m, n, k, 5)[0])
       for m, n in ((2, 3), (3, 3), (3, 4)) for k in (1, 2)},
}


def same_bits(x, y) -> bool:
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.fixture(params=[(name, loaded) for name in FAMILIES for loaded in (False, True)],
                ids=lambda p: f"{p[0]}-{'loaded' if p[1] else 'built'}")
def basis(request, tmp_path):
    name, loaded = request.param
    built = FAMILIES[name]()
    if not loaded:
        return built
    save_basis(built, tmp_path / "basis.json")
    return load_basis(tmp_path / "basis.json")


def test_matrices_match_per_state_columns(basis):
    states = basis.states
    assert same_bits(basis.a_matrix(), np.column_stack([st.a for st in states]))
    assert same_bits(basis.b_matrix(), np.column_stack([st.b for st in states]))
    assert same_bits(basis.global_matrix(), np.column_stack([np.kron(st.a, st.b) for st in states]))
    assert basis.a_matrix().shape == (basis.d_a, len(basis))
    assert basis.b_matrix().shape == (basis.d_b, len(basis))


def test_stored_arrays_are_read_only(basis):
    assert basis.a_matrix() is basis.a_matrix() and basis.b_matrix() is basis.b_matrix()
    for target in (basis.a_matrix(), basis.b_matrix(), basis[0].a, basis[-1].b, next(iter(basis)).a):
        with pytest.raises(ValueError):
            target[0] = 0.5


def test_state_views_agree(basis):
    states = basis.states
    assert len(states) == len(basis) == len(basis.labels) == len(basis.tile_cells)
    for i, (st, it) in enumerate(zip(states, basis)):
        for other in (basis[i], basis[i - len(basis)], it):
            assert same_bits(other.a, st.a) and same_bits(other.b, st.b)
            assert other.label == st.label == basis.labels[i]
            assert other.tile_cells == st.tile_cells == basis.tile_cells[i]
        assert st.a.flags.c_contiguous and st.b.flags.c_contiguous
    with pytest.raises(IndexError):
        basis[len(basis)]


@pytest.mark.parametrize("make", [lambda: gen_tiles1(6), lambda: gen_tiles2(4, 6), lambda: cartesian_basis(3, 2)])
def test_rebuilt_from_states_keeps_every_field(make):
    basis = make()
    states = [ProductState(st.a.copy(), st.b.copy(), label=st.label, tile_cells=st.tile_cells) for st in basis]
    again = ProductBasis(basis.d_a, basis.d_b, states, family=basis.family, provenance=({"op": "x"},))
    assert same_bits(again.a_matrix(), basis.a_matrix()) and same_bits(again.b_matrix(), basis.b_matrix())
    assert again.labels == basis.labels and again.tile_cells == basis.tile_cells
    assert again.family is basis.family and again.provenance == ({"op": "x"},)
    for st, view in zip(states, again):
        assert same_bits(view.a, st.a) and view.label == st.label and view.tile_cells == st.tile_cells


def test_constructor_checks():
    e0, e1 = np.eye(2, dtype=complex)
    with pytest.raises(DimensionMismatch):
        ProductBasis(2, 2, [ProductState(e0, e0), ProductState(np.ones(3) / np.sqrt(3), e1)])
    with pytest.raises(DimensionMismatch):
        ProductBasis(3, 2, [ProductState(e0, e0)])
    with pytest.raises(DimensionMismatch, match="tile cell"):
        ProductBasis(2, 2, [ProductState(e0, e0, tile_cells={(0, 2)})])
    with pytest.raises(DimensionMismatch):
        ProductBasis(0, 2, [])
    with pytest.raises(ValueError, match="unit norm"):
        ProductState(np.array([1.0, 1.0]), e0)
    with pytest.raises(ValueError, match="non-finite"):
        ProductState(np.array([np.nan, 1.0]), e0)
    with pytest.raises(DimensionMismatch):
        ProductState(np.eye(2), e0)


@pytest.mark.parametrize("bad,first", [
    ([None, {(0, 0)}, {(2, 1)}, {(-1, 0)}], "(2, 1)"),
    ([{(0, 0)}, {(0, -1)}, {(5, 5)}, None], "(0, -1)"),
    ([{(1, 1)}, {(2**70, 0)}, {(0, 3)}, {(1, 0)}], f"({2**70}, 0)"),
    ([{(1, 1)}, {(0, 0)}, {(1, 2)}, {(0, -(2**70))}], "(1, 2)"),
])
def test_tile_cells_outside_the_grid_name_the_first(bad, first):
    # the first cell outside the 2x2 grid in state order, ints beyond int64 included
    e0, e1 = np.eye(2, dtype=complex)
    states = [ProductState(a, b, tile_cells=cells) for (a, b), cells in zip([(e0, e0), (e0, e1), (e1, e0), (e1, e1)], bad)]
    with pytest.raises(DimensionMismatch, match=rf"^tile cell \{first[:-1]}\) outside the 2x2 grid$"):
        ProductBasis(2, 2, states)
    ok = [None if cells is None else {(c % 2, r % 2) for c, r in cells} for cells in bad]
    basis = ProductBasis(2, 2, [ProductState(a, b, tile_cells=cells)
                                for (a, b), cells in zip([(e0, e0), (e0, e1), (e1, e0), (e1, e1)], ok)])
    assert basis.tile_cells == tuple(None if cells is None else frozenset(cells) for cells in ok)


def test_empty_basis():
    empty = ProductBasis(2, 3, ())
    assert len(empty) == 0 and empty.states == () and not empty.is_complete()
    assert empty.a_matrix().shape == (2, 0) and empty.global_matrix().shape == (6, 0)
    with pytest.raises(CountMismatch):
        gram_matrix(empty)


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_load_and_pipeline_build_no_state_one_at_a_time(tmp_path, monkeypatch):
    save_basis(gen_tiles1(12), tmp_path / "g1_12.json")
    wound, _ = random_wound_basis(3, 3, 2, 1)
    checks = counting(monkeypatch, ProductState, "__post_init__")
    basis = load_basis(tmp_path / "g1_12.json")
    gram_matrix(basis)
    complement_projector(basis)
    wind_basis(cartesian_basis(3, 4), 2, 0)
    unwind(wound, 2)
    assert checks == []


def test_global_matrix_calls_no_kron(monkeypatch):
    basis = gen_tiles1(12)
    krons = counting(monkeypatch, np, "kron")
    v = basis.global_matrix()
    assert krons == [] and v.shape == (144, 121)
