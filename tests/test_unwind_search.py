"""The level-order unwinder and table-driven winding against the paths they replaced."""

import numpy as np
import pytest

from prodbasis import winding
from prodbasis.config import TOLERANCES
from prodbasis.errors import NoValidSplit
from prodbasis.families import cartesian_basis
from prodbasis.sampling import haar_unitary, stream
from prodbasis.winding import (
    WindingMove,
    _candidate_moves,
    _split_table,
    apply_winding_move,
    is_cartesian,
    random_wound_basis,
    unwind,
    wind_basis,
)

DIMS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
SEEDS = range(8)
MOVES = (1, 2, 3)
DEPTHS = (1, 2, 3)


def reference_wind(basis, k_moves, seed, tol=TOLERANCES):
    """Random winding with every move validated by ``apply_winding_move``."""
    moves = []
    for m in range(k_moves):
        table = _split_table(basis, tol)
        if not len(table):
            raise NoValidSplit(f"no proper split available after {m} moves", moves_applied=tuple(moves))
        rng = stream(seed, m)
        split = table.split(int(rng.integers(len(table))))
        ka, kb = split.dims
        move = WindingMove(split, haar_unitary(rng, ka), haar_unitary(rng, kb))
        basis = apply_winding_move(basis, move, tol)
        moves.append(move)
    return basis, tuple(moves)


def reference_search(basis, depth, tol):
    """Depth-limited search from the root, every child built by ``apply_winding_move``."""
    if is_cartesian(basis, tol.ray_grouping):
        return []
    if depth == 0:
        return None
    table = _split_table(basis, tol)
    for s in range(len(table)):
        for move in _candidate_moves(basis, table.split(s), table.inside[s], tol):
            deeper = reference_search(apply_winding_move(basis, move, tol), depth - 1, tol)
            if deeper is not None:
                return [move] + deeper
    return None


def reference_unwind(basis, max_depth, tol=TOLERANCES):
    """Iterative deepening with the replay certification."""
    for depth in range(max_depth + 1):
        seq = reference_search(basis, depth, tol)
        if seq is not None:
            replayed = basis
            for move in seq:
                replayed = apply_winding_move(replayed, move, tol)
            assert is_cartesian(replayed, tol.ray_grouping)
            return seq
    return None


def same_move(x, y):
    return all(np.array_equal(p, q) for p, q in (
        (x.split.a_basis, y.split.a_basis), (x.split.b_basis, y.split.b_basis),
        (x.u_a, y.u_a), (x.u_b, y.u_b)))


def same_basis(x, y):
    return (x.provenance == y.provenance and [st.label for st in x] == [st.label for st in y]
            and all(np.array_equal(p.a, q.a) and np.array_equal(p.b, q.b) for p, q in zip(x, y)))


def wound_or_none(dims, k, seed):
    try:
        return random_wound_basis(*dims, k, seed)[0]
    except NoValidSplit:
        return None


@pytest.mark.parametrize("dims", DIMS)
def test_wind_matches_validated_moves(dims):
    for seed in SEEDS:
        for k in MOVES:
            try:
                ref_basis, ref_moves = reference_wind(cartesian_basis(*dims), k, seed)
            except NoValidSplit as exc:
                with pytest.raises(NoValidSplit) as got:
                    wind_basis(cartesian_basis(*dims), k, seed)
                assert len(got.value.moves_applied) == len(exc.moves_applied)
                assert all(map(same_move, got.value.moves_applied, exc.moves_applied))
                continue
            basis, moves = wind_basis(cartesian_basis(*dims), k, seed)
            assert len(moves) == len(ref_moves) and all(map(same_move, moves, ref_moves))
            assert same_basis(basis, ref_basis)


@pytest.mark.parametrize("dims", DIMS)
def test_unwind_matches_iterative_deepening(dims):
    outcomes = set()
    for seed in SEEDS:
        for k in MOVES:
            basis = wound_or_none(dims, k, seed)
            if basis is None:
                continue
            for depth in DEPTHS:
                ref = reference_unwind(basis, depth)
                seq = unwind(basis, depth)
                if ref is None:
                    assert seq is None
                else:
                    assert seq is not None and len(seq) == len(ref)
                    assert all(map(same_move, seq, ref))
                outcomes.add(ref is None)
    # the corpus holds both solved and exhausted searches on every shape
    assert outcomes == {True, False}


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(winding, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(winding, name, counted)
    return calls


def children(basis, tol=TOLERANCES):
    table = _split_table(basis, tol)
    return [
        apply_winding_move(basis, move, tol)
        for s in range(len(table))
        for move in _candidate_moves(basis, table.split(s), table.inside[s], tol)
    ]


@pytest.mark.parametrize("dims, k, seed, tables, tested", [
    ((3, 3), 2, 0, 3, 3),
    ((3, 4), 2, 10, 4, 34),
])
def test_unwind_expands_each_basis_once(monkeypatch, dims, k, seed, tables, tested):
    basis, _ = random_wound_basis(*dims, k, seed)
    level1 = children(basis)
    level2 = [g for c in level1 for g in children(c)]
    assert (1 + len(level1), 1 + len(level1) + len(level2)) == (tables, tested)

    table_calls = count_calls(monkeypatch, "_split_table")
    validate_calls = count_calls(monkeypatch, "validate_split")
    cartesian_calls = count_calls(monkeypatch, "is_cartesian")
    assert unwind(basis, 2) is None
    # the root and each depth-1 child get one table; the exhausted search
    # replays nothing, so no split is validated again
    assert len(table_calls) == tables
    assert len(validate_calls) == 0
    assert len(cartesian_calls) == tested


def test_unwind_validates_only_in_replay(monkeypatch):
    basis, _ = random_wound_basis(3, 3, 2, 2)
    seq = unwind(basis, 2)
    assert len(seq) == 2
    validate_calls = count_calls(monkeypatch, "validate_split")
    assert unwind(basis, 2) is not None
    assert len(validate_calls) == len(seq)


def test_unwind_rejects_negative_depth():
    assert unwind(cartesian_basis(2, 2), 0) == []
    with pytest.raises(ValueError, match="max_depth must be nonnegative"):
        unwind(cartesian_basis(2, 2), -1)


def test_search_stops_at_first_solution(monkeypatch):
    basis, _ = random_wound_basis(2, 2, 1, 0)
    seq = unwind(basis, 3)
    assert len(seq) == 1
    table_calls = count_calls(monkeypatch, "_split_table")
    unwind(basis, 3)
    # the solution is a child of the root, so only the root is expanded
    assert len(table_calls) == 1
