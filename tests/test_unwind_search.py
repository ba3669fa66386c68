"""The level-order unwinder and table-driven winding against the paths they replaced."""

import time

import numpy as np
import pytest

from prodbasis import winding
from prodbasis.cli import main
from prodbasis.config import TOLERANCES
from prodbasis.errors import NoValidSplit
from prodbasis.families import cartesian_basis
from prodbasis.io import save_basis
from prodbasis.sampling import haar_unitary, stream
from prodbasis.winding import (
    WindingMove,
    _alignment_unitary,
    _candidate_moves,
    _rays,
    _split_table,
    apply_winding_move,
    is_cartesian,
    move_to_record,
    random_wound_basis,
    unwind,
    wind_basis,
)

DIMS = ((2, 2), (2, 3), (2, 4), (3, 3), (3, 4))
SEEDS = range(8)
MOVES = (1, 2, 3)
DEPTHS = (1, 2, 3)


def reference_wind(basis, k_moves, seed):
    """Random winding with every move validated by ``apply_winding_move``."""
    moves = []
    for m in range(k_moves):
        table = _split_table(basis)
        if not len(table):
            raise NoValidSplit(f"no proper split available after {m} moves", moves_applied=tuple(moves))
        rng = stream(seed, m)
        split = table.split(int(rng.integers(len(table))))
        ka, kb = split.dims
        move = WindingMove(split, haar_unitary(rng, ka), haar_unitary(rng, kb))
        basis = apply_winding_move(basis, move)
        moves.append(move)
    return basis, tuple(moves)


def reference_search(basis, depth):
    """Depth-limited search from the root, every child built by ``apply_winding_move``."""
    if is_cartesian(basis):
        return []
    if depth == 0:
        return None
    table = _split_table(basis)
    for s in range(len(table)):
        for move in _candidate_moves(basis, table, s):
            deeper = reference_search(apply_winding_move(basis, move), depth - 1)
            if deeper is not None:
                return [move] + deeper
    return None


def reference_unwind(basis, max_depth):
    """Iterative deepening with the replay certification."""
    for depth in range(max_depth + 1):
        seq = reference_search(basis, depth)
        if seq is not None:
            replayed = basis
            for move in seq:
                replayed = apply_winding_move(replayed, move)
            assert is_cartesian(replayed)
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


def children(basis):
    table = _split_table(basis)
    return [
        apply_winding_move(basis, move)
        for s in range(len(table))
        for move in _candidate_moves(basis, table, s)
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


# (dims, wind seed, tables, candidate-move passes, rotations, grid tests,
# subspace pairs built) of exhausted 2-move fixtures searched to depth 2
EXHAUSTED = [
    ((3, 4), 10, 4, 52, 33, 34, 19),
    ((3, 4), 0, 3, 15, 2, 3, 1),
    ((3, 3), 0, 3, 13, 2, 3, 1),
]


@pytest.mark.parametrize("dims, seed, tables, passes, rotations, tested, pairs", EXHAUSTED)
def test_unwind_builds_only_what_it_keeps(monkeypatch, dims, seed, tables, passes, rotations, tested, pairs):
    basis, _ = random_wound_basis(*dims, 2, seed)
    calls = {name: count_calls(monkeypatch, name) for name in (
        "_split_table", "_candidate_moves", "_rotate", "is_cartesian", "move_to_record", "SubspacePair")}
    assert unwind(basis, 2) is None
    counts = {name: len(c) for name, c in calls.items()}
    # every table, pass, rotation and grid test is still made; search nodes
    # record no provenance (one record per rotation before), and a pair is
    # built only for a pass that yields a move (one per pass before)
    assert counts == {"_split_table": tables, "_candidate_moves": passes, "_rotate": rotations,
                      "is_cartesian": tested, "move_to_record": 0, "SubspacePair": pairs}


def test_search_nodes_carry_no_provenance_but_results_do(monkeypatch):
    basis, _ = random_wound_basis(3, 3, 2, 2)
    nodes = count_calls(monkeypatch, "is_cartesian")
    seq = unwind(basis, 2)
    # the root, every search child as it is built, then the replayed result
    searched, replayed = nodes[1:-1], nodes[-1]
    assert searched and all(node.provenance == () for node in searched)
    assert replayed.provenance == basis.provenance + tuple(map(move_to_record, seq))


def reference_rays(vectors, tol):
    """The generator scan that ``_rays`` replaced."""
    v = np.asarray(vectors)
    mod = np.abs(v.conj() @ v.T)
    close = (mod >= 1.0 - tol).tolist()
    reps, ids = [], []
    for n in range(len(v)):
        i = next((i for i, r in enumerate(reps) if close[r][n]), len(reps))
        if i == len(reps):
            reps.append(n)
        ids.append(i)
    adjacent = (mod[reps][:, reps] > tol) & ~np.eye(len(reps), dtype=bool)
    return ids, v[reps], adjacent


def reference_alignment_unitary(reps):
    """The tuple-key greedy assignment that ``_alignment_unitary`` replaced."""
    k = len(reps)
    weight = np.abs(reps.T)
    free_axes = set(range(k))
    free_rays = set(range(k))
    assignment = {}
    for i, j in sorted(((i, j) for i in range(k) for j in range(k)), key=lambda ij: (-weight[ij], ij)):
        if i in free_axes and j in free_rays:
            assignment[j] = i
            free_axes.discard(i)
            free_rays.discard(j)
    u = np.zeros((k, k), dtype=complex)
    for j, i in assignment.items():
        u[i, :] = reps[j].conj()
    return u


THRESHOLD = 1.0 - TOLERANCES.ray_grouping


def near_axis_rows(rng, k):
    """Rows whose largest entry has modulus exactly THRESHOLD or one ulp off it, in random places."""
    rows = []
    for n in range(k):
        c = rng.choice([np.nextafter(THRESHOLD, 0.0), THRESHOLD, np.nextafter(THRESHOLD, 2.0)])
        row = np.zeros(k, dtype=complex)
        row[n] = c
        row[(n + 1) % k] = np.sqrt(1.0 - c * c) * np.exp(2j * np.pi * rng.random())
        rows.append(row)
    return np.array(rows)[rng.permutation(k)]


def ray_inputs(rng):
    """Random, tied (entries rounded to 2 decimals) and threshold-adjacent row sets."""
    for _ in range(60):
        d = int(rng.integers(2, 5))
        base = haar_unitary(rng, d)
        # repeated rays (phase multiples), which the scan must join
        picks = rng.integers(d, size=int(rng.integers(d, 3 * d)))
        yield base[picks] * np.exp(2j * np.pi * rng.random(len(picks)))[:, None]
        tied = np.round(base.real, 2) + 1j * np.round(base.imag, 2)
        yield tied[picks] / np.linalg.norm(tied[picks], axis=1)[:, None]
        # rows against the unit axes at |overlap| = THRESHOLD +- 1 ulp
        near = near_axis_rows(rng, d)
        yield np.concatenate([np.eye(d, dtype=complex), near, near[::-1]])[rng.permutation(3 * d)]


def alignment_inputs(rng):
    """Random, tied (moduli rounded to 1 or 2 decimals), threshold-adjacent and permuted-axis ray sets."""
    for _ in range(60):
        k = int(rng.integers(1, 6))
        u = haar_unitary(rng, k)
        yield u
        phases = np.exp(2j * np.pi * rng.random((k, k)))
        yield np.round(np.abs(u), 2) * phases
        yield np.round(np.abs(u), 1) * phases
        yield near_axis_rows(rng, k)
        yield np.eye(k)[rng.permutation(k)] * phases


def test_rays_match_generator_scan_bit_for_bit():
    rng = np.random.default_rng(20)
    repeats = set()
    for v in ray_inputs(rng):
        ids, reps, adjacent = _rays(v)
        ref_ids, ref_reps, ref_adjacent = reference_rays(v, TOLERANCES.ray_grouping)
        assert ids == ref_ids
        assert reps.tobytes() == ref_reps.tobytes() and np.array_equal(adjacent, ref_adjacent)
        repeats.add(len(reps) < len(v))
    # sets with and without repeated rays
    assert repeats == {True, False}


def test_threshold_adjacent_rows_fall_on_both_sides():
    # the near-axis rows of ray_inputs really straddle the join threshold
    for c, join in ((np.nextafter(THRESHOLD, 0.0), False), (THRESHOLD, True), (np.nextafter(THRESHOLD, 2.0), True)):
        v = np.array([[1.0, 0.0], [c, np.sqrt(1.0 - c * c)]], dtype=complex)
        ids, _, _ = _rays(v)
        assert (ids == [0, 0]) is join


def test_alignment_unitary_matches_tuple_key_sort_bit_for_bit():
    rng = np.random.default_rng(21)
    for reps in alignment_inputs(rng):
        assert _alignment_unitary(reps).tobytes() == reference_alignment_unitary(reps).tobytes()


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


# the search from this fixture has no node left to expand after depth 2
EXHAUSTED_BY_DEPTH_2 = (3, 4, 2, 0)
HUGE_DEPTH = 10**12


def test_exhausted_search_stops_whatever_the_depth(monkeypatch):
    basis, _ = random_wound_basis(*EXHAUSTED_BY_DEPTH_2)
    table_calls = count_calls(monkeypatch, "_split_table")
    assert unwind(basis, 2) is None
    tables = len(table_calls)
    start = time.perf_counter()
    assert unwind(basis, HUGE_DEPTH) is None
    assert time.perf_counter() - start < 1.0
    assert len(table_calls) == 2 * tables


def test_cli_unwind_huge_depth_exits_4_promptly(tmp_path, capsys):
    path = tmp_path / "wound.json"
    save_basis(random_wound_basis(*EXHAUSTED_BY_DEPTH_2)[0], path)
    start = time.perf_counter()
    code = main(["unwind", str(path), "--depth", str(HUGE_DEPTH)])
    assert time.perf_counter() - start < 1.0
    assert code == 4
    assert capsys.readouterr().out == f"not unwound within depth {HUGE_DEPTH}\n"
