import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from prodbasis import cli, winding
from prodbasis.basis import Family, ProductBasis, ProductState
from prodbasis.config import TOLERANCES
from prodbasis.errors import IncompleteBasis, InvalidSplit, NonOrthonormalInput, WindingInvariantError
from prodbasis.families import _tile_basis, cartesian_basis, gen_tiles1
from prodbasis.io import save_basis
from prodbasis.sampling import haar_unitary, stream
from prodbasis.verify import check_orthonormal
from prodbasis.winding import (
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


def span(*cols):
    return np.column_stack([np.asarray(c, dtype=complex) for c in cols])


def axis_split(d_a, d_b, a_cols=None, b_cols=None):
    a = np.eye(d_a, dtype=complex) if a_cols is None else span(*a_cols)
    b = np.eye(d_b, dtype=complex) if b_cols is None else span(*b_cols)
    return SubspacePair(a, b)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)


def wound_pi_over_7():
    split = axis_split(2, 2, a_cols=[[1, 0]])
    move = WindingMove(split, np.eye(1, dtype=complex), rotation(np.pi / 7))
    return apply_winding_move(cartesian_basis(2, 2), move), move


def test_validate_split_column_zero():
    basis = cartesian_basis(2, 2)
    ok, classes = validate_split(basis, axis_split(2, 2, a_cols=[[1, 0]]))
    assert ok
    assert classes == (SplitClass.INSIDE, SplitClass.INSIDE, SplitClass.OUTSIDE, SplitClass.OUTSIDE)


def test_validate_split_superposition_is_invalid():
    basis = cartesian_basis(2, 2)
    plus = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    ok, classes = validate_split(basis, axis_split(2, 2, a_cols=[plus]))
    assert not ok
    assert SplitClass.UNCLASSIFIED in classes


def test_validate_split_full_subspace():
    basis = cartesian_basis(2, 2)
    split = axis_split(2, 2)
    ok, classes = validate_split(basis, split)
    assert ok
    assert all(c is SplitClass.INSIDE for c in classes)
    assert not split.is_proper_for(2, 2)


def test_validate_split_requires_complete_basis():
    with pytest.raises(IncompleteBasis):
        validate_split(gen_tiles1(4), axis_split(4, 4))


def test_apply_identity_move():
    basis = cartesian_basis(2, 3)
    move = WindingMove(axis_split(2, 3, a_cols=[[1, 0]]), np.eye(1, dtype=complex), np.eye(3, dtype=complex))
    out = apply_winding_move(basis, move)
    assert all(np.allclose(x.a, y.a) and np.allclose(x.b, y.b) for x, y in zip(basis, out))


def test_apply_preserves_gram_and_records_move():
    wound, move = wound_pi_over_7()
    ok, _ = check_orthonormal(wound)
    assert ok
    assert wound.provenance[-1]["op"] == "winding_move"
    # four distinct B rays in dimension two: no longer a grid basis
    assert not is_cartesian(wound)


def test_apply_round_trip_with_inverse():
    wound, move = wound_pi_over_7()
    back = apply_winding_move(wound, inverse_move(move))
    cart = cartesian_basis(2, 2)
    assert all(
        np.max(np.abs(x.a - y.a)) <= 1e-12 and np.max(np.abs(x.b - y.b)) <= 1e-12
        for x, y in zip(back, cart)
    )


def test_apply_rejects_invalid_split():
    basis = cartesian_basis(2, 2)
    plus = [1 / np.sqrt(2), 1 / np.sqrt(2)]
    move = WindingMove(axis_split(2, 2, a_cols=[plus]), np.eye(1, dtype=complex), np.eye(2, dtype=complex))
    with pytest.raises(InvalidSplit):
        apply_winding_move(basis, move)


def test_subspace_pair_rejects_nan_columns():
    with pytest.raises(ValueError, match="not orthonormal"):
        SubspacePair(np.full((2, 1), np.nan), np.eye(2)[:, :1])


def test_winding_move_rejects_nan_unitary():
    split = axis_split(2, 2, a_cols=[[1, 0]])
    with pytest.raises(ValueError, match="not unitary"):
        WindingMove(split, np.eye(1, dtype=complex), np.full((2, 2), np.nan, dtype=complex))


def test_inverse_move_involution():
    _, move = wound_pi_over_7()
    double = inverse_move(inverse_move(move))
    assert np.max(np.abs(double.u_a - move.u_a)) <= 1e-15
    assert np.max(np.abs(double.u_b - move.u_b)) <= 1e-15
    ident = WindingMove(move.split, np.eye(1, dtype=complex), np.eye(2, dtype=complex))
    inv = inverse_move(ident)
    assert np.array_equal(inv.u_b, np.eye(2, dtype=complex))


def test_is_cartesian_basic():
    assert is_cartesian(cartesian_basis(3, 3))
    with pytest.raises(IncompleteBasis):
        is_cartesian(gen_tiles1(4))


def test_is_cartesian_invariant_under_global_local_rotation():
    rng = stream(17, 0)
    u = haar_unitary(rng, 2)
    v = haar_unitary(rng, 3)
    basis = cartesian_basis(2, 3)
    move = WindingMove(axis_split(2, 3), u, v)
    rotated = apply_winding_move(basis, move)
    assert is_cartesian(rotated)


def test_enumerate_splits_cartesian_2x2():
    splits = enumerate_splits(cartesian_basis(2, 2))
    dims = sorted(s.dims for s in splits)
    assert dims == [(1, 1), (1, 1), (1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1)]
    # the four axis splits must be present
    projectors = {(round(float(np.real(s.a_projector()[0, 0])), 6), s.dims) for s in splits}
    assert (1.0, (1, 2)) in projectors and (0.0, (1, 2)) in projectors


def test_enumerate_splits_wound_basis():
    wound, _ = wound_pi_over_7()
    splits = enumerate_splits(wound)
    assert [s.dims for s in splits] == [(1, 2), (1, 2)]
    # B rays form a single connected component, so no B-side-only split
    assert all(s.b_basis.shape == (2, 2) for s in splits)


def domino_basis():
    """Complete 3x3 product basis whose ray graphs are connected on both sides.

    The centre cell and four two-cell dominoes around it, each domino
    carrying the sum and the difference of its two cells (Bennett et al.,
    PRA 59, 1070 (1999)).
    """
    dominoes = [((0,), (0, 1)), ((2,), (1, 2)), ((1, 2), (0,)), ((0, 1), (2,))]
    # a one-cell side is uniform at any frequency, so f can go on both sides
    rows = [("C", (1,), 0, (1,), 0, -1.0)]
    rows += [(f"D[{t},{f}]", a, f, b, f, -1.0) for t, (a, b) in enumerate(dominoes) for f in (0, 1)]
    return _tile_basis((3, 3), rows, Family.CUSTOM)


def test_enumerate_splits_fully_connected_graphs():
    basis = domino_basis()
    ok, _ = check_orthonormal(basis)
    assert ok and basis.is_complete()
    # every ray touches another component's span, so no proper component union exists
    assert enumerate_splits(basis) == ()


def test_unwind_cartesian_is_empty():
    assert unwind(cartesian_basis(2, 3), 2) == []


def test_unwind_requires_complete_basis():
    with pytest.raises(IncompleteBasis):
        unwind(gen_tiles1(6), 1)


@pytest.mark.parametrize("seed", range(20))
def test_unwind_single_move_2x2(seed):
    basis, _ = random_wound_basis(2, 2, 1, seed)
    seq = unwind(basis, 2)
    assert seq is not None
    replayed = basis
    for move in seq:
        replayed = apply_winding_move(replayed, move)
    assert is_cartesian(replayed)


def test_random_wound_zero_moves():
    basis, moves = random_wound_basis(2, 3, 0, 0)
    assert moves == ()
    assert is_cartesian(basis)


def test_random_wound_round_trip_and_determinism():
    b1, moves1 = random_wound_basis(3, 3, 3, 123)
    b2, moves2 = random_wound_basis(3, 3, 3, 123)
    assert all(np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b) for x, y in zip(b1, b2))
    assert len(moves1) == len(moves2) == 3
    back = b1
    for move in reversed(moves1):
        back = apply_winding_move(back, inverse_move(move))
    assert is_cartesian(back)


def test_wind_basis_inside_count_invariant():
    basis, _ = random_wound_basis(2, 3, 2, 5)
    for split in enumerate_splits(basis):
        ok, classes = validate_split(basis, split)
        assert ok
        ka, kb = split.dims
        assert sum(c is SplitClass.INSIDE for c in classes) == ka * kb


def test_move_record_round_trip():
    _, move = wound_pi_over_7()
    rec = move_to_record(move)
    back = move_from_record(rec)
    assert np.array_equal(back.u_b, move.u_b)
    assert np.array_equal(back.split.a_basis, move.split.a_basis)


def test_wind_basis_requires_complete():
    with pytest.raises(IncompleteBasis):
        wind_basis(gen_tiles1(4), 1, 0)


ROOT = Path(__file__).resolve().parents[1]


def repeated_state_basis():
    """Four states on 2x2, three of them |0>|0>: complete by count, not orthonormal."""
    e0, e1 = np.eye(2, dtype=complex)
    pairs = [(e0, e0), (e0, e0), (e0, e0), (e1, e1)]
    return ProductBasis(2, 2, tuple(ProductState(a, b) for a, b in pairs))


def strict_orthonormality(monkeypatch):
    """Make every Gram check of ``winding`` fail: no deviation is <= -1."""
    monkeypatch.setattr(winding, "TOLERANCES", dataclasses.replace(TOLERANCES, orthonormality=-1.0))


def test_gram_check_after_move_raises(monkeypatch):
    _, move = wound_pi_over_7()
    strict_orthonormality(monkeypatch)
    with pytest.raises(WindingInvariantError, match="orthonormality"):
        apply_winding_move(cartesian_basis(2, 2), move)


def test_gram_check_after_drawn_move_raises(monkeypatch):
    strict_orthonormality(monkeypatch)
    with pytest.raises(WindingInvariantError, match="orthonormality"):
        wind_basis(cartesian_basis(2, 2), 1, 0)


def test_gram_check_after_unwinder_move_raises(monkeypatch):
    wound, _ = wound_pi_over_7()
    strict_orthonormality(monkeypatch)
    with pytest.raises(WindingInvariantError, match="orthonormality"):
        unwind(wound, 1)


def test_unit_norm_drift_after_many_moves_raises():
    # the sixteenth seeded move takes a rotated factor 1.976e-12 off unit norm
    with pytest.raises(WindingInvariantError, match="unit norm"):
        random_wound_basis(2, 2, 16, 0)


def test_inside_count_check_raises():
    basis = repeated_state_basis()
    with pytest.raises(WindingInvariantError, match="inside states"):
        validate_split(basis, axis_split(2, 2, a_cols=[[1, 0]]))
    with pytest.raises(WindingInvariantError, match="inside states"):
        enumerate_splits(basis)
    # the winding entry points reject the repeated states before any split is drawn
    with pytest.raises(NonOrthonormalInput, match="not orthonormal"):
        wind_basis(basis, 1, 0)


def test_unwinder_replay_check_raises(monkeypatch):
    wound, _ = wound_pi_over_7()
    # a search that claims the wound basis is already Cartesian
    monkeypatch.setattr(winding, "_search", lambda basis, depth: [])
    with pytest.raises(WindingInvariantError, match="certification"):
        unwind(wound, 1)


def test_cli_maps_winding_invariant_to_exit_1(tmp_path, capsys):
    # the sixteenth seeded move breaks the unit-norm check (see above)
    code = cli.main(["wind", "--cartesian", "2", "2", "--moves", "16", "--seed", "0",
                     "--out", str(tmp_path / "w.json")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: winding move broke the unit-norm check")


def random_product_basis():
    """Four random product states on 2x2: complete by count, not orthonormal."""
    rng = np.random.default_rng(7)
    factors = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    factors /= np.linalg.norm(factors, axis=-1, keepdims=True)
    return ProductBasis(2, 2, tuple(ProductState(a, b) for a, b in factors))


def plus_state_basis():
    """{|0>|0>, |1>|0>, |0>|1>, |+>|1>}: complete by count, <0 1|+ 1> = 1/sqrt(2)."""
    e0, e1 = np.eye(2, dtype=complex)
    plus = (e0 + e1) / np.sqrt(2)
    pairs = [(e0, e0), (e1, e0), (e0, e1), (plus, e1)]
    return ProductBasis(2, 2, tuple(ProductState(a, b) for a, b in pairs))


@pytest.mark.parametrize("command", ["wind", "unwind"])
@pytest.mark.parametrize("fixture", [random_product_basis, plus_state_basis])
def test_cli_winding_rejects_non_orthonormal_input(tmp_path, capsys, command, fixture):
    path = tmp_path / "basis.json"
    save_basis(fixture(), path)
    argv = [command, str(path)] + (["--out", str(tmp_path / "w.json")] if command == "wind" else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: basis is not orthonormal (max deviation ")
    assert not (tmp_path / "w.json").exists()


def test_invariant_checks_survive_optimized_python():
    # python -O strips assert statements; the checks must survive it
    tests = [f"{__file__}::{name}" for name in (
        "test_gram_check_after_move_raises",
        "test_gram_check_after_drawn_move_raises",
        "test_gram_check_after_unwinder_move_raises",
        "test_inside_count_check_raises",
        "test_unwinder_replay_check_raises",
        "test_cli_maps_winding_invariant_to_exit_1",
    )]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "6 passed" in proc.stdout
