"""Acceptance suite.

One test per criterion, run at the stated tolerances; each prints a
per-criterion PASS line (visible with ``pytest -s`` or in verbose listings).
"""

import json
import time

import numpy as np

from prodbasis.basis import ProductBasis, ProductState
from prodbasis.boundent import RangeVerdict, is_ppt, range_criterion_report, upb_density_state
from prodbasis.cli import main
from prodbasis.families import cartesian_basis, cyclic_shift_basis, gen_tiles1, gen_tiles2
from prodbasis.io import load_basis, save_basis
from prodbasis.linalg import basis_vector, kron
from prodbasis.sampling import random_unit_vector, stream
from prodbasis.verify import (
    Verdict,
    basis_set_equal_up_to_phase,
    check_upb,
    gram_matrix,
    grid_oracle_max_product_overlap,
    seesaw_max_product_overlap,
)
from prodbasis.winding import (
    apply_winding_move,
    inverse_move,
    is_cartesian,
    random_wound_basis,
    unwind,
)

UPB_INSTANCES = [
    ("gen_tiles1(4)", lambda: gen_tiles1(4)),
    ("gen_tiles1(6)", lambda: gen_tiles1(6)),
    ("gen_tiles2(3,4)", lambda: gen_tiles2(3, 4)),
    ("gen_tiles2(4,4)", lambda: gen_tiles2(4, 4)),
]


def test_criterion_1_counts_and_orthonormality():
    start = time.perf_counter()
    for n in (4, 6, 8, 10):
        basis = gen_tiles1(n)
        assert len(basis) == (n - 1) ** 2
        assert np.max(np.abs(gram_matrix(basis) - np.eye(len(basis)))) <= 1e-10
    for m, n in ((3, 4), (3, 5), (4, 4), (4, 5), (5, 6)):
        basis = gen_tiles2(m, n)
        assert len(basis) == m * n - 2 * m + 1
        assert np.max(np.abs(gram_matrix(basis) - np.eye(len(basis)))) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"counts/orthonormality took {elapsed:.2f}s"
    print(f"\ncriterion 1 (counts and orthonormality, {elapsed*1e3:.0f} ms): PASS")


def test_criterion_2_cyclic_shift_invariance():
    for n in (4, 6, 8):
        basis = gen_tiles1(n)
        for s in range(n):
            ok, _ = basis_set_equal_up_to_phase(basis, cyclic_shift_basis(basis, s))
            assert ok, f"shift {s} broke set equality for n={n}"
    print("\ncriterion 2 (cyclic shift set-invariance): PASS")


def test_criterion_3_unextendibility():
    seeds = (101, 202, 303, 404, 505)
    for name, make in UPB_INSTANCES:
        basis = make()
        start = time.perf_counter()
        values = []
        for seed in seeds:
            report = check_upb(basis, restarts=500, seed=seed)
            assert report.verdict is Verdict.UPB_NUMERIC, (name, seed, report.verdict)
            assert report.max_product_overlap < 1 - 1e-3
            values.append(report.max_product_overlap)
        elapsed = time.perf_counter() - start
        spread = max(values) - min(values)
        assert spread < 1e-6, (name, spread)
        assert elapsed < 60.0, (name, elapsed)
        print(f"\ncriterion 3 ({name}: overlap {values[0]:.12f}, spread {spread:.1e}, {elapsed:.1f}s): PASS")


def test_criterion_4_oracle_agreement():
    rng = stream(4040, 0)
    checked = 0
    for d_a, d_b in ((2, 2), (2, 3)):
        dim = d_a * d_b
        for trial in range(25):
            rank = int(rng.integers(1, 4))
            cols = np.linalg.qr(
                rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            )[0]
            q = cols @ cols.conj().T
            grid = grid_oracle_max_product_overlap(q, d_a, d_b, resolution=64)
            ss = seesaw_max_product_overlap(q, d_a, d_b, restarts=60, seed=trial)
            assert ss.value >= grid.value - 1e-6, (d_a, d_b, trial, grid.value - ss.value)
            checked += 1
        # rank-1 product projector: both routes reach >= 0.998
        a = random_unit_vector(rng, d_a)
        b = random_unit_vector(rng, d_b)
        v = kron(a, b)
        q = np.outer(v, v.conj())
        grid = grid_oracle_max_product_overlap(q, d_a, d_b, resolution=64)
        ss = seesaw_max_product_overlap(q, d_a, d_b, restarts=20, seed=0)
        assert grid.value >= 0.998 and ss.value >= 0.998
    assert checked == 50
    print("\ncriterion 4 (see-saw vs grid oracle on 50 random projectors): PASS")


def test_criterion_5_bound_entanglement_signature():
    for name, make in UPB_INSTANCES:
        basis = make()
        rho = upb_density_state(basis)
        ppt_ok, min_pt = is_ppt(rho)
        assert ppt_ok, (name, min_pt)
        report = range_criterion_report(rho, restarts=200, seed=77)
        assert report.verdict is RangeVerdict.ENTANGLED, name
        assert report.max_product_overlap < 1 - 1e-3, (name, report.max_product_overlap)
    # control: maximally entangled state is not PPT, minimum eigenvalue -1/2
    bell = (kron(basis_vector(2, 0), basis_vector(2, 0)) + kron(basis_vector(2, 1), basis_vector(2, 1))) / np.sqrt(2)
    from prodbasis.boundent import DensityMatrix

    ok, min_pt = is_ppt(DensityMatrix(np.outer(bell, bell.conj()), 2, 2))
    assert not ok
    assert abs(min_pt - (-0.5)) <= 1e-10
    print("\ncriterion 5 (PPT + range criterion on all UPB instances, Bell control): PASS")


def test_criterion_6_winding_round_trips():
    for dims in ((2, 2), (2, 3), (3, 3)):
        for seed in range(100):
            k = seed % 4  # k <= 3
            basis, moves = random_wound_basis(*dims, k, seed)
            # replay move by move, checking the Gram after each application
            replay = cartesian_basis(*dims)
            for move in moves:
                replay = apply_winding_move(replay, move)
                g = gram_matrix(replay)
                assert np.max(np.abs(g - np.eye(len(replay)))) <= 1e-10
            assert all(np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
                       for x, y in zip(replay, basis))
            back = basis
            for move in reversed(moves):
                back = apply_winding_move(back, inverse_move(move))
            assert is_cartesian(back), (dims, seed)
    print("\ncriterion 6 (300 winding round trips, Gram checked per move): PASS")


def test_criterion_7_unwinder_single_move():
    for dims in ((2, 2), (2, 3), (2, 4)):
        for seed in range(100):
            basis, _ = random_wound_basis(*dims, 1, seed + 9000)
            sequence = unwind(basis, 2)
            assert sequence is not None, (dims, seed)
            assert len(sequence) <= 2
            # independent certification by re-application
            replay = basis
            for move in sequence:
                replay = apply_winding_move(replay, move)
            assert is_cartesian(replay), (dims, seed)
    print("\ncriterion 7 (300/300 single-move wound bases unwound at depth <= 2): PASS")


def test_criterion_8_determinism_and_serialization(tmp_path, capsys):
    path = tmp_path / "g1.json"
    save_basis(gen_tiles1(4), path)
    args = ["verify", str(path), "--restarts", "50", "--seed", "13", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second and json.loads(first)["report"]["seed"] == 13

    rng = stream(8080, 0)
    states = tuple(
        ProductState(random_unit_vector(rng, 3), random_unit_vector(rng, 3))
        for _ in range(1000)
    )
    chunk = 250
    for chunk_start in range(0, 1000, chunk):
        basis = ProductBasis(3, 3, states[chunk_start:chunk_start + chunk])
        file_path = tmp_path / f"chunk{chunk_start}.json"
        save_basis(basis, file_path)
        loaded = load_basis(file_path)
        for x, y in zip(basis, loaded):
            assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b)
    print("\ncriterion 8 (byte-identical reports, bit-exact round trip of 1000 states): PASS")
