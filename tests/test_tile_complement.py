"""The tile form of the complement against the QR factor.

A tile-type basis (tile cells that partition the grid into rectangles, one
whole-grid stopper, N = D - T + 1, and a certificate within 1e-12) runs the
see-saw on the closed form Q = sum_t u_t u_t^T - s s^T; every other basis
runs it on the QR factor of the complement with unchanged bits.
"""

import dataclasses
import json

import numpy as np
import pytest

from prodbasis import cli, verify
from prodbasis.basis import ProductBasis
from prodbasis.boundent import range_criterion_report, upb_density_state
from prodbasis.config import TOLERANCES
from prodbasis.families import cartesian_basis, gen_tiles1, gen_tiles2
from prodbasis.io import save_basis
from prodbasis.sampling import stream
from prodbasis.verify import _complement_factor, _seesaw, _tile_complement, check_upb, overlap_verdict
from prodbasis.winding import random_wound_basis

# the basis files of the certify_tiles benchmark workload, and g2(3,20)
CERTIFY_FILES = {
    "g1_6": lambda: gen_tiles1(6),
    "g1_8": lambda: gen_tiles1(8),
    "g1_10": lambda: gen_tiles1(10),
    "g1_12": lambda: gen_tiles1(12),
    "g2_3x4": lambda: gen_tiles2(3, 4),
    "g2_4x6": lambda: gen_tiles2(4, 6),
    "g2_5x8": lambda: gen_tiles2(5, 8),
    "g2_6x10": lambda: gen_tiles2(6, 10),
    "g2_3x20": lambda: gen_tiles2(3, 20),
}


def drop_last(basis):
    return ProductBasis(basis.d_a, basis.d_b, basis.states[:-1], family=basis.family)


def with_cells(basis, cells):
    """The basis with other tile cells; the amplitudes are unchanged."""
    return ProductBasis._from_rows((basis.d_a, basis.d_b), basis.a_matrix().T, basis.b_matrix().T,
                                   basis.labels, cells, family=basis.family)


def overlapping_cells(basis):
    # every state of tile 0 also claims a cell of tile 1
    first, second = basis.tile_cells[0], basis.tile_cells[len(basis) // 2]
    extra = min(second)
    return with_cells(basis, [cells | {extra} if cells == first else cells for cells in basis.tile_cells])


def non_rectangular_cells(basis):
    # two tiles trade one cell: still a partition with T tiles, but no longer rectangles
    first, second = basis.tile_cells[0], basis.tile_cells[len(basis) // 2]
    x, y = min(first), min(second)
    moved = {first: first - {x} | {y}, second: second - {y} | {x}}
    return with_cells(basis, [moved.get(cells, cells) for cells in basis.tile_cells])


def no_stopper_cells(basis):
    # the stopper claims all but one cell
    whole = basis.tile_cells[-1]
    return with_cells(basis, [cells - {min(cells)} if cells == whole else cells for cells in basis.tile_cells])


def tilted(basis, delta):
    """The basis with state 0's A factor tilted by ``delta`` towards |1>, renormalised."""
    a = basis.a_matrix().T.copy()
    a[0, 1] += delta
    a[0] /= np.linalg.norm(a[0])
    return ProductBasis._from_rows((basis.d_a, basis.d_b), a, basis.b_matrix().T,
                                   basis.labels, basis.tile_cells, family=basis.family)


def assert_same_run(got, want):
    assert got.max_product_overlap == want.value
    assert got.witness_state.a.tobytes() == want.witness.a.tobytes()
    assert got.witness_state.b.tobytes() == want.witness.b.tobytes()
    assert (got.iterations_total, got.capped_restarts) == (want.iterations_total, want.capped_restarts)


@pytest.mark.parametrize("name", ["g1_4", "g1_6", "g2_3x4", "g2_3x20"])
def test_tile_operators_are_row_independent(name):
    # a lone row (the last active restart) must get the bits it gets in a batch
    basis = {"g1_4": gen_tiles1(4), "g1_6": gen_tiles1(6), "g2_3x4": gen_tiles2(3, 4),
             "g2_3x20": gen_tiles2(3, 20)}[name]
    tiles = _tile_complement(basis)
    rng = stream(31, basis.dim)
    a = rng.standard_normal((40, basis.d_a)) + 1j * rng.standard_normal((40, basis.d_a))
    b = rng.standard_normal((40, basis.d_b)) + 1j * rng.standard_normal((40, basis.d_b))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b /= np.linalg.norm(b, axis=1)[:, None]
    m_a, m_b, values = tiles.a_side(b), tiles.b_side(a), tiles.values(a, b)
    assert m_a.dtype == m_b.dtype == complex
    assert not m_a.imag.any() and not m_b.imag.any()
    steps_a = verify._power_steps(m_a, a)
    for i in range(len(a)):
        assert m_a[i].tobytes() == tiles.a_side(b[i:i + 1])[0].tobytes()
        assert m_b[i].tobytes() == tiles.b_side(a[i:i + 1])[0].tobytes()
        assert values[i] == tiles.values(a[i:i + 1], b[i:i + 1])[0]
        value, vector = verify._power_steps(m_a[i:i + 1], a[i:i + 1])
        assert value[0] == steps_a[0][i] and vector[0].tobytes() == steps_a[1][i].tobytes()


@pytest.mark.parametrize("name", ["g1_6", "g2_3x4", "g2_4x6"])
def test_tile_operators_are_the_contractions_of_the_qr_complement(name):
    # <b|Q|b> and <a|Q|a> of the projector F F^dag, and the objective, to rounding
    basis = CERTIFY_FILES[name]()
    tiles = _tile_complement(basis)
    f = _complement_factor(basis)
    q = (f @ f.conj().T).reshape(basis.d_a, basis.d_b, basis.d_a, basis.d_b)
    rng = stream(37, basis.dim)
    a = rng.standard_normal((5, basis.d_a)) + 1j * rng.standard_normal((5, basis.d_a))
    b = rng.standard_normal((5, basis.d_b)) + 1j * rng.standard_normal((5, basis.d_b))
    a /= np.linalg.norm(a, axis=1)[:, None]
    b /= np.linalg.norm(b, axis=1)[:, None]
    want_a = np.einsum("ijkl,nj,nl->nik", q, b.conj(), b)
    want_b = np.einsum("ijkl,ni,nk->njl", q, a.conj(), a)
    want = np.einsum("ijkl,ni,nj,nk,nl->n", q, a.conj(), b.conj(), a, b).real
    assert np.max(np.abs(tiles.a_side(b) - want_a)) <= 1e-14
    assert np.max(np.abs(tiles.b_side(a) - want_b)) <= 1e-14
    assert np.max(np.abs(tiles.values(a, b) - want)) <= 1e-14
    # F = U C is an orthonormal factor of the same projector
    g = tiles.factor()
    assert g.shape == f.shape
    assert np.max(np.abs(g.conj().T @ g - np.eye(g.shape[1]))) <= 1e-14
    assert np.max(np.abs(g @ g.conj().T - f @ f.conj().T)) <= 1e-14


@pytest.mark.parametrize("name", CERTIFY_FILES)
def test_tile_and_qr_paths_agree(name):
    basis = CERTIFY_FILES[name]()
    assert _tile_complement(basis) is not None
    for seed in (0, 7):
        got = check_upb(basis, seed=seed)
        want = _seesaw(_complement_factor(basis), basis.d_a, basis.d_b, 100, seed)
        assert got.verdict is overlap_verdict(want.value)
        assert abs(got.max_product_overlap - want.value) <= 1e-12
        assert got.capped_restarts == want.capped_restarts == 0


FALLBACKS = {
    "g1_8_minus1": lambda: drop_last(gen_tiles1(8)),
    "g2_4x6_minus1": lambda: drop_last(gen_tiles2(4, 6)),
    "cart_3x3_minus1": lambda: drop_last(cartesian_basis(3, 3)),
    "wound_3x3_minus1": lambda: drop_last(random_wound_basis(3, 3, 2, 0)[0]),
    "g1_6_overlapping": lambda: overlapping_cells(gen_tiles1(6)),
    "g1_6_non_rectangular": lambda: non_rectangular_cells(gen_tiles1(6)),
    "g1_6_no_stopper": lambda: no_stopper_cells(gen_tiles1(6)),
}


@pytest.mark.parametrize("name", FALLBACKS)
def test_other_inputs_take_the_qr_factor(name):
    basis = FALLBACKS[name]()
    assert _tile_complement(basis) is None
    for seed in (0, 7):
        want = _seesaw(_complement_factor(basis), basis.d_a, basis.d_b, 30, seed)
        assert_same_run(check_upb(basis, restarts=30, seed=seed), want)


def test_complete_bases_have_no_tile_form():
    assert _tile_complement(cartesian_basis(3, 3)) is None
    assert check_upb(cartesian_basis(3, 3)).verdict.value == "CompleteBasis"


def test_a_tilted_tile_basis_fails_the_certificate():
    # a 1e-9 tilt passes --tol 1e-7 and the spectrum check, but its
    # certificate reads about 1e-9, far above the 1e-12 slack
    basis = tilted(gen_tiles1(6), 1e-9)
    assert verify._tile_layout(basis) is not None
    assert _tile_complement(basis) is None
    tol = dataclasses.replace(TOLERANCES, orthonormality=1e-7)
    for seed in (0, 7):
        want = _seesaw(_complement_factor(basis), basis.d_a, basis.d_b, 30, seed)
        assert_same_run(check_upb(basis, restarts=30, seed=seed, tol=tol), want)


def test_the_layout_reads_the_families_tiles():
    for n in (4, 6, 12):
        cols, rows = verify._tile_layout(gen_tiles1(n))
        assert cols.shape == (2 * n, n) and rows.shape == (2 * n, n)
        assert sorted(cols.sum(axis=1) * rows.sum(axis=1)) == [n // 2] * (2 * n)
    # g2(3,20): the short tiles first, in state order, then the long ones
    cols, rows = verify._tile_layout(gen_tiles2(3, 20))
    assert cols.shape == (6, 3) and rows.shape == (6, 20)
    assert [tuple(np.flatnonzero(c)) for c in cols[:3]] == [(0, 1), (1, 2), (0, 2)]
    assert [tuple(np.flatnonzero(r)) for r in rows[:3]] == [(0,), (1,), (2,)]
    assert [tuple(np.flatnonzero(c)) for c in cols[3:]] == [(0,), (1,), (2,)]
    assert rows[3:].sum(axis=1).tolist() == [18, 18, 18]


def test_range_criterion_falls_back_with_the_state():
    # a complement state built from the QR factor carries no tile form, and
    # its range criterion runs on that factor
    basis = drop_last(gen_tiles1(6))
    rho = upb_density_state(basis)
    assert rho._tiles is None
    w, v = rho._spectrum
    report = range_criterion_report(rho, restarts=20, seed=1)
    want = _seesaw(v, basis.d_a, basis.d_b, 20, 1)
    assert report.max_product_overlap == want.value
    assert report.witness.a.tobytes() == want.witness.a.tobytes()


@pytest.mark.parametrize("name,make,code,calls", [
    ("g1_6", lambda: gen_tiles1(6), 0, 0),
    ("g2_4x6_minus1", lambda: drop_last(gen_tiles2(4, 6)), 3, 1),
])
def test_cli_verify_counts_qr_calls(tmp_path, capsys, monkeypatch, name, make, code, calls):
    seen = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        seen.append(np.shape(args[0]))
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    path = tmp_path / f"{name}.json"
    save_basis(make(), path)
    seen.clear()
    assert cli.main(["verify", str(path), "--format", "json", "--restarts", "20"]) == code
    assert json.loads(capsys.readouterr().out)["report"]["max_product_overlap"] > 0
    assert len(seen) == calls
