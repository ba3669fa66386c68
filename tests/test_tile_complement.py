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
from prodbasis.boundent import DensityMatrix, is_ppt, range_criterion_report, upb_density_state
from prodbasis.config import TOLERANCES
from prodbasis.families import cartesian_basis, gen_tiles1, gen_tiles2
from prodbasis.io import save_basis
from prodbasis.linalg import partial_transpose
from prodbasis.sampling import stream
from prodbasis.verify import (
    _complement,
    _FactorContractions,
    _seesaw,
    _TileContractions,
    check_upb,
    overlap_verdict,
)
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


def qr_complement(basis):
    """The QR form of the complement, whatever form ``_complement`` picks for the basis.

    The basis without its tile cells has the same global matrix and no tile
    form, so ``_complement`` takes the QR factor of that matrix.
    """
    q = _complement(with_cells(basis, [None] * len(basis)))
    assert isinstance(q, _FactorContractions)
    return q


def qr_seesaw(basis, restarts, seed):
    """The see-saw on the QR factor of the complement, whatever form ``_complement`` picks."""
    return _seesaw(qr_complement(basis), restarts, seed)


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
    tiles = _complement(basis)
    assert isinstance(tiles, _TileContractions)
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
    tiles = _complement(basis)
    assert isinstance(tiles, _TileContractions)
    qr = qr_complement(basis).projector()
    q = qr.reshape(basis.d_a, basis.d_b, basis.d_a, basis.d_b)
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
    # U U^T - s s^T is the same projector
    p = tiles.projector()
    assert p.shape == qr.shape
    assert np.max(np.abs(p @ p - p)) <= 1e-14
    assert np.max(np.abs(p - qr)) <= 1e-14


@pytest.mark.parametrize("name", CERTIFY_FILES)
def test_tile_projector_is_the_qr_complement_projector(name):
    basis = CERTIFY_FILES[name]()
    tiles = _complement(basis)
    assert isinstance(tiles, _TileContractions)
    p = tiles.projector()
    assert p.dtype == complex and not p.imag.any()
    assert np.max(np.abs(p - qr_complement(basis).projector())) <= 1e-14


@pytest.mark.parametrize("name", CERTIFY_FILES)
def test_tile_complement_is_its_own_partial_transpose(name):
    # (alpha alpha^T (x) beta beta^T)^Gamma = alpha alpha^T (x) beta beta^T for
    # real alpha and beta, so Q^Gamma = Q and the PPT half of the signature
    # holds exactly for tile-type inputs
    basis = CERTIFY_FILES[name]()
    p = _complement(basis).projector()
    assert np.max(np.abs(partial_transpose(p, basis.d_a, basis.d_b) - p)) <= 1e-15
    rho = upb_density_state(basis)
    if np.array_equal(partial_transpose(rho.matrix, basis.d_a, basis.d_b), rho.matrix):
        assert is_ppt(rho)[1] == float(np.linalg.eigvalsh(rho.matrix)[0])


@pytest.mark.parametrize("name", CERTIFY_FILES)
def test_tile_and_qr_paths_agree(name):
    basis = CERTIFY_FILES[name]()
    assert isinstance(_complement(basis), _TileContractions)
    for seed in (0, 7):
        got = check_upb(basis, seed=seed)
        want = qr_seesaw(basis, 100, seed)
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
    assert isinstance(_complement(basis), _FactorContractions)
    for seed in (0, 7):
        want = qr_seesaw(basis, 30, seed)
        assert_same_run(check_upb(basis, restarts=30, seed=seed), want)


def test_complete_bases_have_no_tile_form():
    assert isinstance(_complement(cartesian_basis(3, 3)), _FactorContractions)
    assert check_upb(cartesian_basis(3, 3)).verdict.value == "CompleteBasis"


def test_a_tilted_tile_basis_fails_the_certificate():
    # a 1e-9 tilt passes --tol 1e-7 and the spectrum check, but its
    # certificate reads about 1e-9, far above the 1e-12 slack
    basis = tilted(gen_tiles1(6), 1e-9)
    assert verify._tile_layout(basis) is not None
    assert isinstance(_complement(basis), _FactorContractions)
    tol = dataclasses.replace(TOLERANCES, orthonormality=1e-7)
    for seed in (0, 7):
        want = qr_seesaw(basis, 30, seed)
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
    assert isinstance(rho._range, _FactorContractions)
    q = _complement(basis)
    assert isinstance(q, _FactorContractions)
    assert rho._range.projector().tobytes() == q.projector().tobytes()
    report = range_criterion_report(rho, restarts=20, seed=1)
    want = _seesaw(q, 20, 1)
    assert report.max_product_overlap == want.value
    assert report.witness.a.tobytes() == want.witness.a.tobytes()


@pytest.mark.parametrize("name,make", [
    ("g1_6", lambda: gen_tiles1(6)),
    ("g2_3x4", lambda: gen_tiles2(3, 4)),
    ("g2_6x10", lambda: gen_tiles2(6, 10)),
    ("g2_4x6_minus1", lambda: drop_last(gen_tiles2(4, 6))),
    ("g1_8_minus1", lambda: drop_last(gen_tiles1(8))),
])
def test_range_criterion_agrees_on_the_kept_complement_and_the_eigh_range(name, make):
    # the state's kept complement (tile form or QR factor) against the
    # range eigenvectors that DensityMatrix's own eigh finds for its matrix
    rho = upb_density_state(make())
    public = DensityMatrix(rho.matrix, rho.d_a, rho.d_b)
    assert isinstance(public._range, _FactorContractions)
    assert public._range.rank == rho._range.rank
    for seed in (0, 1, 7):
        got = range_criterion_report(rho, restarts=40, seed=seed)
        want = range_criterion_report(public, restarts=40, seed=seed)
        assert (got.verdict, got.range_rank) == (want.verdict, want.range_rank)
        assert abs(got.max_product_overlap - want.max_product_overlap) <= 1e-12


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
