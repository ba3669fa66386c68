import dataclasses

import numpy as np
import pytest

from prodbasis import verify
from prodbasis.basis import ProductBasis, ProductState
from prodbasis.config import TOLERANCES
from prodbasis.errors import (
    CountMismatch,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidProjector,
    NonOrthonormalInput,
)
from prodbasis.families import cartesian_basis, gen_tiles1, gen_tiles2
from prodbasis.linalg import dagger, hermitian_part
from prodbasis.sampling import random_unit_vector, stream
from prodbasis.verify import (
    Verdict,
    basis_set_equal_up_to_phase,
    check_orthonormal,
    check_upb,
    complement_projector,
    gram_matrix,
    grid_oracle_max_product_overlap,
    overlap_verdict,
    seesaw_max_product_overlap,
)

# converged see-saw maxima for the complement projectors, frozen as
# regression baselines from 1000 restarts x 5 seeds (spread < 1e-14)
GENTILES1_4_MAX_OVERLAP = 0.970278247980011


def single_state_basis():
    return ProductBasis(2, 2, (ProductState(np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[0]),))


def duplicated_state_basis():
    st = ProductState(np.eye(2, dtype=complex)[0], np.eye(2, dtype=complex)[0])
    return ProductBasis(2, 2, (st, st))


def test_gram_matrix_gentiles1():
    g = gram_matrix(gen_tiles1(6))
    assert np.max(np.abs(g - np.eye(25))) <= 1e-12


def test_gram_matrix_single_state():
    g = gram_matrix(single_state_basis())
    assert g.shape == (1, 1)
    assert abs(g[0, 0] - 1.0) < 1e-15


def test_check_orthonormal():
    ok, _ = check_orthonormal(gen_tiles2(3, 4))
    assert ok
    ok, _ = check_orthonormal(cartesian_basis(2, 2))
    assert ok
    ok, dev = check_orthonormal(duplicated_state_basis())
    assert not ok
    assert abs(dev.max_offdiag - 1.0) < 1e-12


def old_deviations(g):
    """The Gram deviations as formed before, through the N x N copy g - diag(g)."""
    off = g - np.diag(np.diag(g))
    return (float(np.max(np.abs(off))) if len(g) > 1 else 0.0, float(np.max(np.abs(np.diag(g) - 1.0))))


def test_deviations_are_bit_identical_to_the_copying_formula():
    grams = [gram_matrix(b) for b in (gen_tiles1(4), gen_tiles1(12), gen_tiles2(3, 4), gen_tiles2(6, 10),
                                      cartesian_basis(3, 3), duplicated_state_basis(), single_state_basis())]
    rng = stream(47, 0)
    for n in (1, 2, 3, 7, 40):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        grams += [m @ m.conj().T, m]
    assert any(len(g) == 1 for g in grams)
    for g in grams:
        dev = verify._deviations(g)
        assert (dev.max_offdiag, dev.max_diag_error) == old_deviations(g)


def test_complement_projector_traces():
    q = complement_projector(gen_tiles1(6))
    assert abs(np.trace(q).real - 11.0) <= 1e-9
    q = complement_projector(cartesian_basis(2, 3))
    assert np.max(np.abs(q)) <= 1e-10
    q = complement_projector(gen_tiles2(3, 4))
    assert abs(np.trace(q).real - 5.0) <= 1e-9


def test_complement_projector_rejects_non_orthonormal():
    with pytest.raises(NonOrthonormalInput):
        complement_projector(duplicated_state_basis())


def test_seesaw_zero_operator():
    res = seesaw_max_product_overlap(np.zeros((4, 4), dtype=complex), 2, 2, restarts=3, seed=0)
    assert res.value == 0.0


def test_seesaw_finds_product_state_in_complement():
    q = complement_projector(single_state_basis())
    res = seesaw_max_product_overlap(q, 2, 2, restarts=5, seed=0)
    assert res.value >= 1.0 - 1e-10
    # witness must be a product state orthogonal to |00>
    w = np.kron(res.witness.a, res.witness.b)
    assert abs(np.vdot(np.eye(4, dtype=complex)[0], w)) <= 1e-6


def test_seesaw_gentiles1_4_regression():
    q = complement_projector(gen_tiles1(4))
    res = seesaw_max_product_overlap(q, 4, 4, restarts=200, seed=0)
    assert res.value < 1.0 - 1e-3
    assert abs(res.value - GENTILES1_4_MAX_OVERLAP) <= 1e-9


def test_seesaw_deterministic():
    q = complement_projector(gen_tiles2(3, 4))
    r1 = seesaw_max_product_overlap(q, 3, 4, restarts=20, seed=42)
    r2 = seesaw_max_product_overlap(q, 3, 4, restarts=20, seed=42)
    assert r1.value == r2.value
    assert np.array_equal(r1.witness.a, r2.witness.a)
    assert np.array_equal(r1.witness.b, r2.witness.b)
    assert r1.iterations_total == r2.iterations_total


def test_seesaw_rejects_bad_operator():
    with pytest.raises(InvalidProjector):
        seesaw_max_product_overlap(2.0 * np.eye(4, dtype=complex), 2, 2, restarts=1, seed=0)
    with pytest.raises(InvalidProjector):
        seesaw_max_product_overlap(np.array([[0, 1], [0, 0]], dtype=complex), 1, 2, restarts=1, seed=0)


@pytest.mark.parametrize("d_a,d_b,dim", [(0, 3, 0), (2, 0, 0), (-1, -1, 1)])
def test_nonpositive_dimensions_rejected(d_a, d_b, dim):
    q = np.zeros((dim, dim))
    with pytest.raises(DimensionMismatch):
        seesaw_max_product_overlap(q, d_a, d_b, restarts=1, seed=0)
    with pytest.raises(DimensionMismatch):
        grid_oracle_max_product_overlap(q, d_a, d_b, resolution=8)


def test_seesaw_rejects_an_operator_of_other_dims():
    with pytest.raises(DimensionMismatch):
        seesaw_max_product_overlap(np.eye(3), 2, 2)


def test_grid_oracle_rejects_a_resolution_below_two():
    with pytest.raises(ValueError, match="resolution must be at least 2"):
        grid_oracle_max_product_overlap(np.eye(4) / 2, 2, 2, resolution=1)


def test_seesaw_rejects_nan_operator():
    with pytest.raises(InvalidProjector):
        seesaw_max_product_overlap(np.full((4, 4), np.nan, dtype=complex), 2, 2, restarts=1, seed=0)


def test_grid_oracle_rejects_nan_operator():
    with pytest.raises(InvalidProjector):
        grid_oracle_max_product_overlap(np.full((4, 4), np.nan, dtype=complex), 2, 2, resolution=8)


def test_grid_oracle_rank_one_product():
    v = np.eye(4, dtype=complex)[0]
    q = np.outer(v, v.conj())
    res = grid_oracle_max_product_overlap(q, 2, 2, resolution=64)
    assert res.value >= 0.998
    assert res.gap_bound > 0


def test_grid_oracle_maximally_entangled():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    q = np.outer(bell, bell.conj())
    res = grid_oracle_max_product_overlap(q, 2, 2, resolution=64)
    # analytic optimum is the largest squared Schmidt coefficient, 1/2
    assert abs(res.value - 0.5) <= 0.01


def test_grid_oracle_below_seesaw():
    rng = stream(99, 0)
    for trial in range(5):
        v1 = random_unit_vector(rng, 4)
        v2 = random_unit_vector(rng, 4)
        v2 -= v1 * np.vdot(v1, v2)
        v2 /= np.linalg.norm(v2)
        q = np.outer(v1, v1.conj()) + np.outer(v2, v2.conj())
        grid = grid_oracle_max_product_overlap(q, 2, 2, resolution=64)
        ss = seesaw_max_product_overlap(q, 2, 2, restarts=40, seed=trial)
        assert grid.value <= ss.value + 1e-6


def reference_bloch_grid(resolution):
    """The meshgrid formulation of the Bloch grid."""
    t, p = np.meshgrid(np.linspace(0.0, np.pi, resolution),
                       np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False), indexing="ij")
    return np.stack([np.cos(t / 2).ravel(), (np.exp(1j * p) * np.sin(t / 2)).ravel()], axis=1)


def reference_grid_oracle(q, d_a, d_b, resolution=64):
    """The three-operand ``einsum`` contraction the two matmuls replaced."""
    q, w, _ = verify._check_operator_interval(q, d_a, d_b)
    if d_a == 1:
        grid = np.ones((1, 1), dtype=complex)
        max_spacing = 0.0
    else:
        grid = reference_bloch_grid(resolution)
        max_spacing = np.sqrt((np.pi / (resolution - 1) / 4) ** 2 + (2.0 * np.pi / resolution / 2) ** 2)
    m_b = np.einsum("ijkl,ni,nk->njl", q.reshape(d_a, d_b, d_a, d_b), grid.conj(), grid)
    value = float(np.max(np.linalg.eigvalsh((m_b + dagger(m_b)) / 2)[:, -1]))
    return value, float(2.0 * float(np.max(np.abs(w))) * max_spacing)


def random_projector(rng, dim):
    rank = int(rng.integers(1, min(dim, 3) + 1))
    cols = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))[0]
    return cols @ cols.conj().T


def crosscheck_cases():
    """The benchmark's 32 crosscheck projectors, then a dA = 1 and a dB = 1 case."""
    cases = [(d_a, d_b, random_projector(stream(4040 + 10 * d_a + d_b, index), d_a * d_b))
             for d_a, d_b in ((2, 2), (2, 3)) for index in range(16)]
    cases += [(1, 3, random_projector(stream(4041, 0), 3)), (2, 1, random_projector(stream(4042, 0), 2))]
    return cases


@pytest.mark.parametrize("resolution", [2, 17, 64])
def test_bloch_grid_matches_meshgrid_reference(resolution):
    assert verify._bloch_grid(resolution).tobytes() == reference_bloch_grid(resolution).tobytes()


def test_grid_oracle_matches_einsum_reference():
    for d_a, d_b, q in crosscheck_cases():
        grid = grid_oracle_max_product_overlap(q, d_a, d_b, resolution=64)
        value, gap_bound = reference_grid_oracle(q, d_a, d_b, resolution=64)
        assert abs(grid.value - value) <= 1e-12
        assert grid.gap_bound == gap_bound
        seesaw = seesaw_max_product_overlap(q, d_a, d_b, restarts=60, seed=0)
        assert grid.value <= seesaw.value + 1e-6


def full_grid_oracle(q, d_a, d_b, resolution):
    """The sweep that solves every grid state, as the oracle did before pruning."""
    q, w, _ = verify._check_operator_interval(q, d_a, d_b)
    if d_a == 1:
        grid = np.ones((1, 1), dtype=complex)
        max_spacing = 0.0
    else:
        grid = verify._bloch_grid(resolution)
        max_spacing = np.sqrt((np.pi / (resolution - 1) / 4) ** 2 + (2.0 * np.pi / resolution / 2) ** 2)
    q_bra = q.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a, -1)
    bra_q = (grid.conj() @ q_bra).reshape(len(grid), d_a, d_b * d_b)
    m_b = (grid[:, None, :] @ bra_q).reshape(len(grid), d_b, d_b)
    value = float(np.max(np.linalg.eigvalsh(hermitian_part(m_b))[:, -1]))
    return value, float(2.0 * float(np.max(np.abs(w))) * max_spacing)


def random_operator(rng, dim):
    """A random 0 <= Q <= I with spectrum drawn uniformly from [0, 1]: no projector."""
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return (u * rng.uniform(0.0, 1.0, dim)) @ u.conj().T


def flat_projector(rng, dim=4):
    """I - |psi><psi|: every grid state's <a|Q|a> has top eigenvalue 1, degenerate for dim = 6."""
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.eye(dim) - np.outer(psi, psi.conj())


def rounded_spectrum_operator(rng, dim):
    """A random 0 <= Q <= I with its spectrum rounded to one decimal, so eigenvalues tie."""
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    return (u * np.round(rng.uniform(0.0, 1.0, dim), 1)) @ u.conj().T


def adversarial_cases():
    """Operators where pruning is flat, degenerate, at a pole or at a dimension edge."""
    rng = np.random.default_rng(2027)
    dims = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3))
    cases = [(d_a, d_b, np.zeros((d_a * d_b,) * 2, dtype=complex)) for d_a, d_b in dims]
    cases += [(d_a, d_b, 0.5 * np.eye(d_a * d_b, dtype=complex)) for d_a, d_b in dims]
    cases += [(2, 2, flat_projector(rng)) for _ in range(3)]
    for d_b in (2, 3):
        pole = np.kron(np.eye(2, dtype=complex)[0], random_unit_vector(rng, d_b))   # a = |0>, theta = 0
        cases.append((2, d_b, np.outer(pole, pole.conj())))
    cases += [(d_a, d_b, random_operator(rng, d_a * d_b)) for d_a, d_b in dims for _ in range(3)]
    cases += [(2, 3, flat_projector(rng, 6)) for _ in range(2)]
    for _ in range(2):
        product = np.kron(random_unit_vector(rng, 2), random_unit_vector(rng, 3))
        cases.append((2, 3, np.outer(product, product.conj())))
    cases += [(2, 3, rounded_spectrum_operator(rng, 6)) for _ in range(4)]
    return cases


@pytest.mark.parametrize("resolution", [2, 17, 64])
def test_grid_oracle_bitwise_equals_full_sweep(resolution):
    for d_a, d_b, q in crosscheck_cases() + adversarial_cases():
        grid = grid_oracle_max_product_overlap(q, d_a, d_b, resolution=resolution)
        value, gap_bound = full_grid_oracle(q, d_a, d_b, resolution)
        assert grid.value == value
        assert grid.gap_bound == gap_bound


def test_top_eigenvalue_bound_covers_solved_values():
    # near-scalar operators drive the bound's trace-norm difference into cancellation
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for scale in (0.0, 1e-17, 1e-15, 1e-12, 1e-8, 1e-3, 1.0):
            noise = rng.standard_normal((500, d, d)) + 1j * rng.standard_normal((500, d, d))
            m = rng.uniform(0.0, 1.0, (500, 1, 1)) * np.eye(d) + scale * noise
            bound = verify._top_eigenvalue_bound(m)
            assert np.all(bound >= verify._top_eigenvalues(hermitian_part(m)) - verify._GRID_VALUE_SLACK)


def hermitian3_stacks(rng, count=300):
    """Near-scalar, near-degenerate and tiny-scale stacks of 3x3 Hermitian operators."""
    def noise():
        return rng.standard_normal((count, 3, 3)) + 1j * rng.standard_normal((count, 3, 3))

    u = np.linalg.qr(noise())[0]
    stacks = [rng.uniform(0.0, 1.0, (count, 1, 1)) * np.eye(3) + scale * noise()
              for scale in (0.0, 1e-17, 1e-15, 1e-12, 1e-8, 1e-3, 1.0)]
    top = rng.uniform(0.0, 1.0, (count, 1))
    for gap in (0.0, 1e-16, 1e-13, 1e-8):
        spectrum = np.concatenate([top, top - gap, top * rng.uniform(0.0, 1.0, (count, 1))], axis=1)
        stacks.append((u * spectrum[:, None, :]) @ dagger(u))
    stacks += [scale * noise() for scale in (1e-150, 1e-300, 1e-320)]
    return [hermitian_part(m) for m in stacks]


def test_certified_below_keeps_every_state_at_or_above_mu():
    rng = np.random.default_rng(12)
    for h in hermitian3_stacks(rng):
        top = verify._top_eigenvalues(h)
        d, n, t, l1 = verify._entries3(h)
        scale = np.max(np.abs(h), axis=(1, 2))
        for mu in (top - verify._GRID_VALUE_SLACK, top - 1e-14, top - 1e-12 * scale,
                   np.full_like(top, np.max(top) - verify._GRID_VALUE_SLACK)):
            certified = verify._certified_below(d, n, t, l1, mu[:, None])
            assert not np.any(certified & (top >= mu))
        # sound is not enough: a clear gap is certified
        assert np.all(verify._certified_below(d, n, t, l1, top[:, None] + 1e-3))


def eigvalsh_rows(monkeypatch):
    """Record the number of operators in each ``np.linalg.eigvalsh`` call."""
    rows = []
    solve = np.linalg.eigvalsh

    def counted(m):
        rows.append(len(m))
        return solve(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return rows


# operators a full sweep solves over the 32 benchmark projectors at resolution 64
FULL_SWEEP_ROWS = 32 * 64 * 64


def test_grid_oracle_solves_under_half_the_grid(monkeypatch):
    rows = eigvalsh_rows(monkeypatch)
    for d_a, d_b, q in crosscheck_cases()[:32]:
        grid_oracle_max_product_overlap(q, d_a, d_b, resolution=64)
    assert sum(rows) < FULL_SWEEP_ROWS // 2


def test_grid_oracle_solves_few_states_on_2x3(monkeypatch):
    rows = eigvalsh_rows(monkeypatch)
    for d_a, d_b, q in crosscheck_cases()[16:32]:
        assert (d_a, d_b) == (2, 3)
        grid_oracle_max_product_overlap(q, d_a, d_b, resolution=64)
    assert sum(rows) <= 64


def test_grid_oracle_solves_every_state_of_a_flat_operator(monkeypatch):
    rows = eigvalsh_rows(monkeypatch)
    res = grid_oracle_max_product_overlap(flat_projector(np.random.default_rng(3)), 2, 2, resolution=64)
    assert abs(res.value - 1.0) <= 1e-12
    assert max(rows) == 64 * 64


def test_grid_oracle_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        grid_oracle_max_product_overlap(np.eye(9, dtype=complex), 3, 3, resolution=8)


def test_check_upb_gentiles1():
    report = check_upb(gen_tiles1(6), restarts=60, seed=3)
    assert report.verdict is Verdict.UPB_NUMERIC
    assert report.complement_dim == 11
    assert report.span_rank == 25


@pytest.mark.parametrize("n", [4, 6, 8])
def test_check_upb_gentiles1_family(n):
    report = check_upb(gen_tiles1(n), restarts=40, seed=1)
    assert report.verdict is Verdict.UPB_NUMERIC


@pytest.mark.parametrize("m,n", [(3, 4), (3, 5), (4, 4), (4, 5)])
def test_check_upb_gentiles2_family(m, n):
    report = check_upb(gen_tiles2(m, n), restarts=40, seed=1)
    assert report.verdict is Verdict.UPB_NUMERIC


def test_check_upb_complete_basis_skips_seesaw():
    report = check_upb(cartesian_basis(3, 3), restarts=50, seed=0)
    assert report.verdict is Verdict.COMPLETE_BASIS
    assert report.complement_dim == 0
    assert report.restarts_used == 0 and report.iterations_total == 0


def test_check_upb_extendible_with_witness():
    report = check_upb(single_state_basis(), restarts=10, seed=0)
    assert report.verdict is Verdict.EXTENDIBLE
    assert report.witness_state is not None
    assert report.max_product_overlap >= 1.0 - 1e-8


def test_check_upb_builds_one_gram_matrix(monkeypatch):
    calls = []

    def counted(basis):
        calls.append(basis)
        return gram_matrix(basis)

    monkeypatch.setattr(verify, "gram_matrix", counted)
    report = check_upb(gen_tiles2(3, 4), restarts=5, seed=0)
    assert report.verdict is Verdict.UPB_NUMERIC
    assert len(calls) == 1


def test_overlap_verdict_thresholds():
    assert overlap_verdict(1.0 - 1e-8) is Verdict.EXTENDIBLE
    assert overlap_verdict(1.0 - 2e-8) is Verdict.INCONCLUSIVE
    assert overlap_verdict(1.0 - 1e-3) is Verdict.INCONCLUSIVE
    assert overlap_verdict(0.998) is Verdict.UPB_NUMERIC
    assert overlap_verdict(0.95, tol=dataclasses.replace(TOLERANCES, upb_margin=0.1)) is Verdict.INCONCLUSIVE
    assert overlap_verdict(float("nan")) is Verdict.INCONCLUSIVE


def test_default_tolerances_are_read_at_call_time(monkeypatch):
    basis = gen_tiles2(3, 4)
    monkeypatch.setattr(verify, "TOLERANCES", dataclasses.replace(TOLERANCES, upb_margin=0.1, orthonormality=-1.0))
    assert overlap_verdict(0.95) is Verdict.INCONCLUSIVE
    assert not check_orthonormal(basis)[0]
    for entry in (complement_projector, check_upb):
        with pytest.raises(NonOrthonormalInput):
            entry(basis)


def test_operator_checks_read_the_interval_at_call_time(monkeypatch):
    # spectrum {1 + 1e-6, 0, 0, 0}: outside [0, 1] by more than the default slack of 1e-8
    q = np.diag([1.0 + 1e-6, 0.0, 0.0, 0.0]).astype(complex)
    for entry in (seesaw_max_product_overlap, grid_oracle_max_product_overlap):
        with pytest.raises(InvalidProjector):
            entry(q, 2, 2)
    monkeypatch.setattr(verify, "TOLERANCES", dataclasses.replace(TOLERANCES, operator_interval=1e-5))
    assert abs(seesaw_max_product_overlap(q, 2, 2, restarts=3).value - (1.0 + 1e-6)) <= 1e-12
    assert abs(grid_oracle_max_product_overlap(q, 2, 2).value - (1.0 + 1e-6)) <= 1e-12


def test_check_upb_propagates_non_orthonormal():
    with pytest.raises(NonOrthonormalInput):
        check_upb(duplicated_state_basis())


def test_set_equal_self():
    basis = gen_tiles2(3, 4)
    ok, perm = basis_set_equal_up_to_phase(basis, basis)
    assert ok
    assert perm == tuple(range(len(basis)))


def test_set_equal_rejects_different_sets():
    g = gen_tiles1(6)
    truncated = cartesian_basis(6, 6)
    other = ProductBasis(6, 6, truncated.states[:25])
    ok, perm = basis_set_equal_up_to_phase(g, other)
    assert not ok and perm is None


def test_set_equal_count_mismatch():
    with pytest.raises(CountMismatch):
        basis_set_equal_up_to_phase(gen_tiles1(4), cartesian_basis(4, 4))


def test_set_equal_dims_mismatch():
    # same count, other local dimensions
    with pytest.raises(DimensionMismatch):
        basis_set_equal_up_to_phase(cartesian_basis(2, 2), cartesian_basis(1, 4))


def test_gram_bound_and_eigvalsh_fallback_decide_alike(monkeypatch):
    # G = I + eps M.  With M = ones - eye the Gershgorin bound 1 + 2 eps is
    # lambda_max; with the signed M below lambda_max is 1 + eps, half the
    # bound's excess.  Each limit lies on one side of each threshold.
    eps = 1e-8
    signed = np.array([[0, 1, 1], [1, 0, -1], [1, -1, 0]], dtype=complex)
    solves = []
    solve = np.linalg.eigvalsh

    def counted(g):
        solves.append(g.shape)
        return solve(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for m in (np.ones((3, 3)) - np.eye(3), signed):
        g = np.eye(3) + eps * m
        top = solve(g)[-1]
        bound = np.max(np.sum(np.abs(g), axis=1))
        for excess in (0.5, 0.9, 1.1, 1.9, 2.1, 3.0):
            limit = 1.0 + excess * eps
            solves.clear()
            assert (verify._top_gram_eigenvalue(g, limit) <= limit) == (top <= limit)
            assert solves == ([] if bound <= limit else [(3, 3)])
