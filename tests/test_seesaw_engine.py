"""The batched power-step see-saw engine against reference loops.

Two references: a one-restart-at-a-time loop over the dense operator that
solves each half step with ``reference_top_eigenvector``, which pins
values and witnesses up to rounding, and a one-restart-at-a-time
power-step loop on the factor of the operator, which pins the batched
engine bit for bit.
"""

import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodbasis import cli, verify
from prodbasis.basis import ProductState
from prodbasis.boundent import range_criterion_report, upb_density_state
from prodbasis.config import TOLERANCES
from prodbasis.errors import DimensionMismatch, NonMonotoneSeesaw
from prodbasis.families import gen_tiles1, gen_tiles2
from prodbasis.io import save_basis
from prodbasis.linalg import dagger, hermitian_part, top_eigenvector
from prodbasis.sampling import haar_unitary, random_unit_vector, stream
from prodbasis.verify import (
    SeesawResult,
    complement_projector,
    grid_oracle_max_product_overlap,
    seesaw_max_product_overlap,
)

TIE_TOL = 1e-12
ROOT = Path(__file__).resolve().parents[1]


def reference_seesaw(q, d_a, d_b, restarts, seed, stop_tol=1e-15, max_iterations=10_000):
    """Per-restart see-saw over the dense operator.

    Each restart runs alone, with an ``einsum`` contraction of the full
    D x D operator and one eigensolver call per half step.  A restart stops
    once an iteration improves it by less than ``stop_tol`` lambda_max(Q),
    and restarts are merged by the lowest index whose value is within
    ``TIE_TOL`` lambda_max(Q) of the best, as the engine does (both
    absolute for a Q with no positive eigenvalue).  The default stop is
    1000 times tighter than the engine's 1e-12 gain rule, which stops a
    slowly climbing restart short of its local maximum: a reference
    stopped by that rule can end below an engine whose extrapolation step
    got closer.  Returns
    ``(value, a, b, iterations_total, gap)``, where ``gap`` is the smallest
    top-eigenvalue gap met on the chosen restart's path: below about 1e-9,
    rounding noise may pick a different top eigenvector.
    """
    q4 = np.asarray(q, dtype=complex).reshape(d_a, d_b, d_a, d_b)
    top = np.linalg.eigvalsh(hermitian_part(np.asarray(q, dtype=complex)))[-1]
    scale = top if top > 0 else 1.0

    def step(m):
        w = np.linalg.eigvalsh(m)
        return (*reference_top_eigenvector(m), w[-1] - w[-2] if w.size > 1 else np.inf)

    finals = []
    iterations_total = 0
    for r in range(restarts):
        rng = stream(seed, r)
        a = random_unit_vector(rng, d_a)
        b = random_unit_vector(rng, d_b)
        value = float(np.real(np.vdot(b, np.einsum("ijkl,i,k->jl", q4, a.conj(), a) @ b)))
        gap = np.inf
        for _ in range(max_iterations):
            half, a, gap_a = step(np.einsum("ijkl,j,l->ik", q4, b.conj(), b))
            assert half >= value - 1e-12
            new_value, b, gap_b = step(np.einsum("ijkl,i,k->jl", q4, a.conj(), a))
            assert new_value >= half - 1e-12
            gap = min(gap, gap_a, gap_b)
            iterations_total += 1
            improvement = new_value - value
            value = new_value
            if improvement < stop_tol * scale:
                break
        finals.append((value, a, b, gap))
    best = max(f[0] for f in finals)
    value, a, b, gap = next(f for f in finals if f[0] >= best - TIE_TOL * scale)
    return value, a, b, iterations_total, gap


def objective(q, a, b):
    v = np.kron(a, b)
    return float(np.real(np.vdot(v, q @ v)))


def verdict(value):
    if value >= 1.0 - TOLERANCES.extendible_margin:
        return "extendible"
    if value < 1.0 - TOLERANCES.upb_margin:
        return "unextendible"
    return "inconclusive"


def random_operator(seed, dim, rank, projector):
    """An operator in [0, I] of the given rank: a projector, or a spectrum in (0, 1)."""
    rng = stream(seed, 1)
    u = haar_unitary(rng, dim)[:, :rank]
    spectrum = np.ones(rank) if projector else rng.uniform(0.05, 0.95, rank)
    return (u * spectrum) @ u.conj().T


@st.composite
def seesaw_cases(draw):
    d_a = draw(st.integers(1, 4))
    d_b = draw(st.integers(1, 4))
    rank = draw(st.integers(1, d_a * d_b))
    projector = draw(st.booleans())
    q = random_operator(draw(st.integers(0, 2**31 - 1)), d_a * d_b, rank, projector)
    return q, d_a, d_b, draw(st.integers(0, 2**31 - 1))


# derandomized: every run draws the same examples, so tier-1 stays reproducible
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seesaw_cases())
def test_engine_matches_reference_loop(case):
    q, d_a, d_b, seed = case
    value, a, b, _, gap = reference_seesaw(q, d_a, d_b, restarts=12, seed=seed)
    res = seesaw_max_product_overlap(q, d_a, d_b, restarts=12, seed=seed)
    assert abs(res.value - value) <= 1e-12
    assert verdict(res.value) == verdict(value)
    assert abs(objective(q, res.witness.a, res.witness.b) - value) <= 1e-12
    if gap > 1e-9:
        # no near-tie on the path, so the witness is fixed up to rounding
        overlap = abs(np.vdot(a, res.witness.a) * np.vdot(b, res.witness.b)) ** 2
        assert overlap >= 1.0 - 1e-9


def test_near_tie_stops_within_relative_1e_11_of_the_maximum():
    # On 1 x 4 every vector is a product, so the maximum is lambda_max(Q).  The
    # contraction's top two eigenvalues, 0.8410 and 0.8260, nearly tie, so each
    # power step gains little and the 1e-12 gain rule stops about 2.2e-12 short.
    q = random_operator(5721, 4, 2, False)
    top = np.linalg.eigvalsh(hermitian_part(q))[-1]
    res = seesaw_max_product_overlap(q, 1, 4, restarts=12, seed=0)
    assert 0.0 <= top - res.value <= 1e-11 * top


@pytest.mark.parametrize("make", [lambda: gen_tiles1(4), lambda: gen_tiles2(3, 4)])
def test_engine_matches_reference_loop_on_tiles(make):
    basis = make()
    q = complement_projector(basis)
    value, a, b, _, _ = reference_seesaw(q, basis.d_a, basis.d_b, restarts=30, seed=5)
    res = seesaw_max_product_overlap(q, basis.d_a, basis.d_b, restarts=30, seed=5)
    assert abs(res.value - value) <= 1e-12
    assert abs(np.vdot(a, res.witness.a) * np.vdot(b, res.witness.b)) ** 2 >= 1.0 - 1e-9
    want = reference_verify_seesaw(q, basis.d_a, basis.d_b, 30, 5)
    assert res.iterations_total == want.iterations_total


def test_capped_restarts_counts_restarts_stopped_by_the_cap(monkeypatch):
    q = complement_projector(gen_tiles1(6))
    res = seesaw_max_product_overlap(q, 6, 6, restarts=20, seed=0)
    assert res.capped_restarts == 0
    monkeypatch.setattr(verify, "_SEESAW_MAX_ITERATIONS", 1)
    capped = seesaw_max_product_overlap(q, 6, 6, restarts=20, seed=0)
    assert capped.iterations_total == 20
    assert 0 < capped.capped_restarts <= 20


def _degenerate_operators(dim):
    rng = stream(17, dim)
    u = haar_unitary(rng, dim)
    tie = np.linspace(0.1, 0.9, dim)
    tie[-2:] = [1.0 - 1e-13, 1.0]
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.stack([
        np.zeros((dim, dim), dtype=complex),
        np.eye(dim, dtype=complex),
        (u * tie) @ u.conj().T,
        m + m.conj().T,
    ])


@pytest.mark.parametrize("dim", [2, 3, 4, 6, 10, 12])
def test_stacked_top_eigenvector_matches_each_slice(dim):
    # a stack is refused as a whole; each slice on its own gives its top eigenpair
    stack = _degenerate_operators(dim)
    with pytest.raises(DimensionMismatch):
        top_eigenvector(stack)
    for m in stack:
        value, vector = top_eigenvector(m)
        assert isinstance(value, float)
        assert value == np.linalg.eigh(hermitian_part(m))[0][-1]
        assert vector.shape == (dim,)
        assert np.isclose(np.linalg.norm(vector), 1.0, atol=1e-12)
        assert np.allclose(hermitian_part(m) @ vector, value * vector, atol=1e-9)


def test_stacked_top_eigenvector_tie_break():
    # identity: every basis vector ties; the lexicographically largest is e_0
    value, vector = top_eigenvector(np.eye(3, dtype=complex))
    assert value == 1.0
    assert np.array_equal(vector, np.array([1, 0, 0], dtype=complex))
    # zero operator: same rule, no division by a negligible entry
    _, vector = top_eigenvector(np.zeros((2, 2), dtype=complex))
    assert np.array_equal(vector, np.array([1, 0], dtype=complex))


@pytest.mark.parametrize("d_x,d_out,k", [(2, 3, 3), (3, 4, 5), (12, 12, 23)])
def test_half_step_operators_are_row_independent(d_x, d_out, k):
    # a lone row (the last active restart) must get the bits it gets in a batch
    rng = stream(23, d_x)
    g_x = rng.standard_normal((d_x, d_out * k)) + 1j * rng.standard_normal((d_x, d_out * k))
    x = rng.standard_normal((40, d_x)) + 1j * rng.standard_normal((40, d_x))
    batch = verify._half_step_operators(x, g_x, d_out)
    v = rng.standard_normal((40, d_out)) + 1j * rng.standard_normal((40, d_out))
    v /= np.linalg.norm(v, axis=1)[:, None]
    values, vectors = verify._power_steps(batch, v)
    for i in range(len(x)):
        assert np.array_equal(verify._half_step_operators(x[i:i + 1], g_x, d_out)[0], batch[i])
        value, vector = verify._power_steps(batch[i:i + 1], v[i:i + 1])
        want_value, want_vector = reference_power_steps(batch[i], v[i])
        assert value[0] == values[i] == want_value
        assert vector[0].tobytes() == vectors[i].tobytes() == want_vector.tobytes()


@pytest.mark.parametrize("make,dims,seed", [
    (lambda: complement_projector(gen_tiles1(4)), (4, 4), 0),
    (lambda: complement_projector(gen_tiles2(3, 4)), (3, 4), 2),
    (lambda: random_operator(3, 6, 3, projector=False), (2, 3), 4),
    (lambda: random_operator(8, 9, 4, projector=True), (3, 3), 1),
])
def test_witness_prefix_consistency(make, dims, seed):
    # restart i supplies the witness of the first prefix whose witness is the
    # full run's; every longer prefix must then return it bit for bit
    q = make()
    runs = [seesaw_max_product_overlap(q, *dims, restarts=k, seed=seed) for k in range(1, 31)]
    full = runs[-1]
    picked = next(i for i, res in enumerate(runs) if np.array_equal(res.witness.a, full.witness.a))
    for res in runs[picked:]:
        assert res.value == full.value
        assert np.array_equal(res.witness.a, full.witness.a)
        assert np.array_equal(res.witness.b, full.witness.b)


# --- the power-step see-saw, one restart at a time, as the bit-for-bit reference

_PHASE_TOL = 1e-12
_SEESAW_SLACK = 1e-12
_SEESAW_STOP = 1e-12
_POWER_STEPS = 4                  # on d x d operators with d <= 3
_LONG_POWER_STEPS = 8             # with d >= 4
_IMAGE_FLOOR = 2.0 ** -511        # sqrt of the smallest normal float, 2^-1022
_EXTRAPOLATE_FROM = 40            # first pass index that tries an extrapolation step


def reference_canonical_phase(v):
    rows = v.reshape(-1, v.shape[-1])
    mag = np.abs(rows)
    lead = np.arange(len(rows)), np.argmax(mag > _PHASE_TOL, axis=-1)
    lead_mag = mag[lead]
    found = lead_mag > _PHASE_TOL
    if found.all():
        return (rows * (lead_mag / rows[lead])[:, None]).reshape(v.shape)
    out = rows.copy()
    out[found] = rows[found] * (lead_mag[found] / rows[lead][found])[:, None]
    return out.reshape(v.shape)


def reference_top_eigenvector(m):
    """Top eigenpair of one operator; only a top eigenvalue tied within TIE_TOL runs the candidate rule."""
    w, v = np.linalg.eigh(hermitian_part(np.asarray(m, dtype=complex)))
    vec = reference_canonical_phase(v[:, -1])
    if w.size > 1 and w[-2] >= w[-1] - TIE_TOL:
        candidates = reference_canonical_phase(v[:, w >= w[-1] - TIE_TOL].T)
        keys = [tuple(np.round(c.real, 12)) for c in candidates]
        vec = candidates[max(range(len(keys)), key=keys.__getitem__)]
    return float(w[-1]), vec


def reference_power_steps(m, x):
    """x <- M^s x/|M^s x| on one 2-D operator, then <x|M|x>; x stays where |M^s x| < _IMAGE_FLOOR.

    s is 4 for a d x d operator with d <= 3 and 8 for d >= 4.
    """
    y = x
    for _ in range(_POWER_STEPS if len(m) <= 3 else _LONG_POWER_STEPS):
        y = m @ y
    norm = np.linalg.norm(y)
    if norm >= _IMAGE_FLOOR:
        x = y / norm
    return np.vdot(x, m @ x).real, x


def reference_extrapolated(x0, x1, beta):
    """(x1 + beta (x1 - x0)) / ||.|| for one pair of unit vectors."""
    x = x1 + beta * (x1 - x0)
    return x / np.linalg.norm(x)


def reference_factor_operators(g, d_a, d_b):
    """Per-restart half-step operators and value of Q = G G^dag, with 2-D operators and vectors."""
    k = g.shape[1]
    g = g.reshape(d_a, d_b, k)
    g_a = g.reshape(d_a, d_b * k)
    g_b = g.transpose(1, 0, 2).reshape(d_b, d_a * k)

    def operator(x, g_x, d_out):
        y = (x.conj() @ g_x).reshape(d_out, k)
        return y @ y.conj().T

    def value(a, b):
        z = b.conj() @ (a.conj() @ g_a).reshape(d_b, k)
        return np.sum(z.real ** 2 + z.imag ** 2)

    return (lambda b: operator(b, g_b, d_a)), (lambda a: operator(a, g_a, d_b)), value


def reference_tile_operators(basis):
    """Per-restart half-step operators and value of the tile complement of a tile-type basis.

    Q = sum_t u_t u_t^T - s s^T, u_t uniform on tile t (in order of first
    appearance among the states that are not the whole-grid stopper) and s
    uniform on the grid.  One restart at a time: the weights |<beta_t|b>|^2
    from the (d, 2) real view of b, then M_a(b) = sum of the weights times
    the outer products alpha_t alpha_t^T, the stopper's subtracted.
    """
    d_a, d_b = basis.d_a, basis.d_b
    whole = d_a * d_b
    tiles = list(dict.fromkeys(c for c in basis.tile_cells if len(c) != whole))
    alpha = np.zeros((len(tiles) + 1, d_a))
    beta = np.zeros((len(tiles) + 1, d_b))
    for t, cells in enumerate(tiles):
        cols = sorted({c for c, _ in cells})
        rows = sorted({r for _, r in cells})
        alpha[t, cols] = 1.0 / np.sqrt(len(cols))
        beta[t, rows] = 1.0 / np.sqrt(len(rows))
    alpha[-1] = 1.0 / np.sqrt(d_a)
    beta[-1] = 1.0 / np.sqrt(d_b)
    sign = np.array([1.0] * len(tiles) + [-1.0])

    def weights(x, vectors):
        y = vectors @ x.view(float).reshape(-1, 2)
        return y[:, 0] ** 2 + y[:, 1] ** 2

    def operator(x, vectors_x, vectors_out):
        outer = np.array([s * np.outer(v, v).ravel() for s, v in zip(sign, vectors_out)])
        d = vectors_out.shape[1]
        return (weights(x, vectors_x) @ outer).reshape(d, d).astype(complex)

    def value(a, b):
        return np.sum(weights(a, alpha) * weights(b, beta) * sign)

    return (lambda b: operator(b, beta, alpha)), (lambda a: operator(a, alpha, beta)), value


def reference_power_seesaw(g, d_a, d_b, restarts, seed, max_iterations=10_000, scale=1.0, operators=None):
    """``verify._seesaw`` run one restart at a time, with 2-D operators and vectors.

    The value found on Q = G G^dag is multiplied by ``scale``, as
    ``seesaw_max_product_overlap`` multiplies it by lambda_max(Q) after
    running on Q scaled to unit top eigenvalue.  ``operators``, when given,
    replaces the factor's ``(a_side, b_side, value)`` triple, as
    :func:`reference_tile_operators` does.  From pass index
    ``_EXTRAPOLATE_FROM`` on, a pass from (a0, b0) to (a1, b1) also tries
    the pair x1 + beta (x1 - x0), normalised on each side, and keeps it
    when its value is strictly above the pass's; beta starts at 1, is
    multiplied by 1.5 (at most 50) on a kept pair and halved (at least 0.5)
    on a rejected one.
    """
    a_side, b_side, objective_of = operators or reference_factor_operators(g, d_a, d_b)
    finals = []
    iterations_total = capped = 0
    for r in range(restarts):
        rng = stream(seed, r)
        a = random_unit_vector(rng, d_a)
        b = random_unit_vector(rng, d_b)
        value = objective_of(a, b)
        beta = 1.0
        for index in range(max_iterations):
            a_0, b_0 = a, b
            half, a = reference_power_steps(a_side(b), a)
            new_value, b = reference_power_steps(b_side(a), b)
            if max(value - half, half - new_value) > _SEESAW_SLACK:
                raise NonMonotoneSeesaw("reference see-saw objective decreased")
            if index >= _EXTRAPOLATE_FROM:
                a_e, b_e = reference_extrapolated(a_0, a, beta), reference_extrapolated(b_0, b, beta)
                value_e = objective_of(a_e, b_e)
                if value_e > new_value:
                    a, b, new_value, beta = a_e, b_e, value_e, min(beta * 1.5, 50.0)
                else:
                    beta = max(beta * 0.5, 0.5)
            iterations_total += 1
            improvement = new_value - value
            value = new_value
            if improvement < _SEESAW_STOP:
                break
        else:
            capped += 1
        finals.append((value, a, b))
    best = max(run[0] for run in finals)
    value, a, b = next(run for run in finals if run[0] >= best - _SEESAW_SLACK)
    return SeesawResult(
        value=float(value) * scale,
        witness=ProductState(reference_canonical_phase(a), reference_canonical_phase(b), label="witness"),
        restarts_used=restarts,
        iterations_total=iterations_total,
        capped_restarts=capped,
    )


def verify_factor(q, d_a, d_b):
    """The factor ``seesaw_max_product_overlap`` passes to the engine, and the scale of its value.

    G = V+ sqrt(w+ / w_max) and w_max, for w_max the top eigenvalue; an
    empty G and 1 when no eigenpair is kept.
    """
    _, w, v = verify._check_operator_interval(q, d_a, d_b)
    keep = w > w.size * np.finfo(float).eps * np.max(np.abs(w))
    w_max = float(w[-1]) if keep.any() else 1.0
    return v[:, keep] * np.sqrt(w[keep] / w_max), w_max


def reference_verify_seesaw(q, d_a, d_b, restarts, seed, max_iterations=10_000):
    """``seesaw_max_product_overlap`` one restart at a time: the power-step see-saw on the scaled factor."""
    g, scale = verify_factor(q, d_a, d_b)
    return reference_power_seesaw(g, d_a, d_b, restarts, seed, max_iterations, scale)


def assert_same_run(got, want):
    assert got.value == want.value
    assert got.witness.a.tobytes() == want.witness.a.tobytes()
    assert got.witness.b.tobytes() == want.witness.b.tobytes()
    assert got.iterations_total == want.iterations_total
    assert got.capped_restarts == want.capped_restarts


def random_projector(d_a, d_b, index):
    """Random rank 1-3 projector on d_a x d_b, from its own seeded stream."""
    rng = stream(4040 + 10 * d_a + d_b, index)
    dim = d_a * d_b
    rank = int(rng.integers(1, 4))
    cols = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))[0]
    return cols @ cols.conj().T


@pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
def test_engine_is_bit_identical_on_random_projectors(dims):
    for index in range(8):
        q = random_projector(*dims, index)
        for seed in (0, 1):
            got = seesaw_max_product_overlap(q, *dims, restarts=60, seed=seed)
            assert_same_run(got, reference_verify_seesaw(q, *dims, 60, seed))


@pytest.mark.parametrize("seed", range(4))
def test_engine_is_bit_identical_across_the_extrapolation_switch(monkeypatch, seed):
    # projector #11 of the 2 x 3 stream keeps restarts climbing for hundreds
    # of passes, so most of its passes take the extrapolation step
    assert verify._EXTRAPOLATE_FROM == _EXTRAPOLATE_FROM
    calls = []
    extrapolate = verify._extrapolate
    monkeypatch.setattr(verify, "_extrapolate", lambda *args: calls.append(1) or extrapolate(*args))
    q = random_projector(2, 3, 11)
    got = seesaw_max_product_overlap(q, 2, 3, restarts=60, seed=seed)
    assert calls
    assert_same_run(got, reference_verify_seesaw(q, 2, 3, 60, seed))


@pytest.mark.parametrize("seed", range(4))
def test_extrapolation_cuts_the_slow_tail_of_projector_11(seed):
    # without the step these runs took 10,044-11,631 iterations
    q = random_projector(2, 3, 11)
    res = seesaw_max_product_overlap(q, 2, 3, restarts=60, seed=seed)
    assert res.iterations_total <= 4_000
    assert res.capped_restarts == 0
    assert res.value >= grid_oracle_max_product_overlap(q, 2, 3).value - 1e-6


def test_restarts_are_row_independent_across_the_extrapolation_switch(monkeypatch):
    # each restart of projector #11 run alone, from its own starting pair,
    # gives the bits it has in the batch of 60
    q = random_projector(2, 3, 11)
    batch = seesaw_max_product_overlap(q, 2, 3, restarts=60, seed=1)
    a, b = verify.starting_pairs(1, 60, 2, 3)
    alone = []
    for r in range(60):
        monkeypatch.setattr(verify, "starting_pairs", lambda *args, r=r: (a[r:r + 1].copy(), b[r:r + 1].copy()))
        alone.append(seesaw_max_product_overlap(q, 2, 3, restarts=1, seed=1))
    assert max(res.iterations_total for res in alone) > _EXTRAPOLATE_FROM
    assert batch.iterations_total == sum(res.iterations_total for res in alone)
    assert batch.capped_restarts == sum(res.capped_restarts for res in alone)
    best = max(res.value for res in alone)
    picked = next(res for res in alone if res.value >= best - TIE_TOL)
    assert batch.value == picked.value
    assert batch.witness.a.tobytes() == picked.witness.a.tobytes()
    assert batch.witness.b.tobytes() == picked.witness.b.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seesaw_cases())
def test_extrapolation_from_the_first_pass_never_lowers_the_objective(case):
    # with the switch at pass 0 every pass tries the step: a kept candidate
    # must raise its row's value, rows stay unit vectors, and the plain half
    # steps that follow a kept candidate must pass the ascent check
    q, d_a, d_b, seed = case
    extrapolate = verify._extrapolate

    def checked(q_, a0, b0, a1, b1, value, beta):
        a, b, new_value, new_beta = extrapolate(q_, a0, b0, a1, b1, value, beta)
        assert np.all(new_value >= value)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.allclose(np.linalg.norm(b, axis=1), 1.0, rtol=0, atol=1e-14)
        assert np.all((0.5 <= new_beta) & (new_beta <= 50.0))
        return a, b, new_value, new_beta

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_EXTRAPOLATE_FROM", 0)
        patch.setattr(verify, "_extrapolate", checked)
        res = seesaw_max_product_overlap(q, d_a, d_b, restarts=12, seed=seed)
    top = np.linalg.eigvalsh(hermitian_part(q))[-1]
    assert res.value <= top + 1e-12
    assert abs(objective(q, res.witness.a, res.witness.b) - res.value) <= 1e-12


TILES = {
    "g1_4": lambda: gen_tiles1(4),
    "g1_6": lambda: gen_tiles1(6),
    "g2_3x4": lambda: gen_tiles2(3, 4),
    "g2_4x6": lambda: gen_tiles2(4, 6),
    "g2_6x10": lambda: gen_tiles2(6, 10),   # restarts cross the extrapolation switch
}


@pytest.mark.parametrize("name", TILES)
def test_engine_is_bit_identical_on_tile_factors(name):
    # seesaw_max_product_overlap against the factor loop; the range criterion
    # of a tile-type basis against the tile contraction's loop
    basis = TILES[name]()
    d_a, d_b = basis.d_a, basis.d_b
    q = complement_projector(basis)
    rho = upb_density_state(basis)
    for seed in (0, 3):
        got = seesaw_max_product_overlap(q, d_a, d_b, restarts=30, seed=seed)
        assert_same_run(got, reference_verify_seesaw(q, d_a, d_b, 30, seed))
        report = range_criterion_report(rho, restarts=30, seed=seed)
        want = reference_power_seesaw(None, d_a, d_b, 30, seed, operators=reference_tile_operators(basis))
        assert report.max_product_overlap == want.value
        assert report.witness.a.tobytes() == want.witness.a.tobytes()
        assert report.witness.b.tobytes() == want.witness.b.tobytes()
        assert (report.iterations_total, report.capped_restarts) == (want.iterations_total, want.capped_restarts)


@pytest.mark.parametrize("cap", [1, 3])
def test_engine_is_bit_identical_at_the_iteration_cap(monkeypatch, cap):
    monkeypatch.setattr(verify, "_SEESAW_MAX_ITERATIONS", cap)
    cases = [(complement_projector(gen_tiles1(6)), 6, 6), (complement_projector(gen_tiles2(3, 4)), 3, 4),
             (random_projector(2, 3, 5), 2, 3)]
    for q, d_a, d_b in cases:
        got = seesaw_max_product_overlap(q, d_a, d_b, restarts=20, seed=2)
        assert got.capped_restarts > 0
        assert_same_run(got, reference_verify_seesaw(q, d_a, d_b, 20, 2, cap))


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 6, 10, 12])
def test_top_eigenvector_is_bit_identical(dim):
    rng = stream(29, dim)
    m = rng.standard_normal((50, dim, dim)) + 1j * rng.standard_normal((50, dim, dim))
    operators = [*m] if dim == 1 else [*m, *_degenerate_operators(dim)]
    for op in operators:
        value, vector = top_eigenvector(op)
        want_value, want_vector = reference_top_eigenvector(op)
        assert isinstance(value, float)
        assert value == want_value
        assert vector.tobytes() == want_vector.tobytes()


@pytest.mark.parametrize("name", ["g1_4", "g2_3x4"])
def test_power_step_rows_are_two_per_iteration(monkeypatch, name):
    # no stopped restart is stepped again
    rows = []
    power_steps = verify._power_steps

    def counted(m, x):
        rows.append(len(x))
        return power_steps(m, x)

    monkeypatch.setattr(verify, "_power_steps", counted)
    basis = TILES[name]()
    q = complement_projector(basis)
    res = seesaw_max_product_overlap(q, basis.d_a, basis.d_b, restarts=40, seed=1)
    want = reference_verify_seesaw(q, basis.d_a, basis.d_b, 40, 1)
    assert res.iterations_total == want.iterations_total
    assert sum(rows) == 2 * res.iterations_total
    rows.clear()
    report = range_criterion_report(upb_density_state(basis), restarts=40, seed=1)
    assert sum(rows) == 2 * report.iterations_total
    rows.clear()
    monkeypatch.setattr(verify, "_SEESAW_MAX_ITERATIONS", 2)
    capped = seesaw_max_product_overlap(q, basis.d_a, basis.d_b, restarts=40, seed=1)
    assert capped.capped_restarts > 0
    assert sum(rows) == 2 * capped.iterations_total


def test_power_steps_keep_a_row_whose_image_is_zero():
    # a zero operator, and a start orthogonal to a rank-1 operator's range:
    # Mx = 0 keeps x and gives value 0, with no NaN and no warning
    x = np.array([[0.6, 0.8j], [0.0, 1.0], [1.0, 0.0]], dtype=complex)
    m = np.zeros((3, 2, 2), dtype=complex)
    m[1:, 0, 0] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = verify._power_steps(m, x)
    assert values.tolist() == [0.0, 0.0, 0.5]
    assert np.array_equal(vectors, x)
    # the engine on an empty factor: every restart is such a row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = verify._seesaw(verify._FactorContractions(np.zeros((6, 0), dtype=complex), 2, 3), 4, 0)
    assert res.value == 0.0 and res.iterations_total == 4
    assert np.isfinite(res.witness.a).all() and np.isfinite(res.witness.b).all()


def test_power_steps_keep_a_row_whose_image_underflows():
    # M = 1e-90 I: M^4 x = 1e-360 x is 0 in floating point, and M = 1e-40 I
    # gives an image whose squared norm is subnormal; both rows keep their
    # vector bit for bit, with value <x|M|x>, and M = 1e-30 I still normalises
    assert verify._IMAGE_FLOOR == _IMAGE_FLOOR
    x = np.array([[0.6, 0.8j], [0.8, -0.6j], [0.6j, 0.8]], dtype=complex)
    m = np.eye(2, dtype=complex) * np.array([1e-90, 1e-40, 1e-30])[:, None, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, vectors = verify._power_steps(m, x)
    assert vectors[:2].tobytes() == x[:2].tobytes()
    assert np.allclose(values, [1e-90, 1e-40, 1e-30], rtol=1e-15, atol=0)
    assert abs(np.linalg.norm(vectors[2]) - 1.0) <= 1e-15
    for i in range(3):
        want_value, want_vector = reference_power_steps(m[i], x[i])
        assert values[i] == want_value and vectors[i].tobytes() == want_vector.tobytes()


def test_tiny_operator_gives_a_unit_witness():
    # a valid Q of norm 1e-40: unscaled, every contracted operator would
    # have a subnormal squared image norm after four steps; whatever path a
    # row takes, the witness must be a pair of unit vectors
    q = 1e-40 * random_projector(2, 3, 1)
    res = seesaw_max_product_overlap(q, 2, 3, restarts=10, seed=0)
    assert np.linalg.norm(res.witness.a) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(res.witness.b) == pytest.approx(1.0, abs=1e-14)
    assert 0.0 <= res.value <= 1e-40 * (1 + 1e-12)


def test_seesaw_maximizes_the_positive_part_of_an_indefinite_operator():
    # Q has spectrum (-5e-9, -5e-9, -5e-9, 1e-9, 0, 0), inside the operator
    # interval's slack; a power step on an indefinite contraction can lower
    # the objective, and the see-saw used to raise NonMonotoneSeesaw here.
    # It maximizes over Q+ = 1e-9 |u><u|, whose maximum is 1e-9 times the
    # squared top singular value of u as a 2 x 3 matrix
    u = haar_unitary(stream(1, 0), 6)
    q = (u * np.array([-5e-9, -5e-9, -5e-9, 1e-9, 0.0, 0.0])) @ u.conj().T
    res = seesaw_max_product_overlap(q, 2, 3, restarts=20, seed=0)
    top = 1e-9 * np.linalg.svd(u[:, 3].reshape(2, 3), compute_uv=False)[0] ** 2
    assert abs(res.value - top) <= TOLERANCES.operator_interval
    assert 0.0 < res.value <= top * (1 + 1e-12)
    assert abs(objective(q, res.witness.a, res.witness.b) - res.value) <= TOLERANCES.operator_interval


@pytest.mark.parametrize("frame", range(8))
def test_seesaw_reaches_the_positive_part_maximum_of_a_small_operator(frame):
    # the indefinite operators above, in 8 frames: their maximum is about
    # 1e-9, and an absolute 1e-12 stop rule ended restarts up to 6.9e-4
    # short of it in relative terms; the see-saw runs on Q scaled to unit
    # top eigenvalue, so its stop rule is relative to lambda_max(Q)
    u = haar_unitary(stream(frame, 0), 6)
    q = (u * np.array([-5e-9, -5e-9, -5e-9, 1e-9, 0.0, 0.0])) @ u.conj().T
    res = seesaw_max_product_overlap(q, 2, 3, restarts=20, seed=0)
    top = 1e-9 * np.linalg.svd(u[:, 3].reshape(2, 3), compute_uv=False)[0] ** 2
    assert abs(res.value - top) <= 1e-9 * top


@pytest.mark.parametrize("c", [1e-15, 1e-40, 1e-100])
def test_seesaw_value_scales_with_the_operator(c):
    # c P for a rank-2 projector P on 4 x 4: the see-saw runs on the same
    # unit-scale operator whatever c, so its value is c times the c = 1 value
    cols = haar_unitary(stream(41, 0), 16)[:, :2]
    p = cols @ cols.conj().T
    unit = seesaw_max_product_overlap(p, 4, 4).value
    assert 0.0 < unit <= 1.0
    value = seesaw_max_product_overlap(c * p, 4, 4).value
    assert abs(value - c * unit) <= 1e-12 * c * unit


@pytest.mark.parametrize("dims", [(2, 3), (4, 4)])
def test_zero_operator_stops_every_restart_after_one_iteration(dims):
    # nothing is kept, so the engine runs unscaled on an empty factor: every
    # image is 0, every row keeps its vector, and no restart improves
    dim = dims[0] * dims[1]
    res = seesaw_max_product_overlap(np.zeros((dim, dim), dtype=complex), *dims, restarts=7, seed=0)
    assert res.value == 0.0
    assert res.iterations_total == 7
    assert res.capped_restarts == 0


@pytest.mark.parametrize("dim,steps", [(3, 4), (4, 8)])
def test_power_step_count_follows_the_operator_dimension(dim, steps):
    # a stack of d x d operators in [0, I] takes 4 steps for d <= 3 and 8 for
    # d >= 4, the same for every row; the other count gives other bits
    rng = stream(43, dim)
    m = np.stack([random_operator(int(seed), dim, dim, projector=False)
                  for seed in rng.integers(0, 2**31, 12)])
    x = rng.standard_normal((12, dim)) + 1j * rng.standard_normal((12, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    values, vectors = verify._power_steps(m, x)
    for i in range(len(m)):
        want_value, want_vector = reference_power_steps(m[i], x[i])
        assert values[i] == want_value and vectors[i].tobytes() == want_vector.tobytes()
        y = x[i]
        for _ in range(steps):
            y = m[i] @ y
        assert vectors[i].tobytes() == (y / np.linalg.norm(y)).tobytes()
        other = np.linalg.matrix_power(m[i], 12 - steps) @ x[i]
        assert not np.allclose(vectors[i], other / np.linalg.norm(other), rtol=0, atol=1e-12)


def test_engine_calls_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the see-saw called an eigensolver")

    g, _ = verify_factor(complement_projector(gen_tiles2(3, 4)), 3, 4)
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    want = reference_power_seesaw(g, 3, 4, 20, 0)
    assert_same_run(verify._seesaw(verify._FactorContractions(g, 3, 4), 20, 0), want)


@pytest.mark.parametrize("command", ["verify", "boundent"])
def test_cli_jobs_call_top_eigenvector_zero_times(tmp_path, capsys, monkeypatch, command):
    # every module binding of top_eigenvector, the one in verify too if any
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return top_eigenvector(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("prodbasis") and getattr(module, "top_eigenvector", None) is top_eigenvector:
            monkeypatch.setattr(module, "top_eigenvector", counted)
    # verify imports no binding; one put there must stay uncalled too
    monkeypatch.setattr(verify, "top_eigenvector", counted, raising=False)
    path = tmp_path / "g2.json"
    save_basis(gen_tiles2(3, 4), path)
    assert cli.main([command, str(path), "--restarts", "20", "--seed", "0"]) == 0
    assert capsys.readouterr().out
    assert calls == []


def test_ascent_check_reports_the_largest_drop_of_either_half_step():
    before = np.array([1.0, 1.0, np.nan])
    with pytest.raises(NonMonotoneSeesaw, match="by 5.000e-01"):
        verify._require_ascent(before, np.array([0.5, 1.0, 0.9]), np.array([0.6, 0.9, 0.9]))
    # a NaN drop on one side does not hide the other side's drop
    with pytest.raises(NonMonotoneSeesaw, match="by 3.000e-01"):
        verify._require_ascent(before, np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.7]))
    verify._require_ascent(before, np.array([1.0, 1.0 - 1e-13, np.nan]), np.array([1.0, 1.0, np.nan]))


@pytest.mark.parametrize("side", [0, 1], ids=["A", "B"])
def test_decrease_raises(monkeypatch, side):
    # lower the A (even) or the B (odd) half steps by 1e-6: once the see-saw
    # settles, each lowered step reports less than the half step before it
    calls = itertools.count()
    power_steps = verify._power_steps

    def lowered(m, x):
        values, vectors = power_steps(m, x)
        return (values - 1e-6 if next(calls) % 2 == side else values), vectors

    monkeypatch.setattr(verify, "_power_steps", lowered)
    q = complement_projector(gen_tiles2(3, 4))
    with pytest.raises(NonMonotoneSeesaw):
        seesaw_max_product_overlap(q, 3, 4, restarts=5, seed=0)


def test_decrease_raises_under_optimized_python():
    # python -O strips assert statements; the check must survive it
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_decrease_raises"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 passed" in proc.stdout
