"""The batched see-saw engine against a one-restart-at-a-time reference loop."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodbasis import verify
from prodbasis.config import TOLERANCES
from prodbasis.errors import NonMonotoneSeesaw
from prodbasis.families import gen_tiles1, gen_tiles2
from prodbasis.linalg import top_eigenvector
from prodbasis.sampling import haar_unitary, random_unit_vector, stream
from prodbasis.verify import complement_projector, seesaw_max_product_overlap

TIE_TOL = 1e-12
ROOT = Path(__file__).resolve().parents[1]


def reference_seesaw(q, d_a, d_b, restarts, seed, stop_tol=1e-12, max_iterations=10_000):
    """Per-restart see-saw over the dense operator.

    Each restart runs alone, with an ``einsum`` contraction of the full
    D x D operator and one eigensolver call per half step.  Restarts are
    merged by the lowest index whose value is within ``TIE_TOL`` of the
    best.  Returns ``(value, a, b, iterations_total, gap)``, where ``gap``
    is the smallest top-eigenvalue gap met on the chosen restart's path:
    below about 1e-9, rounding noise may pick a different top eigenvector.
    """
    q4 = np.asarray(q, dtype=complex).reshape(d_a, d_b, d_a, d_b)

    def step(m):
        w = np.linalg.eigvalsh(m)
        return (*top_eigenvector(m), w[-1] - w[-2] if w.size > 1 else np.inf)

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
            if improvement < stop_tol:
                break
        finals.append((value, a, b, gap))
    best = max(f[0] for f in finals)
    value, a, b, gap = next(f for f in finals if f[0] >= best - TIE_TOL)
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


@pytest.mark.parametrize("make", [lambda: gen_tiles1(4), lambda: gen_tiles2(3, 4)])
def test_engine_matches_reference_loop_on_tiles(make):
    basis = make()
    q = complement_projector(basis)
    value, a, b, iterations, _ = reference_seesaw(q, basis.d_a, basis.d_b, restarts=30, seed=5)
    res = seesaw_max_product_overlap(q, basis.d_a, basis.d_b, restarts=30, seed=5)
    assert abs(res.value - value) <= 1e-12
    assert abs(np.vdot(a, res.witness.a) * np.vdot(b, res.witness.b)) ** 2 >= 1.0 - 1e-9
    assert abs(res.iterations_total - iterations) <= 1


def test_capped_restarts_counts_restarts_stopped_by_the_cap(monkeypatch):
    q = complement_projector(gen_tiles1(6))
    res = seesaw_max_product_overlap(q, 6, 6, restarts=20, seed=0)
    assert res.capped_restarts == 0
    monkeypatch.setattr(verify, "_SEESAW_MAX_ITERATIONS", 1)
    capped = seesaw_max_product_overlap(q, 6, 6, restarts=20, seed=0)
    assert capped.iterations_total == 20
    assert 0 < capped.capped_restarts <= 20


def _degenerate_stack(dim):
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


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_stacked_top_eigenvector_matches_each_slice(dim):
    stack = _degenerate_stack(dim)
    values, vectors = top_eigenvector(stack)
    assert values.shape == (4,) and vectors.shape == (4, dim)
    for i, m in enumerate(stack):
        value, vector = top_eigenvector(m)
        assert isinstance(value, float)
        assert value == values[i]
        assert np.array_equal(vector, vectors[i])


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
    f_x = rng.standard_normal((d_x, d_out * k)) + 1j * rng.standard_normal((d_x, d_out * k))
    s = rng.uniform(0.1, 1.0, k)
    x = rng.standard_normal((40, d_x)) + 1j * rng.standard_normal((40, d_x))
    batch = verify._half_step_operators(x, f_x, s, d_out)
    for i in range(len(x)):
        assert np.array_equal(verify._half_step_operators(x[i:i + 1], f_x, s, d_out)[0], batch[i])


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


def test_decrease_raises(monkeypatch):
    # lower the A half steps by 1e-6: once the see-saw settles, each of them
    # reports less than the B half step before it
    calls = itertools.count()

    def lowered(m):
        values, vectors = top_eigenvector(m)
        return (values - 1e-6 if next(calls) % 2 == 0 else values), vectors

    monkeypatch.setattr(verify, "top_eigenvector", lowered)
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
    assert "1 passed" in proc.stdout
