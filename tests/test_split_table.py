"""The split table against the validate-and-dedup split enumeration it replaced."""

import numpy as np
import pytest

from prodbasis.config import TOLERANCES
from prodbasis.families import cartesian_basis
from prodbasis.linalg import dagger
from prodbasis.sampling import haar_unitary, stream
from prodbasis.winding import (
    SplitClass,
    SubspacePair,
    WindingMove,
    _component_subspaces,
    _components,
    _rays,
    _side_candidates,
    _side_measures,
    _split_table,
    apply_winding_move,
    enumerate_splits,
    random_wound_basis,
    unwind,
    validate_split,
)

# Wound bases whose union pairs are not all valid (basis dims, wind seed, moves
# applied): component rays are orthogonal only to within the ray-grouping
# tolerance, and the outside test rejects their leakage.
REJECTING = (((2, 3), 1, 2), ((3, 3), 6, 1))


def reference_validate(basis, split, tol):
    """Per-state classification loop: True iff every state is inside or outside."""
    p_a = split.a_projector()
    p_b = split.b_projector()
    for st in basis:
        res_a = float(np.linalg.norm(st.a - p_a @ st.a))
        res_b = float(np.linalg.norm(st.b - p_b @ st.b))
        if res_a <= tol.split_inside_residual and res_b <= tol.split_inside_residual:
            continue
        w_a = float(np.real(np.vdot(st.a, p_a @ st.a)))
        w_b = float(np.real(np.vdot(st.b, p_b @ st.b)))
        if w_a * w_b > tol.split_outside_overlap:
            return False
    return True


def union_candidates(components):
    c = len(components)
    out = []
    for mask in range(1, 2**c - 1):
        cols = [components[i] for i in range(c) if mask >> i & 1]
        out.append(np.column_stack(cols) if len(cols) > 1 else cols[0])
    return out


def reference_splits(basis):
    """Every union pair built, validated state by state and deduplicated by projector."""
    _, a_reps, a_adjacent = _rays([st.a for st in basis])
    _, b_reps, b_adjacent = _rays([st.b for st in basis])
    a_cands = union_candidates(_component_subspaces(a_reps, _components(a_adjacent)))
    b_cands = union_candidates(_component_subspaces(b_reps, _components(b_adjacent)))
    full_a = np.eye(basis.d_a, dtype=complex)
    full_b = np.eye(basis.d_b, dtype=complex)
    pairs = [(a, full_b) for a in a_cands]
    pairs += [(full_a, b) for b in b_cands]
    pairs += [(a, b) for a in a_cands for b in b_cands]

    splits, kept_a, kept_b = [], [], []
    for a_cols, b_cols in pairs:
        split = SubspacePair(a_cols, b_cols)
        if not split.is_proper_for(basis.d_a, basis.d_b) or not reference_validate(basis, split, TOLERANCES):
            continue
        p_a, p_b = split.a_projector(), split.b_projector()
        # duplicate: some kept split has both projectors within 1e-10
        if kept_a and np.any((np.abs(np.array(kept_a) - p_a).max(axis=(1, 2)) <= 1e-10)
                             & (np.abs(np.array(kept_b) - p_b).max(axis=(1, 2)) <= 1e-10)):
            continue
        splits.append(split)
        kept_a.append(p_a)
        kept_b.append(p_b)
    return splits, len(pairs)


def assert_same_splits(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.a_basis.shape == y.a_basis.shape and x.b_basis.shape == y.b_basis.shape
        assert x.a_basis.tobytes() == y.a_basis.tobytes()
        assert x.b_basis.tobytes() == y.b_basis.tobytes()


def same_states(x, y):
    return all(np.array_equal(s.a, t.a) and np.array_equal(s.b, t.b) for s, t in zip(x, y))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_splits_match_reference_along_wind_paths(dims):
    # the wind seeds of the winding round-trip acceptance criterion; every
    # path starts from the same Cartesian basis, whose reference is kept
    start = cartesian_basis(*dims)
    start_splits, _ = reference_splits(start)
    for seed in range(100):
        k = seed % 4
        basis = start
        for m in range(k + 1):
            splits = enumerate_splits(basis)
            want = start_splits if m == 0 else reference_splits(basis)[0]
            assert_same_splits(splits, want)
            if m == k:
                break
            rng = stream(seed, m)
            split = want[int(rng.integers(len(want)))]
            ka, kb = split.dims
            basis = apply_winding_move(basis, WindingMove(split, haar_unitary(rng, ka), haar_unitary(rng, kb)))
        wound, _ = random_wound_basis(*dims, k, seed)
        assert same_states(wound, basis), (dims, seed)


def test_splits_match_reference_on_cartesian_4x4():
    basis = cartesian_basis(4, 4)
    want, n_pairs = reference_splits(basis)
    assert len(want) == n_pairs == 224
    assert_same_splits(enumerate_splits(basis), want)


@pytest.mark.parametrize("dims,seed,moves", REJECTING)
def test_numerically_rejected_union_pairs(dims, seed, moves):
    basis, _ = random_wound_basis(*dims, moves, seed)
    want, n_pairs = reference_splits(basis)
    splits = enumerate_splits(basis)
    assert len(splits) < n_pairs
    assert_same_splits(splits, want)
    # the rejected pairs leak no more than the component rays' own orthogonality allows
    vectors = [st.b for st in basis]
    cands = _side_candidates(vectors, basis.d_b)
    res, w = _side_measures(cands, vectors)
    leaks = w[res > TOLERANCES.split_inside_residual]
    assert TOLERANCES.split_outside_overlap < leaks.max() <= TOLERANCES.ray_grouping**2


def test_no_two_splits_share_projectors():
    bases = [cartesian_basis(3, 4)]
    bases += [random_wound_basis(*dims, moves, seed)[0] for dims, seed, moves in REJECTING]
    bases += [random_wound_basis(3, 3, 2, seed)[0] for seed in range(5)]
    for basis in bases:
        projectors = [(s.a_projector(), s.b_projector()) for s in enumerate_splits(basis)]
        for i, (pa, pb) in enumerate(projectors):
            for qa, qb in projectors[:i]:
                # distinct unions of orthogonal components differ by an entry near 1/d or more
                assert max(np.max(np.abs(pa - qa)), np.max(np.abs(pb - qb))) >= 0.5 / max(basis.d_a, basis.d_b)


def reference_side_measures(cands, vectors):
    """The per-(candidate, vector) loop the stacked measures replaced."""
    res = np.empty((len(cands), len(vectors)))
    w = np.empty_like(res)
    for c, cols in enumerate(cands):
        p = cols @ dagger(cols)
        for n, v in enumerate(vectors):
            pv = p @ v
            res[c, n] = np.linalg.norm(v - pv)
            w[c, n] = np.real(np.vdot(v, pv))
    return res, w


# (dims, moves) of the wound fixtures that the wind_unwind benchmark unwinds
UNWIND_FIXTURES = (((2, 3), 1), ((2, 4), 1), ((3, 3), 1), ((3, 3), 2), ((3, 4), 2))

MEASURE_BASES = {
    "unwind_fixtures": lambda: [random_wound_basis(*dims, moves, seed)[0]
                                for dims, moves in UNWIND_FIXTURES for seed in range(8)],
    "rejecting": lambda: [random_wound_basis(*dims, moves, seed)[0] for dims, seed, moves in REJECTING],
    "cartesian": lambda: [cartesian_basis(d_a, d_b) for d_a in range(2, 7) for d_b in range(2, 7)],
}


def assert_same_measures(got, want):
    for x, y in zip(got, want, strict=True):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("group", MEASURE_BASES)
def test_side_measures_match_per_pair_loop_bitwise(group):
    for basis in MEASURE_BASES[group]():
        for vectors, dim in ((basis.a_matrix().T, basis.d_a), (basis.b_matrix().T, basis.d_b)):
            cands = _side_candidates(vectors, dim)
            assert_same_measures(_side_measures(cands, vectors), reference_side_measures(cands, vectors))
            # validate_split measures a single candidate
            assert_same_measures(_side_measures(cands[-1:], vectors), reference_side_measures(cands[-1:], vectors))


def test_side_measures_accept_lists():
    basis, _ = random_wound_basis(3, 3, 2, 1)
    vectors = [st.b for st in basis]
    cands = _side_candidates(vectors, basis.d_b)
    assert_same_measures(_side_measures(cands, vectors), reference_side_measures(cands, vectors))


def test_split_table_and_unwinder_make_no_per_vector_norm_or_vdot_calls(monkeypatch):
    cart = cartesian_basis(4, 4)
    wound, _ = random_wound_basis(3, 4, 2, 0)
    norm_kwargs, vdot_calls = [], []
    norm, vdot = np.linalg.norm, np.vdot

    def counting_norm(*args, **kwargs):
        norm_kwargs.append(kwargs)
        return norm(*args, **kwargs)

    def counting_vdot(*args):
        vdot_calls.append(1)
        return vdot(*args)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    monkeypatch.setattr(np, "vdot", counting_vdot)
    _split_table(cart)  # a per-pair loop makes 480 of each here
    assert norm_kwargs == [] and vdot_calls == []
    unwind(wound, 2)
    assert vdot_calls == []
    # the only norms left are the column checks of each built basis
    assert all("axis" in kwargs for kwargs in norm_kwargs)


@pytest.mark.parametrize("dims,moves", [((2, 3), 1), ((3, 3), 2), ((3, 4), 2)])
def test_validate_split_is_one_row_of_the_table(dims, moves):
    for seed in range(8):
        basis, _ = random_wound_basis(*dims, moves, seed)
        table = _split_table(basis)
        assert len(table)
        for s in range(len(table)):
            ok, classes = validate_split(basis, table.split(s))
            assert ok
            assert np.array_equal([cls is SplitClass.INSIDE for cls in classes], table.inside[s])
