"""Winding moves on complete product bases and a depth-bounded unwinder.

A winding move picks a local subspace pair compatible with the basis (every
state lies inside the product subspace or orthogonal to it) and rotates the
inside block by local unitaries supported on the pair.  Orthogonality and
productness survive every move, so repeated winding manufactures complete
product bases with nontrivial local structure; unwinding searches for a
move sequence that returns a basis to grid (Cartesian) form.

One classifier sorts the states against subspace pairs: the split table
runs it over every candidate pair, and `validate_split` is one row of that
table.  `wind_basis`, `unwind` and `enumerate_splits` check completeness
once at entry (the first two orthonormality too), not in the split table
of every search node.  Both `wind_basis` and the unwinder apply a move to
the inside states that their split table already classified;
`apply_winding_move` validates the split itself.  `wind_basis` builds a subspace pair only for the split it
draws, and the unwinder only for each split that yields a move; its search
nodes carry no provenance, as it returns the move path alone.  The unwinder
searches level by level in path order, so it returns the sequence iterative
deepening would (smallest by depth, split index, move index) while
expanding each basis once and storing one level.
It is best effort with certified output: any returned sequence is
re-applied, every move validated again, and checked, and an exhausted
search is reported as absence, not as a proof that no unwinding exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import Family, ProductBasis
from .config import TOLERANCES
from .errors import BasisFileError, IncompleteBasis, InvalidSplit, NoValidSplit, WindingInvariantError
from .families import cartesian_basis
from .io import complex_from_json, complex_to_json
from .linalg import _row_norms, dagger
from .sampling import haar_unitary, stream
from .verify import _require_orthonormal, check_orthonormal

__all__ = [
    "SplitClass",
    "SubspacePair",
    "WindingMove",
    "validate_split",
    "apply_winding_move",
    "inverse_move",
    "is_cartesian",
    "enumerate_splits",
    "unwind",
    "wind_basis",
    "random_wound_basis",
    "move_to_record",
    "move_from_record",
]


# Module-local rather than Tolerances fields: no caller sets them.
#
# max|C^dag C - I| for split columns and max|U^dag U - I| for move unitaries;
# also the |R_ii| rank cut of the QR that spans a ray component
_MATRIX_TOL = 1e-10
# an alignment unitary whose diagonal entries all have modulus within this of 1
# maps each ray onto its own axis, so its move would only change phases
_PHASE_TOL = 1e-9


class SplitClass(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    UNCLASSIFIED = "unclassified"


def _orthonormal_columns(mat, name: str) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[1] < 1 or arr.shape[0] < arr.shape[1]:
        raise ValueError(f"{name} must hold 1..dim orthonormal columns")
    gram = dagger(arr) @ arr
    if not float(np.max(np.abs(gram - np.eye(arr.shape[1])))) <= _MATRIX_TOL:  # NaN fails
        raise ValueError(f"{name} columns are not orthonormal within {_MATRIX_TOL:g}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SubspacePair:
    """Orthonormal column bases for a local subspace pair H_A' (x) H_B'."""

    a_basis: np.ndarray  # shape (dA, ka)
    b_basis: np.ndarray  # shape (dB, kb)

    def __post_init__(self):
        object.__setattr__(self, "a_basis", _orthonormal_columns(self.a_basis, "a_basis"))
        object.__setattr__(self, "b_basis", _orthonormal_columns(self.b_basis, "b_basis"))

    @property
    def dims(self) -> tuple[int, int]:
        return self.a_basis.shape[1], self.b_basis.shape[1]


def _unitary(mat, dim: int, name: str) -> np.ndarray:
    arr = np.array(mat, dtype=complex)
    if arr.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}")
    if not float(np.max(np.abs(dagger(arr) @ arr - np.eye(dim)))) <= _MATRIX_TOL:  # NaN fails
        raise ValueError(f"{name} is not unitary within {_MATRIX_TOL:g}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class WindingMove:
    split: SubspacePair
    u_a: np.ndarray
    u_b: np.ndarray

    def __post_init__(self):
        ka, kb = self.split.dims
        object.__setattr__(self, "u_a", _unitary(self.u_a, ka, "u_a"))
        object.__setattr__(self, "u_b", _unitary(self.u_b, kb, "u_b"))


def inverse_move(move: WindingMove) -> WindingMove:
    """Same split, adjoint unitaries."""
    return WindingMove(move.split, dagger(move.u_a), dagger(move.u_b))


def _require_complete(basis: ProductBasis):
    if not basis.is_complete():
        raise IncompleteBasis(
            f"basis has {len(basis)} states but the space has dimension {basis.dim}"
        )


def _side_measures(cands, vectors):
    """Projection residuals and weights of every local factor on every candidate.

    ``res[c, n] = ||v_n - P_c v_n||`` and ``w[c, n] = Re <v_n|P_c v_n>`` with
    ``P_c = C_c C_c^dag``.  The stacked calls run one ``gemv`` and one dot
    product per (candidate, vector), the kernels of ``P_c @ v_n`` and
    ``np.vdot``, so each entry is bit for bit that pair's own value.
    """
    vectors = np.asarray(vectors)
    p = np.stack([cols @ dagger(cols) for cols in cands])
    pv = (p[:, None] @ vectors[None, :, :, None])[..., 0]
    return _row_norms(vectors - pv), np.vecdot(vectors, pv).real


def _classify_pairs(basis: ProductBasis, a_cands, b_cands, a_index, b_index):
    """``(valid, inside, outside)`` masks of the pairs ``a_cands[a_index[s]]`` (x) ``b_cands[b_index[s]]``.

    The rule is :func:`validate_split`'s, and so is the inside-count check;
    each candidate is measured once.
    """
    res_a, w_a = _side_measures(a_cands, basis.a_matrix().T)
    res_b, w_b = _side_measures(b_cands, basis.b_matrix().T)
    res_a, w_a, res_b, w_b = res_a[a_index], w_a[a_index], res_b[b_index], w_b[b_index]
    cut = TOLERANCES.split_inside_residual
    inside = (res_a <= cut) & (res_b <= cut)
    outside = ~inside & (w_a * w_b <= TOLERANCES.split_outside_overlap)
    valid = np.all(inside | outside, axis=1)
    # completeness forces the inside block of each valid split to hold ka * kb states
    ka = np.array([cols.shape[1] for cols in a_cands])[a_index]
    kb = np.array([cols.shape[1] for cols in b_cands])[b_index]
    n_inside = inside.sum(axis=1)
    bad = np.flatnonzero(valid & (n_inside != ka * kb))
    if bad.size:
        n, a, b = n_inside[bad[0]], ka[bad[0]], kb[bad[0]]
        raise WindingInvariantError(f"valid ({a}, {b}) split holds {n} inside states, not {a * b}")
    return valid, inside, outside


def validate_split(basis: ProductBasis, split: SubspacePair):
    """Classify every state of a complete basis against a subspace pair.

    A state is INSIDE when both factors lie in their subspaces (projection
    residual <= ``TOLERANCES.split_inside_residual``) and OUTSIDE when the
    product of the two projection weights vanishes (at most
    ``TOLERANCES.split_outside_overlap``), which for product states is
    membership in the orthogonal complement of H_A' (x) H_B'.  The split is
    valid iff every state is classified; completeness then forces the inside
    count to be dim H_A' * dim H_B', and a valid split that breaks it raises
    :class:`WindingInvariantError`.  This is one row of the split table:
    both run :func:`_classify_pairs`.
    """
    _require_complete(basis)
    valid, inside, outside = _classify_pairs(basis, [split.a_basis], [split.b_basis], [0], [0])
    classes = tuple(
        SplitClass.INSIDE if i else SplitClass.OUTSIDE if o else SplitClass.UNCLASSIFIED
        for i, o in zip(inside[0], outside[0])
    )
    return bool(valid[0]), classes


def _embed(cols: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Operator acting as u on span(cols) and as the identity on its complement."""
    dim = cols.shape[0]
    p = cols @ dagger(cols)
    return cols @ u @ dagger(cols) + np.eye(dim, dtype=complex) - p


def apply_winding_move(basis: ProductBasis, move: WindingMove) -> ProductBasis:
    """Rotate the inside block of a valid split by u_a (x) u_b.

    The split is validated first (an invalid one raises :class:`InvalidSplit`).
    Outside states are fixed by the support condition.  The output is again
    a complete orthonormal product basis (checked; a failure raises
    :class:`WindingInvariantError`) and the move is appended to the basis
    provenance.
    """
    ok, classes = validate_split(basis, move.split)
    if not ok:
        raise InvalidSplit("split does not classify every basis state")
    inside = [cls is SplitClass.INSIDE for cls in classes]
    return _rotate(basis, move, inside, basis.provenance + (move_to_record(move),))


def _rotate(basis: ProductBasis, move: WindingMove, inside, provenance) -> ProductBasis:
    """Apply a move to the states marked in ``inside``, a valid split's inside mask.

    The caller vouches for the mask (from :func:`validate_split` or a split
    table row) and passes the provenance the result carries: the input's
    plus the move's record for a basis that is returned, none for a search
    node.  The Gram check of the output (``TOLERANCES.orthonormality``) is
    kept here.  A rotated factor that rounding drift takes off unit norm
    raises :class:`WindingInvariantError`; the factors are not renormalised.
    """
    inside = np.asarray(inside, dtype=bool)
    rows = []
    for m, cols, u in ((basis.a_matrix(), move.split.a_basis, move.u_a),
                       (basis.b_matrix(), move.split.b_basis, move.u_b)):
        side = m.T.copy()
        # one matmul per state, so each rotated factor is bit for bit op @ v
        side[inside] = (_embed(cols, u) @ side[inside][:, :, None])[..., 0]
        rows.append(side)
    cells = [None if x else support for support, x in zip(basis.tile_cells, inside)]
    try:
        out = ProductBasis._from_rows(
            (basis.d_a, basis.d_b), *rows, basis.labels, cells,
            family=Family.CUSTOM, provenance=provenance,
        )
    except ValueError as exc:
        raise WindingInvariantError(f"winding move broke the unit-norm check: {exc}") from None
    ok_gram, dev = check_orthonormal(out)
    if not ok_gram:
        raise WindingInvariantError(f"winding move broke orthonormality (deviation {max(dev):.3e})")
    return out


def _rays(vectors):
    """Rays of the rows of ``vectors`` and which pairs of rays are non-orthogonal.

    Every test reads one modulus matrix |<v_m|v_n>|.  Row n joins the ray of
    the first representative r with |<v_r|v_n>| >= 1 - tol, or else starts
    a new ray.  Returns each row's ray id, the representative rows in
    first-occurrence order, and the adjacency of the ray graph: True where
    two distinct rays have |overlap| > tol, ``TOLERANCES.ray_grouping``.
    """
    tol = TOLERANCES.ray_grouping
    v = np.asarray(vectors)
    mod = np.abs(v.conj() @ v.T)
    close = (mod >= 1.0 - tol).tolist()
    reps, ids = [], []
    for n in range(len(v)):
        for i, r in enumerate(reps):
            if close[r][n]:
                break
        else:
            i = len(reps)
            reps.append(n)
        ids.append(i)
    adjacent = (mod[reps][:, reps] > tol) & ~np.eye(len(reps), dtype=bool)
    return ids, v[reps], adjacent


def _is_grid(reps, adjacent, dim: int) -> bool:
    """``dim`` mutually orthogonal rays: every component of the ray graph is a single ray.

    A component of two or more rays holds a non-orthogonal pair, so this is
    the same predicate as "no two rays adjacent".
    """
    return len(reps) == dim and not adjacent.any()


def _components(adjacent):
    """Components of the ray graph as sorted arrays of ray ids, ordered by their smallest member."""
    # transitive closure by repeated boolean squaring
    reach = adjacent | np.eye(len(adjacent), dtype=bool)
    while not np.array_equal(grown := reach @ reach, reach):
        reach = grown
    roots = np.flatnonzero(reach.argmax(axis=1) == np.arange(len(reach)))
    return [np.flatnonzero(reach[i]) for i in roots]


def is_cartesian(basis: ProductBasis) -> bool:
    """True iff the basis is a grid basis in some pair of local bases.

    Checks that the distinct A rays number exactly dA and are mutually
    orthogonal (each its own component of the ray graph), likewise for B,
    and that the (A ray, B ray) incidence map covers the dA x dB grid
    bijectively.  No alignment with the computational axes is required.
    Rays are grouped within ``TOLERANCES.ray_grouping`` (see :func:`_rays`).
    """
    _require_complete(basis)
    a_ids, a_reps, a_adjacent = _rays(basis.a_matrix().T)
    if not _is_grid(a_reps, a_adjacent, basis.d_a):
        return False
    b_ids, b_reps, b_adjacent = _rays(basis.b_matrix().T)
    if not _is_grid(b_reps, b_adjacent, basis.d_b):
        return False
    return len(set(zip(a_ids, b_ids))) == basis.dim


def _component_subspaces(reps, components):
    """Orthonormal bases for ray-graph components (see :func:`_components`).

    A one-ray component keeps its ray as its basis (a natural alignment
    target); a larger one is spanned by a rank-revealing QR of its rays.
    """
    subspaces = []
    for members in components:
        cols = reps[members].T
        if len(members) > 1:
            q, r = np.linalg.qr(cols)
            cols = q[:, np.abs(np.diag(r)) > _MATRIX_TOL]
        subspaces.append(cols)
    return subspaces


def _side_candidates(vectors, dim: int):
    """Column bases for one side: the full space, then every proper union of components.

    Components of the non-orthogonality graph of the side's rays are
    mutually orthogonal, so distinct unions span distinct subspaces.  Unions
    come in bitmask order over the components.  Their columns are checked
    for orthonormality only when a split on them is built.
    """
    _, reps, adjacent = _rays(vectors)
    components = _component_subspaces(reps, _components(adjacent))
    c = len(components)
    cands = [np.eye(dim, dtype=complex)]
    for mask in range(1, 2**c - 1):
        cols = [components[i] for i in range(c) if mask >> i & 1]
        cands.append(np.column_stack(cols) if len(cols) > 1 else cols[0])
    return cands


@dataclass(frozen=True)
class _SplitTable:
    """Every valid proper split of a complete basis, in enumeration order.

    Split ``s`` pairs ``a_cands[a_index[s]]`` with ``b_cands[b_index[s]]``
    (index 0 is the full space) and holds the states marked in
    ``inside[s]``; every other state lies outside it.
    """

    a_cands: list
    b_cands: list
    a_index: np.ndarray  # (S,)
    b_index: np.ndarray  # (S,)
    inside: np.ndarray   # (S, N) bool

    def __len__(self) -> int:
        return len(self.a_index)

    def split(self, s: int) -> SubspacePair:
        return SubspacePair(self.a_cands[self.a_index[s]], self.b_cands[self.b_index[s]])


def _split_table(basis: ProductBasis) -> _SplitTable:
    """Classify every candidate pair of a complete basis in one broadcast.

    :func:`_classify_pairs` gives each pair the verdict :func:`validate_split`
    gives it.  Pairs run (a, full B), then (full A, b), then a-major (a, b);
    each is proper, as a proper union leaves out a component.  The caller
    has checked completeness.
    """
    a_cands = _side_candidates(basis.a_matrix().T, basis.d_a)
    b_cands = _side_candidates(basis.b_matrix().T, basis.d_b)
    na, nb = len(a_cands) - 1, len(b_cands) - 1
    a_proper = np.arange(1, na + 1)
    b_proper = np.arange(1, nb + 1)
    a_index = np.concatenate([a_proper, np.zeros(nb, dtype=int), np.repeat(a_proper, nb)])
    b_index = np.concatenate([np.zeros(na, dtype=int), b_proper, np.tile(b_proper, na)])
    valid, inside, _ = _classify_pairs(basis, a_cands, b_cands, a_index, b_index)
    return _SplitTable(a_cands, b_cands, a_index[valid], b_index[valid], inside[valid])


def enumerate_splits(basis: ProductBasis) -> tuple[SubspacePair, ...]:
    """All proper splits visible in the ray structure of a complete basis.

    Candidate subspaces are the full space and the spans of proper unions of
    connected components of the per-side non-orthogonality graphs.  The
    candidates are paired with the full opposite side and with each other,
    and a pair is kept when it classifies every state (see
    :func:`validate_split`).  Distinct unions of mutually orthogonal
    components span distinct subspaces, so no two splits coincide.  Union
    pairs can still fail: component rays are orthogonal only to within
    ``TOLERANCES.ray_grouping``, and a leak above
    ``TOLERANCES.split_outside_overlap`` leaves a state unclassified.
    """
    _require_complete(basis)
    table = _split_table(basis)
    return tuple(table.split(s) for s in range(len(table)))


def _alignment_unitary(reps) -> np.ndarray:
    """Unitary mapping a full orthonormal set of rays onto the coordinate axes.

    Axes are assigned by greedy maximum |overlap| so that rays already on an
    axis map to that axis; the result sends each ray exactly (phase
    included) to its assigned axis.
    """
    k = len(reps)
    weight = np.abs(reps.T)  # rows: axes, cols: rays
    # (axis, ray) pairs by descending weight, ties in (axis, ray) order: a
    # stable sort of the row-major flat indices
    order = np.argsort(-weight, axis=None, kind="stable").tolist()
    free_axes = [True] * k
    free_rays = [True] * k
    u = np.zeros((k, k), dtype=complex)
    for flat in order:
        i, j = divmod(flat, k)
        if free_axes[i] and free_rays[j]:
            u[i, :] = reps[j].conj()
            free_axes[i] = free_rays[j] = False
    return u


def _is_phase_diagonal(u: np.ndarray) -> bool:
    return bool(np.all(np.abs(np.abs(np.diag(u)) - 1.0) < _PHASE_TOL))


def _grid_alignment(factors, cols, inside):
    """Alignment unitary of one side of a split's inside block, or None off grid form.

    The block's rays on this side are the unit coordinates in ``cols`` of the
    inside states' factors; grid form is one mutually orthogonal ray per
    column of ``cols``.
    """
    coords = (dagger(cols) @ factors.T[inside][:, :, None])[..., 0]
    _, reps, adjacent = _rays(coords / _row_norms(coords)[:, None])
    return _alignment_unitary(reps) if _is_grid(reps, adjacent, cols.shape[1]) else None


def _candidate_moves(basis: ProductBasis, table: _SplitTable, s: int):
    """Grid-restoring moves for the inside block of split ``s`` of ``table``.

    The inside block is itself a complete product basis of the split
    subspace.  When its local ray structure is one move away from grid form
    (a full set of mutually orthogonal rays on a side), the unitary mapping
    those rays onto the split's own basis is a candidate; it is the inverse
    of whatever single local rotation wound that side.  Moves that only
    adjust phases are skipped.  The alignments read the split's columns
    from the table; the :class:`SubspacePair` and the moves, each validated
    as it is built, are built only when some move is left.
    """
    a_cols, b_cols = table.a_cands[table.a_index[s]], table.b_cands[table.b_index[s]]
    inside = table.inside[s]
    u_a = _grid_alignment(basis.a_matrix(), a_cols, inside)
    u_b = _grid_alignment(basis.b_matrix(), b_cols, inside)
    a_moves = u_a is not None and not _is_phase_diagonal(u_a)
    b_moves = u_b is not None and not _is_phase_diagonal(u_b)
    if not (a_moves or b_moves):
        return []

    split = table.split(s)
    ka, kb = split.dims
    moves = []
    if u_a is not None and u_b is not None:
        moves.append(WindingMove(split, u_a, u_b))
    if a_moves:
        moves.append(WindingMove(split, u_a, np.eye(kb, dtype=complex)))
    if b_moves:
        moves.append(WindingMove(split, np.eye(ka, dtype=complex), u_b))
    return moves


def _search(basis: ProductBasis, max_depth: int):
    """Level-order search for the first grid-form node within ``max_depth`` moves.

    Levels are expanded in path order, and each basis is expanded once: one
    split table, one candidate-move pass per split, and each child built once
    and tested as it is built.  The first grid-form child found is the one
    iterative deepening finds, the smallest path by (depth, split index, move
    index), because every shallower node has already been tested.  Only the
    level being expanded is stored, never the children of the last level,
    and a level without children ends the search whatever ``max_depth`` is.
    Nodes carry no provenance: the search returns the move path, and
    :func:`unwind` replays it through :func:`apply_winding_move`.
    """
    if is_cartesian(basis):
        return []
    level = [(basis, [])]
    for depth in range(max_depth):
        if not level:
            break
        last = depth == max_depth - 1
        children = []
        for node, path in level:
            table = _split_table(node)
            for s in range(len(table)):
                for move in _candidate_moves(node, table, s):
                    child = _rotate(node, move, table.inside[s], ())
                    if is_cartesian(child):
                        return path + [move]
                    if not last:
                        children.append((child, path + [move]))
        level = children
    return None


def unwind(basis: ProductBasis, max_depth: int):
    """Search for a certified move sequence taking the basis to grid form.

    A level-order search returns the smallest certified sequence by (depth,
    split index, move index), as iterative deepening would, but expands each
    basis it reaches once and holds one level of bases at a time.  Returns
    the move list, empty for an already-Cartesian basis, or ``None`` when
    the search is exhausted; absence means "not unwound within this depth",
    never "not unwindable".  A negative ``max_depth`` raises ``ValueError``,
    an incomplete input :class:`IncompleteBasis` and a non-orthonormal one
    :class:`NonOrthonormalInput`.
    Every returned sequence is independently certified by re-application
    (each move validated again) before being returned; a sequence that
    fails its replay raises :class:`WindingInvariantError`.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative")
    _require_complete(basis)
    _require_orthonormal(basis)
    seq = _search(basis, max_depth)
    if seq is not None:
        replayed = basis
        for move in seq:
            replayed = apply_winding_move(replayed, move)
        if not is_cartesian(replayed):
            raise WindingInvariantError("unwinding sequence failed certification")
    return seq


def wind_basis(basis: ProductBasis, k_moves: int, seed: int):
    """Apply ``k_moves`` random winding moves to a complete product basis.

    Each move samples a split uniformly from the currently available ones
    and Haar-random subspace unitaries, all from a stream keyed by
    (seed, move index).  Returns the wound basis together with the exact
    move list; raises :class:`NoValidSplit` (carrying the moves applied so
    far) if the split enumeration ever comes up empty.  An incomplete input
    raises :class:`IncompleteBasis`, a non-orthonormal one
    :class:`NonOrthonormalInput`.
    """
    if k_moves < 0:
        raise ValueError("k_moves must be nonnegative")
    _require_complete(basis)
    _require_orthonormal(basis)
    moves: list[WindingMove] = []
    for m in range(k_moves):
        table = _split_table(basis)
        if not len(table):
            raise NoValidSplit(
                f"no proper split available after {m} moves", moves_applied=tuple(moves)
            )
        rng = stream(seed, m)
        s = int(rng.integers(len(table)))
        split = table.split(s)
        ka, kb = split.dims
        move = WindingMove(split, haar_unitary(rng, ka), haar_unitary(rng, kb))
        basis = _rotate(basis, move, table.inside[s], basis.provenance + (move_to_record(move),))
        moves.append(move)
    return basis, tuple(moves)


def random_wound_basis(d_a: int, d_b: int, k_moves: int, seed: int):
    """Wound test fixture: ``k_moves`` random moves applied to the Cartesian basis."""
    return wind_basis(cartesian_basis(d_a, d_b), k_moves, seed)


def move_to_record(move: WindingMove) -> dict:
    """JSON-serializable record of a move (stored in basis provenance)."""
    return {
        "op": "winding_move",
        "a_basis": complex_to_json(move.split.a_basis),
        "b_basis": complex_to_json(move.split.b_basis),
        "u_a": complex_to_json(move.u_a),
        "u_b": complex_to_json(move.u_b),
    }


def move_from_record(record: dict) -> WindingMove:
    """Inverse of :func:`move_to_record`.

    A record whose ``op`` is not ``winding_move`` raises ``ValueError``; any
    other malformed record raises :class:`BasisFileError`.
    """
    if not isinstance(record, dict):
        raise BasisFileError("a winding move record must be an object")
    if record.get("op") != "winding_move":
        raise ValueError(f"not a winding move record: {record.get('op')!r}")
    a, b, u_a, u_b = (complex_from_json(record.get(k), 2, k) for k in ("a_basis", "b_basis", "u_a", "u_b"))
    try:
        return WindingMove(SubspacePair(a, b), u_a, u_b)
    except ValueError as exc:
        raise BasisFileError(f"invalid winding move record: {exc}") from exc
