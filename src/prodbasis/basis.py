"""Product states and ordered product bases.

A product basis is two factor matrices: column i of A (dA x N) and column i
of B (dB x N) are the local factors of state i, so every state stays a
manifest product even after unitary transformations.  A
:class:`ProductBasis` stores those two arrays once, read-only and checked in
one vectorised pass, together with per-state labels and tile cells, family
provenance and a machine-readable log of the transformations that produced
it.  A :class:`ProductState` is the per-state record: built directly it
checks its own factors, and ``basis[i]``, iteration and ``basis.states``
hand out views of the stored columns without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

import numpy as np

from .config import TOLERANCES
from .errors import DimensionMismatch

__all__ = ["Family", "ProductState", "ProductBasis"]


class Family(str, Enum):
    GENTILES1 = "GenTiles1"
    GENTILES2 = "GenTiles2"
    CARTESIAN = "Cartesian"
    CUSTOM = "Custom"


def _factor_columns(rows, dim: int, name: str) -> np.ndarray:
    """Read-only (dim, N) factor matrix whose column i is ``rows[i]``, checked in one pass.

    The columns must be finite and of unit norm.  The matrix is column-major,
    so each state's factor is contiguous and a column view computes exactly
    like a standalone vector.
    """
    if dim < 1:
        raise DimensionMismatch("local dimensions must be positive")
    try:
        arr = np.array(rows, dtype=complex).reshape(len(rows), dim).T
    except ValueError:
        raise DimensionMismatch(f"{name} factors do not all have dimension {dim}") from None
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    err = np.abs(np.linalg.norm(arr, axis=0) - 1.0)
    bad = np.flatnonzero(~(err <= TOLERANCES.unit_norm))
    if bad.size:
        raise ValueError(f"{name} of state {bad[0]} is not unit norm (|norm - 1| = {err[bad[0]]:.3e})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ProductState:
    """One product state |a> (x) |b> with optional label and tile support.

    ``tile_cells`` is the set of (A index, B index) grid cells on which the
    product amplitude is nonzero; columns index the A side, rows the B side.
    Two states compare equal only when they are the same object, and a
    state is hashable; :func:`prodbasis.verify.basis_set_equal_up_to_phase`
    compares bases by value.
    """

    a: np.ndarray
    b: np.ndarray
    label: str = ""
    tile_cells: frozenset[tuple[int, int]] | None = None

    def __post_init__(self):
        for name in ("a", "b"):
            v = np.asarray(getattr(self, name))
            if v.ndim != 1 or v.size < 1:
                raise DimensionMismatch(f"{name} must be a nonempty 1-D vector")
            object.__setattr__(self, name, _factor_columns(v[None], v.size, name)[:, 0])
        if self.tile_cells is not None:
            cells = frozenset((int(c), int(r)) for c, r in self.tile_cells)
            object.__setattr__(self, "tile_cells", cells)

    @classmethod
    def _view(cls, a, b, label, tile_cells) -> "ProductState":
        """A state over factors a basis has already checked."""
        st = object.__new__(cls)
        st.__dict__.update(a=a, b=b, label=label, tile_cells=tile_cells)
        return st

    def overlap(self, other: "ProductState") -> complex:
        """Global overlap <self|other> = <a|a'><b|b'>."""
        return complex(np.vdot(self.a, other.a) * np.vdot(self.b, other.b))


@dataclass(frozen=True, eq=False, init=False)
class ProductBasis:
    """Ordered set of product states over local dimensions (dA, dB).

    Built from states (``ProductBasis(d_a, d_b, states, family=...,
    provenance=...)``) or, inside the package, straight from the factor
    matrices.  Orthonormality is a property of the intended families, not a
    structural requirement; it is checked by the verification module so
    that defective inputs can be diagnosed rather than rejected at
    construction.
    """

    d_a: int
    d_b: int
    labels: tuple[str, ...]
    tile_cells: tuple[frozenset[tuple[int, int]] | None, ...]
    family: Family
    provenance: tuple[dict, ...]
    _a: np.ndarray = field(repr=False)   # (dA, N), read-only
    _b: np.ndarray = field(repr=False)   # (dB, N), read-only

    def __init__(self, d_a: int, d_b: int, states, family: Family = Family.CUSTOM, provenance=()):
        states = tuple(states)
        self._store((d_a, d_b), [st.a for st in states], [st.b for st in states],
                    [st.label for st in states], [st.tile_cells for st in states], family, provenance)

    @classmethod
    def _from_rows(cls, dims, a, b, labels, tile_cells, family: Family = Family.CUSTOM, provenance=()):
        """Basis over ``dims`` whose state i is a[i] (x) b[i]; the factors are copied and checked.

        ``tile_cells`` holds, per state, a frozenset of integer (column, row)
        pairs or None.
        """
        basis = cls.__new__(cls)
        basis._store(dims, a, b, labels, tile_cells, family, provenance)
        return basis

    def _store(self, dims, a, b, labels, tile_cells, family, provenance):
        d_a, d_b = dims
        a = _factor_columns(a, d_a, "a")
        b = _factor_columns(b, d_b, "b")
        cells = list(chain.from_iterable(support for support in tile_cells if support is not None))
        # bounds of each coordinate first, by C-level iteration; the first
        # cell outside the grid is looked up only when one is
        cols, rows = zip(*cells) if cells else ((), ())
        if cells and (min(cols) < 0 or max(cols) >= d_a or min(rows) < 0 or max(rows) >= d_b):
            c, r = next((c, r) for c, r in cells if not (0 <= c < d_a and 0 <= r < d_b))
            raise DimensionMismatch(f"tile cell ({c}, {r}) outside the {d_a}x{d_b} grid")
        for name, value in (("d_a", d_a), ("d_b", d_b), ("labels", tuple(labels)),
                            ("tile_cells", tuple(tile_cells)), ("family", family),
                            ("provenance", tuple(provenance)), ("_a", a), ("_b", b)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self._a.shape[1]

    def __iter__(self):
        return map(ProductState._view, self._a.T, self._b.T, self.labels, self.tile_cells)

    def __getitem__(self, i: int) -> ProductState:
        return ProductState._view(self._a[:, i], self._b[:, i], self.labels[i], self.tile_cells[i])

    @property
    def states(self) -> tuple[ProductState, ...]:
        return tuple(self)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def is_complete(self) -> bool:
        return len(self) == self.dim

    def a_matrix(self) -> np.ndarray:
        """A-side factors as columns, shape (dA, N); the stored read-only array."""
        return self._a

    def b_matrix(self) -> np.ndarray:
        """B-side factors as columns, shape (dB, N); the stored read-only array."""
        return self._b

    def global_matrix(self) -> np.ndarray:
        """Global product vectors as columns, shape (dA*dB, N)."""
        return (self._a[:, None, :] * self._b[None, :, :]).reshape(self.dim, len(self))
