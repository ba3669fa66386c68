"""Product states and ordered product bases.

A :class:`ProductState` stores its two local factors explicitly, which keeps
every state a manifest product even after unitary transformations.  A
:class:`ProductBasis` is an immutable ordered collection over declared local
dimensions together with family provenance and a machine-readable log of the
transformations that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import TOLERANCES
from .errors import DimensionMismatch

__all__ = ["Family", "ProductState", "ProductBasis"]


class Family(str, Enum):
    GENTILES1 = "GenTiles1"
    GENTILES2 = "GenTiles2"
    CARTESIAN = "Cartesian"
    CUSTOM = "Custom"


def _frozen_vector(v, name: str) -> np.ndarray:
    arr = np.array(v, dtype=complex)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatch(f"{name} must be a nonempty 1-D vector")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > TOLERANCES.unit_norm:
        raise ValueError(f"{name} is not unit norm (|norm - 1| = {abs(norm - 1.0):.3e})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProductState:
    """One product state |a> (x) |b> with optional label and tile support.

    ``tile_cells`` is the set of (A index, B index) grid cells on which the
    product amplitude is nonzero; columns index the A side, rows the B side.
    """

    a: np.ndarray
    b: np.ndarray
    label: str = ""
    tile_cells: frozenset[tuple[int, int]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen_vector(self.a, "a"))
        object.__setattr__(self, "b", _frozen_vector(self.b, "b"))
        if self.tile_cells is not None:
            cells = frozenset((int(c), int(r)) for c, r in self.tile_cells)
            object.__setattr__(self, "tile_cells", cells)

    @property
    def d_a(self) -> int:
        return self.a.size

    @property
    def d_b(self) -> int:
        return self.b.size

    def global_vector(self) -> np.ndarray:
        return np.kron(self.a, self.b)

    def overlap(self, other: "ProductState") -> complex:
        """Global overlap <self|other> = <a|a'><b|b'>."""
        return complex(np.vdot(self.a, other.a) * np.vdot(self.b, other.b))


@dataclass(frozen=True)
class ProductBasis:
    """Ordered set of product states over local dimensions (dA, dB).

    Orthonormality is a property of the intended families, not a structural
    requirement; it is checked by the verification module so that defective
    inputs can be diagnosed rather than rejected at construction.
    """

    d_a: int
    d_b: int
    states: tuple[ProductState, ...]
    family: Family = Family.CUSTOM
    provenance: tuple[dict, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "provenance", tuple(self.provenance))
        if self.d_a < 1 or self.d_b < 1:
            raise DimensionMismatch("local dimensions must be positive")
        for st in self.states:
            if st.d_a != self.d_a or st.d_b != self.d_b:
                raise DimensionMismatch(
                    f"state dims ({st.d_a}, {st.d_b}) do not match basis dims ({self.d_a}, {self.d_b})"
                )
            if st.tile_cells is not None:
                for c, r in st.tile_cells:
                    if not (0 <= c < self.d_a and 0 <= r < self.d_b):
                        raise DimensionMismatch(f"tile cell ({c}, {r}) outside the {self.d_a}x{self.d_b} grid")

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(self.states)

    def __getitem__(self, i: int) -> ProductState:
        return self.states[i]

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b

    def is_complete(self) -> bool:
        return len(self.states) == self.dim

    def a_matrix(self) -> np.ndarray:
        """A-side factors as columns, shape (dA, N)."""
        return np.column_stack([st.a for st in self.states])

    def b_matrix(self) -> np.ndarray:
        return np.column_stack([st.b for st in self.states])

    def global_matrix(self) -> np.ndarray:
        """Global product vectors as columns, shape (dA*dB, N)."""
        return np.column_stack([st.global_vector() for st in self.states])
