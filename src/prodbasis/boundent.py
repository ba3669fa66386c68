"""Bound-entanglement signature of a UPB complement.

The normalized projector onto the complement of a UPB is entangled (its
range contains no product state) yet positive under partial transposition,
so it cannot be distilled.  This module builds that state and checks both
halves of the signature numerically: the PPT test via the minimum
partial-transpose eigenvalue, and the range criterion via the same see-saw
engine used for unextendibility.

For a UPB complement state the two searches are one: the range of
(I - P_S)/(D - N) is the complement of the span, and "no product state in
the complement" is what unextendible means.  So one see-saw on the range
projector gives both the range criterion and the unextendibility verdict,
and both read it through :func:`prodbasis.verify.overlap_verdict`: the
range label is ``entangled`` exactly when that verdict is ``UPB_Numeric``.

A job builds the complement once: :func:`upb_density_state` builds the
state from an orthonormal factor F of the complement and keeps F as the
state's range eigenvectors.  For a tile-type basis whose certificate holds
(:func:`prodbasis.verify._tile_complement`), F = U C comes from the tiles
with no factorisation, and the state keeps the tile form too, so the range
criterion runs the see-saw on the tile form, as
:func:`prodbasis.verify.check_upb` does.  For any other basis F is the QR
factor that ``check_upb`` uses, and the range criterion hands it straight
to the see-saw.  Either way ``boundent`` prints the same maximum as
``verify``.  The state's spectrum check runs on the N x N Gram matrix of
the orthonormality check.  The one D x D eigensolver of a job is the
partial transpose's ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .basis import ProductBasis, ProductState
from .config import TOLERANCES
from .errors import CompleteBasisInput, DimensionMismatch, InvalidProjector, ZeroState
from .linalg import dagger, hermitian_part, partial_transpose
from .verify import (
    Verdict,
    _complement_factor,
    _require_orthonormal,
    _seesaw,
    _tile_complement,
    _top_gram_eigenvalue,
    overlap_verdict,
)

__all__ = [
    "DensityMatrix",
    "RangeVerdict",
    "RangeCriterionReport",
    "upb_density_state",
    "is_ppt",
    "range_criterion_report",
]


_STATE_TOL = 1e-10  # DensityMatrix checks; module-local, as no caller sets it


class RangeVerdict(str, Enum):
    ENTANGLED = "entangled (range criterion)"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Normalized density operator on C^dA (x) C^dB.

    Validation decomposes the Hermitian part once; its eigenpairs ``(w, v)``
    are kept, read-only, in ``_spectrum`` for the range criterion.  Two
    instances compare equal only when they are the same object.
    """

    matrix: np.ndarray
    d_a: int
    d_b: int
    _spectrum: tuple = field(init=False, repr=False, compare=False)
    _tiles: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dim = self.d_a * self.d_b
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"matrix shape {m.shape} does not match dims ({self.d_a}, {self.d_b})")
        # written so that NaN fails each check
        if not float(np.max(np.abs(m - m.conj().T))) <= _STATE_TOL:
            raise ValueError(f"density matrix is not Hermitian within {_STATE_TOL:g}")
        if not abs(float(np.trace(m).real) - 1.0) <= _STATE_TOL:
            raise ValueError(f"density matrix trace differs from 1 beyond {_STATE_TOL:g}")
        w, v = np.linalg.eigh(hermitian_part(m))
        if not float(w[0]) >= -_STATE_TOL:
            raise ValueError(f"density matrix has an eigenvalue below -{_STATE_TOL:g}")
        for array in (m, w, v):
            array.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_spectrum", (w, v))

    @classmethod
    def _of_factor(cls, f: np.ndarray, d_a: int, d_b: int, tiles=None) -> "DensityMatrix":
        """F F^dag divided by its trace, for orthonormal columns ``f`` of shape (D, k).

        Its spectrum is 1/trace on the k columns of F and 0 elsewhere, so
        ``_spectrum`` holds (1/trace repeated k times, F), and no
        eigensolver runs.  ``tiles``, kept as ``_tiles``, is the tile form
        of F F^dag for a tile-type basis (``verify._TileContractions``), or
        None.
        """
        m = hermitian_part(f @ dagger(f))
        trace = float(np.trace(m).real)
        m /= trace
        w = np.full(f.shape[1], 1.0 / trace)
        for array in (m, w, f):
            array.setflags(write=False)
        rho = object.__new__(cls)
        for name, value in (("matrix", m), ("d_a", d_a), ("d_b", d_b), ("_spectrum", (w, f)), ("_tiles", tiles)):
            object.__setattr__(rho, name, value)
        return rho


@dataclass(frozen=True)
class RangeCriterionReport:
    range_rank: int
    max_product_overlap: float
    witness: ProductState
    verdict: RangeVerdict
    restarts_used: int
    iterations_total: int
    seed: int
    capped_restarts: int    # see verify.SeesawResult


def upb_density_state(basis: ProductBasis) -> DensityMatrix:
    """Uniform mixture over the complement of the basis span.

    rho = F F^dag / tr(F F^dag), for F an orthonormal factor of the
    complement: for a tile-type basis whose certificate holds, F = U C from
    the tiles (``verify._TileContractions.factor``), and the tile form is
    kept for the range criterion; otherwise the QR factor
    (:func:`prodbasis.verify._complement_factor`).  Its spectrum is
    1/(D - N) on the complement and 0 on the span.  Dividing by the
    measured trace, not the rank D - N, gives trace 1 to rounding.  The
    basis is checked for orthonormality first (:class:`NonOrthonormalInput`),
    then for a nonempty complement (:class:`CompleteBasisInput`).  Then the
    state I - V V^dag normalised by its trace t = D - tr(G), whose least
    eigenvalue is (1 - lambda_max(G)) / t, must have no eigenvalue below
    -1e-10: Gram deviations within tolerance that add up to more raise
    :class:`InvalidProjector`.  That is decided on the Gram matrix G of the
    orthonormality check, by its Gershgorin bound and, only when the bound
    fails, by ``eigvalsh`` of G.  Whether the basis is unextendible is left
    to the range criterion on the result.
    """
    g, _ = _require_orthonormal(basis)
    if basis.dim == len(basis):
        raise CompleteBasisInput("basis spans the full space, the complement state is empty")
    limit = 1.0 + _STATE_TOL * (basis.dim - float(np.trace(g).real))
    if not _top_gram_eigenvalue(g, limit) <= limit:
        raise InvalidProjector("complement state is not a valid density matrix: "
                               f"density matrix has an eigenvalue below -{_STATE_TOL:g}")
    tiles = _tile_complement(basis)
    if tiles is None:
        return DensityMatrix._of_factor(_complement_factor(basis), basis.d_a, basis.d_b)
    return DensityMatrix._of_factor(tiles.factor(), basis.d_a, basis.d_b, tiles)


def is_ppt(rho: DensityMatrix):
    """PPT test: (min partial-transpose eigenvalue >= -``TOLERANCES.ppt``, that eigenvalue)."""
    pt = partial_transpose(rho.matrix, rho.d_a, rho.d_b)
    w_min = float(np.linalg.eigvalsh(hermitian_part(pt))[0])
    return w_min >= -TOLERANCES.ppt, w_min


def range_criterion_report(
    rho: DensityMatrix,
    restarts: int = 100,
    seed: int = 0,
) -> RangeCriterionReport:
    """Search the range of rho for product states.

    The range is spanned by the eigenvectors of rho with eigenvalue above
    ``TOLERANCES.range_cutoff``: from the decomposition that validated it,
    or, for :func:`upb_density_state`, the complement factor F.  Those
    orthonormal columns V factor the range projector V V^dag, so the see-saw
    maximizes the product overlap with it without forming or decomposing
    it again; for a state of a tile-type basis it runs on the kept tile form
    of the same projector instead.  The see-saw has the same fixed stop
    rule and iteration cap as
    :func:`~prodbasis.verify.seesaw_max_product_overlap`.  ``ENTANGLED``, the
    entanglement half of the signature, is :func:`~prodbasis.verify.overlap_verdict`'s
    ``UPB_Numeric``: no product state in the range numerically.
    """
    w, v = rho._spectrum
    keep = w > TOLERANCES.range_cutoff
    if not np.any(keep):
        raise ZeroState("density matrix has no eigenvalue above the range cutoff")
    # the range of a tile-type complement state is all of F: its w are equal
    q = v[:, keep] if rho._tiles is None else rho._tiles
    result = _seesaw(q, rho.d_a, rho.d_b, restarts, seed)
    entangled = overlap_verdict(result.value) is Verdict.UPB_NUMERIC
    return RangeCriterionReport(
        range_rank=int(np.count_nonzero(keep)),
        max_product_overlap=result.value,
        witness=result.witness,
        verdict=RangeVerdict.ENTANGLED if entangled else RangeVerdict.INCONCLUSIVE,
        restarts_used=result.restarts_used,
        iterations_total=result.iterations_total,
        seed=seed,
        capped_restarts=result.capped_restarts,
    )
