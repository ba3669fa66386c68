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

A job decomposes the state once: :class:`DensityMatrix` checks its spectrum
with ``eigh`` and keeps the eigenpairs, and the range criterion hands the
range eigenvectors straight to the see-saw as the factor of the range
projector.  The partial transpose has a spectrum of its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .basis import ProductBasis, ProductState
from .config import TOLERANCES
from .errors import CompleteBasisInput, DimensionMismatch, InvalidProjector, ZeroState
from .linalg import hermitian_part, partial_transpose
from .verify import Verdict, _seesaw, complement_projector, overlap_verdict

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


@dataclass(frozen=True)
class DensityMatrix:
    """Normalized density operator on C^dA (x) C^dB.

    Validation decomposes the Hermitian part once; its eigenpairs ``(w, v)``
    are kept, read-only, in ``_spectrum`` for the range criterion.
    """

    matrix: np.ndarray
    d_a: int
    d_b: int
    _spectrum: tuple = field(init=False, repr=False, compare=False)

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

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


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

    rho = (I - P_S) / tr(I - P_S); the spectrum is {0, 1/(D - N)} up to the
    Gram deviation.  Dividing by the measured trace, not the rank D - N,
    gives trace 1 to rounding however the admitted norm errors add up.  The
    basis is checked for orthonormality first (:class:`NonOrthonormalInput`),
    then for a nonempty complement (:class:`CompleteBasisInput`); Gram
    deviations within tolerance that add up to an invalid state raise
    :class:`InvalidProjector`.  Whether the basis is unextendible is left to
    the range criterion on the result.
    """
    q = complement_projector(basis)
    if basis.dim == len(basis):
        raise CompleteBasisInput("basis spans the full space, the complement state is empty")
    try:
        return DensityMatrix(q / np.trace(q).real, basis.d_a, basis.d_b)
    except ValueError as exc:
        raise InvalidProjector(f"complement state is not a valid density matrix: {exc}") from None


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

    The range is spanned by the eigenvectors of rho, from the decomposition
    that validated it, with eigenvalue above ``TOLERANCES.range_cutoff``.  Those
    orthonormal columns V factor the range projector V V^dag, so the see-saw
    maximizes the product overlap with it without forming or decomposing
    it again, with the same fixed stop rule and iteration cap as
    :func:`~prodbasis.verify.seesaw_max_product_overlap`.  ``ENTANGLED``, the
    entanglement half of the signature, is :func:`~prodbasis.verify.overlap_verdict`'s
    ``UPB_Numeric``: no product state in the range numerically.
    """
    w, v = rho._spectrum
    keep = w > TOLERANCES.range_cutoff
    if not np.any(keep):
        raise ZeroState("density matrix has no eigenvalue above the range cutoff")
    result = _seesaw(v[:, keep], rho.d_a, rho.d_b, restarts, seed)
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
