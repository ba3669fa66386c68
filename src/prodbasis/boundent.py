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

:func:`upb_density_state` takes its input check and complement from
``check_upb``'s front end, :func:`prodbasis.verify._checked_complement`, so
``boundent`` rejects what ``verify`` rejects, with the same message, and
prints the same maximum: the state is the complement's projector over its
trace and keeps the complement as its one range operand.  The one D x D
eigensolver of a job is the partial transpose's ``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .basis import ProductBasis, ProductState, _require_local_dims
from .config import TOLERANCES
from .errors import CompleteBasisInput, DimensionMismatch, ZeroState
from .linalg import hermitian_part, partial_transpose
from .verify import Verdict, _FactorContractions, _checked_complement, _seesaw, overlap_verdict

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

    ``matrix`` is the read-only Hermitian part of the matrix given, which
    must be Hermitian within 1e-10, so it is exactly Hermitian.  ``_range``
    is the see-saw's operand for the projector onto the range: the read-only
    eigenvectors with eigenvalue above ``TOLERANCES.range_cutoff`` of the
    decomposition that validates the state, or the complement a state from
    :meth:`_of_complement` was built from.  Two instances compare equal only when they are the same object.
    """

    matrix: np.ndarray
    d_a: int
    d_b: int
    _range: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_local_dims(self.d_a, self.d_b)
        m = np.asarray(self.matrix, dtype=complex)
        dim = self.d_a * self.d_b
        if m.shape != (dim, dim):
            raise DimensionMismatch(f"matrix shape {m.shape} does not match dims ({self.d_a}, {self.d_b})")
        # written so that NaN fails each check
        if not float(np.max(np.abs(m - m.conj().T))) <= _STATE_TOL:
            raise ValueError(f"density matrix is not Hermitian within {_STATE_TOL:g}")
        m = hermitian_part(m)
        if not abs(float(np.trace(m).real) - 1.0) <= _STATE_TOL:
            raise ValueError(f"density matrix trace differs from 1 beyond {_STATE_TOL:g}")
        w, v = np.linalg.eigh(m)
        if not float(w[0]) >= -_STATE_TOL:
            raise ValueError(f"density matrix has an eigenvalue below -{_STATE_TOL:g}")
        v = v[:, w > TOLERANCES.range_cutoff]
        for array in (m, v):
            array.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_range", _FactorContractions(v, self.d_a, self.d_b))

    @classmethod
    def _of_complement(cls, c) -> "DensityMatrix":
        """The Hermitian part of the projector Q = ``c.projector()`` divided by its trace.

        ``c`` is the complement that :func:`prodbasis.verify._complement`
        returns, kept as ``_range``: it is the see-saw's operand for Q, whose
        range is the state's range, so no eigensolver runs.
        """
        m = hermitian_part(c.projector())
        m /= float(np.trace(m).real)
        m.setflags(write=False)
        rho = object.__new__(cls)
        for name, value in (("matrix", m), ("d_a", c.d_a), ("d_b", c.d_b), ("_range", c)):
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

    rho = Q / tr(Q), for Q the projector of the complement that
    :func:`prodbasis.verify._complement` returns, which the state keeps as
    its range operand: sum_t u_t u_t^T - s s^T for a tile-type basis, F F^dag
    for the orthonormal QR factor F otherwise.  Its spectrum is
    1/(D - N) on the complement and 0 on the span.  Dividing by the
    measured trace, not the rank D - N, gives trace 1 to rounding.  The
    input is checked by ``check_upb``'s :func:`prodbasis.verify._checked_complement`,
    with its errors and messages, and a complete basis raises
    :class:`CompleteBasisInput`.  Whether the basis is unextendible is left
    to the range criterion on the result.
    """
    _, complement = _checked_complement(basis)
    if complement is None:
        raise CompleteBasisInput("basis spans the full space, the complement state is empty")
    return DensityMatrix._of_complement(complement)


def is_ppt(rho: DensityMatrix):
    """PPT test: (min partial-transpose eigenvalue >= -``TOLERANCES.ppt``, that eigenvalue).

    ``rho.matrix`` is exactly Hermitian, and so is its partial transpose.
    """
    w_min = float(np.linalg.eigvalsh(partial_transpose(rho.matrix, rho.d_a, rho.d_b))[0])
    return w_min >= -TOLERANCES.ppt, w_min


def range_criterion_report(
    rho: DensityMatrix,
    restarts: int = 100,
    seed: int = 0,
) -> RangeCriterionReport:
    """Search the range of rho for product states.

    The see-saw runs on the state's range operand, a factor of the range
    projector, without forming or decomposing it again: the eigenvectors
    above ``TOLERANCES.range_cutoff`` when the state was built, or the
    complement of :func:`upb_density_state`, the tile form for a tile-type
    basis as in ``check_upb``.  ``range_rank`` is the operand's rank.  The
    see-saw has the same fixed stop rule and iteration cap as
    :func:`~prodbasis.verify.seesaw_max_product_overlap`.  ``ENTANGLED``, the
    entanglement half of the signature, is :func:`~prodbasis.verify.overlap_verdict`'s
    ``UPB_Numeric``: no product state in the range numerically.
    """
    q = rho._range
    if q.rank == 0:
        raise ZeroState("density matrix has no eigenvalue above the range cutoff")
    result = _seesaw(q, restarts, seed)
    entangled = overlap_verdict(result.value) is Verdict.UPB_NUMERIC
    return RangeCriterionReport(
        range_rank=q.rank,
        max_product_overlap=result.value,
        witness=result.witness,
        verdict=RangeVerdict.ENTANGLED if entangled else RangeVerdict.INCONCLUSIVE,
        restarts_used=result.restarts_used,
        iterations_total=result.iterations_total,
        seed=seed,
        capped_restarts=result.capped_restarts,
    )
