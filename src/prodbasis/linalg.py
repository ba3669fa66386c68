"""Dense complex linear-algebra substrate.

Vectors are 1-D ``complex128`` numpy arrays, operators 2-D arrays.
``dagger`` and ``hermitian_part`` also take a stack of operators (shape
``(n, d, d)``) and act on each one independently, so a slice of a stacked
result does not depend on the other members of the stack;
``top_eigenvector`` takes one operator.  The functions here are thin
wrappers over numpy/LAPACK routines; ``partial_transpose`` and
``top_eigenvector`` check the shapes they are given.  All are pure and
safe to invoke concurrently.

``top_eigenvector`` solves with ``np.linalg.eigh`` (LAPACK ``zheevd``).  The
see-saw does not call it: it takes power steps on its contracted operators
(:mod:`prodbasis.verify`), and borrows only ``_row_norms`` and
``_canonical_phase`` from here.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError

from .errors import DimensionMismatch

__all__ = [
    "dagger",
    "hermitian_part",
    "top_eigenvector",
    "partial_transpose",
]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of an operator, or of each operator in a stack."""
    return np.conj(m).swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2 of an operator, or of each operator in a stack; ``m`` is an ndarray.

    Each term is halved in real arithmetic before the sum, so no complex
    product forms inf * 0 and a representable result cannot overflow on the
    way.  Halving is exact in the normal range, so there the bits are those
    of (m + m^dag) / 2, signed zeros included: numpy's complex division by
    2 returns the parts (r + 0 i) / 2 and (i - 0 r) / 2 of the sum r + i j,
    and the signed zeros added last give a zero part the same sign without
    forming 0 * inf.
    """
    h = np.conj(m.swapaxes(-1, -2), order="C")   # dagger(m), row-major
    h.view(float)[...] *= 0.5
    h.real += 0.5 * m.real
    h.imag += 0.5 * m.imag
    real_zero = np.copysign(0.0, h.real)
    h.real += np.copysign(0.0, h.imag)
    h.imag -= real_zero
    return h


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each vector along the last axis of ``v``.

    ``np.linalg.norm`` of a complex 1-D vector is ``sqrt(re.re + im.im)``,
    two ``ddot`` calls; ``np.vecdot`` issues the same ``ddot`` per row, so
    each entry is bit for bit the norm of that row alone.  That holds for
    rows with a positive stride: ``np.linalg.norm`` sums a reversed view in
    memory order.
    """
    re, im = v.real, v.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


# Modulus above which an entry counts as a vector's leading entry.  Local
# rather than a Tolerances field: no caller sets it.
_PHASE_TOL = 1e-12
# Eigenvalues within this of the largest count as tied for the top
# eigenvector.  Local for the same reason: no caller ever set another value.
_TIE_TOL = 1e-12


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate each vector's global phase so its first non-negligible entry is real positive.

    ``v`` is one vector or a stack of them along the last axis; a vector
    with no entry above ``_PHASE_TOL`` in modulus is returned unchanged.
    """
    rows = v.reshape(-1, v.shape[-1])
    mag = np.abs(rows)
    lead = np.arange(len(rows)), np.argmax(mag > _PHASE_TOL, axis=-1)
    lead_mag = mag[lead]
    found = lead_mag > _PHASE_TOL
    out = rows.copy()
    out[found] = rows[found] * (lead_mag[found] / rows[lead][found])[:, None]
    return out.reshape(v.shape)


def top_eigenvector(m: np.ndarray):
    """Largest eigenvalue and a deterministically chosen top eigenvector of one operator.

    Among eigenvectors whose eigenvalue is within ``_TIE_TOL`` of the maximum,
    the phase-canonical vector with the lexicographically largest real part
    is selected, so degenerate inputs still give a reproducible answer.

    ``m`` is one ``(d, d)`` operator with d >= 1, and the result is
    ``(float, vector)``.  Any other shape, a stack of operators included,
    raises :class:`DimensionMismatch`.  ``LinAlgError`` is raised when the
    eigensolver does not converge or the top eigenpair is not finite (a NaN
    or infinite entry, or a top eigenvalue beyond the float range).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatch(f"top_eigenvector needs a (d, d) operator with d >= 1, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite part fails the check below
        h = hermitian_part(m)
    w, v = np.linalg.eigh(h)
    top = w[-1]
    if not (np.isfinite(top) and np.isfinite(v[:, -1]).all()):
        raise LinAlgError("top eigenpair is not finite")
    candidates = _canonical_phase(v[:, w >= top - _TIE_TOL].T)
    keys = [tuple(np.round(vec.real, 12)) for vec in candidates]
    return float(top), candidates[max(range(len(keys)), key=keys.__getitem__)]


def partial_transpose(m: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Transpose the second tensor factor of an operator on C^dA (x) C^dB.

    Implemented as an index permutation, so applying it twice returns the
    input bit-exactly and the diagonal (hence the trace) is untouched.
    """
    m = np.asarray(m, dtype=complex)
    dim = d_a * d_b
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"matrix shape {m.shape} does not match dims ({d_a}, {d_b})")
    return m.reshape(d_a, d_b, d_a, d_b).transpose(0, 3, 2, 1).reshape(dim, dim).copy()
