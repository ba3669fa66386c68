"""Certification of product-basis properties.

Covers orthonormality and rank checks, the complement projector, and the
numerical unextendibility test: a seeded see-saw maximization of the product
overlap with the complement, which advances every restart together through
one factorization of the operator's positive part by power steps, with no
eigensolver in the loop.  From pass 40 on, each pass also tries one
extrapolation step along the restart's last pass and keeps it only when it
raises the objective, which cuts the tail of restarts that climb slowly.
One front end, ``_checked_complement``, decides which bases ``check_upb``
and the bound-entanglement pipeline accept, and ``_complement`` which form
of the complement both run the see-saw on: the closed form that the Tiles
argument gives a tile-type basis, sum_t u_t u_t^T - s s^T over the uniform
tile states u_t and the stopper s, once a certificate bounds its distance
from the complement of the span by 1e-12; for any other basis, the
orthonormal QR factor of the complement.  The spectrum check runs on the
Gram matrix, so ``check_upb`` solves no D x D eigenproblem.  The see-saw is cross-checked at
small dimensions by a brute-force grid oracle that never iterates the
see-saw path.  The oracle
prunes in two stages.  It bounds each grid state's top eigenvalue by its
trace and Frobenius norm (Wolkowicz-Styan) and keeps the states whose bound
reaches the best solved value within a rounding slack.  For dB = 3, where
that bound is loose, it then solves the kept state with the largest
closed-form (Smith) eigenvalue estimate and drops every state whose
mu I - H, mu the best solved value less the slack, is certified positive
definite by its characteristic polynomial's coefficients with a rounding
error bound.  Since the eigensolver treats each operator of a stack on its
own, the maximum is bit-identical to solving every grid state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain
from typing import NamedTuple

import numpy as np

from .basis import ProductBasis, ProductState, _require_local_dims
from .config import TOLERANCES, Tolerances
from .errors import (
    CountMismatch,
    DimensionMismatch,
    DimensionTooLarge,
    InvalidProjector,
    NonMonotoneSeesaw,
    NonOrthonormalInput,
)
from .linalg import _canonical_phase, _row_norms, dagger, hermitian_part
from .sampling import starting_pairs

__all__ = [
    "Verdict",
    "GramDeviations",
    "SeesawResult",
    "GridOracleResult",
    "VerificationReport",
    "gram_matrix",
    "check_orthonormal",
    "complement_projector",
    "seesaw_max_product_overlap",
    "grid_oracle_max_product_overlap",
    "overlap_verdict",
    "check_upb",
    "basis_set_equal_up_to_phase",
]


class Verdict(str, Enum):
    COMPLETE_BASIS = "CompleteBasis"
    UPB_NUMERIC = "UPB_Numeric"
    EXTENDIBLE = "Extendible"
    INCONCLUSIVE = "Inconclusive"


class GramDeviations(NamedTuple):
    max_offdiag: float
    max_diag_error: float


@dataclass(frozen=True)
class SeesawResult:
    value: float
    witness: ProductState
    restarts_used: int
    iterations_total: int
    capped_restarts: int    # restarts still improving at _SEESAW_MAX_ITERATIONS


@dataclass(frozen=True)
class GridOracleResult:
    value: float
    gap_bound: float


@dataclass(frozen=True)
class VerificationReport:
    gram_max_offdiag: float
    gram_max_diag_error: float
    span_rank: int
    complement_dim: int
    max_product_overlap: float
    witness_state: ProductState | None
    verdict: Verdict
    restarts_used: int
    iterations_total: int
    seed: int
    capped_restarts: int    # see SeesawResult; 0 when the see-saw is skipped


def gram_matrix(basis: ProductBasis) -> np.ndarray:
    """Global Gram matrix G_ij = <a_i|a_j><b_i|b_j>."""
    if len(basis) == 0:
        raise CountMismatch("basis is empty")
    a = basis.a_matrix()
    b = basis.b_matrix()
    g = dagger(a) @ a
    g *= dagger(b) @ b   # in place: one N x N temporary fewer
    return g


def _deviations(g: np.ndarray) -> GramDeviations:
    n = len(g)
    # the flat entries after g[0, 0], in rows of n + 1, are n off-diagonal
    # entries and then the next diagonal one: a view of every off-diagonal
    # entry, with no N x N copy
    off = g.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    return GramDeviations(
        max_offdiag=float(np.max(np.abs(off))) if n > 1 else 0.0,
        max_diag_error=float(np.max(np.abs(np.diag(g) - 1.0))),
    )


def check_orthonormal(basis: ProductBasis, tol: float | None = None):
    """True iff max|Gram - I| <= tol; the deviations are returned either way."""
    tol = TOLERANCES.orthonormality if tol is None else tol
    dev = _deviations(gram_matrix(basis))
    return max(dev) <= tol, dev


def _require_orthonormal(basis: ProductBasis, tol: float | None = None):
    """The Gram matrix and its deviations ``(g, dev)``, after checking max|Gram - I| <= tol."""
    tol = TOLERANCES.orthonormality if tol is None else tol
    g = gram_matrix(basis)
    dev = _deviations(g)
    if not max(dev) <= tol:
        raise NonOrthonormalInput(
            f"basis is not orthonormal (max deviation {max(dev):.3e})",
            deviation=max(dev),
        )
    return g, dev


def _top_gram_eigenvalue(g: np.ndarray, limit: float) -> float:
    """lambda_max(G) of a Gram matrix, or an upper bound on it that is at most ``limit``.

    The Gershgorin bound, the largest row sum of |G_ij|, decides first: when
    it is at most ``limit``, so is lambda_max(G), and the bound is returned.
    Only when it exceeds ``limit`` does ``eigvalsh`` solve the N x N matrix,
    and its top eigenvalue is returned.
    """
    bound = float(np.max(np.sum(np.abs(g), axis=1)))
    if bound <= limit:
        return bound
    return float(np.linalg.eigvalsh(g)[-1])


def complement_projector(basis: ProductBasis) -> np.ndarray:
    """I - V V^dag for the global matrix V of an orthonormal basis.

    Its trace D - tr(V^dag V) carries the norm errors of the states, and
    its spectrum is 1 - lambda(G) on the span and 1 on the complement.
    """
    _require_orthonormal(basis)
    v = basis.global_matrix()
    return hermitian_part(np.eye(basis.dim, dtype=complex) - v @ dagger(v))


def _check_operator_interval(q: np.ndarray, d_a: int, d_b: int):
    """Hermitian part of ``q`` and its eigenpairs ``(q, w, v)``, after checking 0 <= q <= I.

    The slack of both checks is ``TOLERANCES.operator_interval``.
    """
    _require_local_dims(d_a, d_b)
    q = np.asarray(q, dtype=complex)
    dim = d_a * d_b
    if q.shape != (dim, dim):
        raise DimensionMismatch(f"operator shape {q.shape} does not match dims ({d_a}, {d_b})")
    slack = TOLERANCES.operator_interval
    # written so that NaN fails each check
    if not float(np.max(np.abs(q - dagger(q)))) <= slack:
        raise InvalidProjector("operator is not Hermitian within tolerance")
    q = hermitian_part(q)
    w, v = np.linalg.eigh(q)
    if not (w[0] >= -slack and w[-1] <= 1.0 + slack):
        raise InvalidProjector(f"spectrum [{w[0]:.3e}, {w[-1]:.3e}] outside [0, 1]")
    return q, w, v


# Rounding slack of the see-saw: how far a half step may lower the objective,
# and how close to the best value a restart must be to supply the witness.
# seesaw_max_product_overlap runs on Q scaled to unit top eigenvalue, so
# there both slacks and the stop rule below are relative to lambda_max(Q).
_SEESAW_SLACK = 1e-12
# A restart stops once one iteration improves it by less than _SEESAW_STOP,
# or after _SEESAW_MAX_ITERATIONS iterations.  Both are local because no
# caller sets them; the certification margin is Tolerances.upb_margin.
_SEESAW_STOP = 1e-12
_SEESAW_MAX_ITERATIONS = 10_000
# Power steps per half step, local for the same reason: a d x d contracted
# operator M is applied _POWER_STEPS times when d <= 3 and _LONG_POWER_STEPS
# times when d >= 4, then the image is normalised once.  More steps mean
# fewer iterations but more matmuls in each.  With one normalisation per half
# step, 8 steps made the tile certifications (d >= 4) about 15% faster than
# 4, while on 2 x 2 and 2 x 3 operators (d <= 3) they cost about 10%.  The
# count depends on d alone, so each row stays independent of its batch.
_POWER_STEPS = 4
_LONG_POWER_STEPS = 8
# The see-saw's extrapolation step (see seesaw_max_product_overlap) is tried
# on every pass from index _EXTRAPOLATE_FROM on, with a step size per row
# that starts at _BETA_START, grows by _BETA_GROW on a kept step up to
# _BETA_MAX and shrinks by _BETA_SHRINK on a rejected one down to _BETA_MIN.
# Local like the step counts: no caller sets them.  Every restart that stops
# before pass 40 keeps the bits it had without the step, the whole
# golden-digest corpus included; a switch at pass 16 changes those digests.
_EXTRAPOLATE_FROM = 40
_BETA_START = 1.0
_BETA_GROW = 1.5
_BETA_MAX = 50.0
_BETA_SHRINK = 0.5
_BETA_MIN = 0.5
# Smallest image norm that a half step divides by: sqrt of the smallest
# normal float, so the squared norm is a normal number and the quotient a
# unit vector to rounding.
_IMAGE_FLOOR = np.sqrt(np.finfo(float).tiny)


def _contract(x: np.ndarray, g_x: np.ndarray, d_out: int) -> np.ndarray:
    """Per-row factors ``<x|G`` of shape (n, d_out, k), one matmul per row.

    ``g_x`` is the factor G of Q = G G^dag with the contracted side as its
    rows.  Rows go through separate matmuls, so a row's result does not
    depend on the other rows of ``x``.
    """
    return (x.conj()[:, None, :] @ g_x).reshape(len(x), d_out, -1)


def _half_step_operators(x: np.ndarray, g_x: np.ndarray, d_out: int) -> np.ndarray:
    """Stack of <x|Q|x> = Y Y^dag over the other side, Y = <x|G, one per row of ``x``."""
    y = _contract(x, g_x, d_out)
    return y @ dagger(y)


class _FactorContractions:
    """The see-saw's contractions of Q = G G^dag, for a factor ``g`` of shape (dA*dB, k); ``rank`` is k."""

    def __init__(self, g: np.ndarray, d_a: int, d_b: int):
        self.g, self.d_a, self.d_b = g, d_a, d_b
        self.rank = k = g.shape[1]
        g = g.reshape(d_a, d_b, k)
        self.g_a = g.reshape(d_a, d_b * k)                      # rows: A side
        self.g_b = g.transpose(1, 0, 2).reshape(d_b, d_a * k)   # rows: B side

    def a_side(self, b: np.ndarray) -> np.ndarray:
        """Stack of the dA x dA operators <b|Q|b>, one per row of ``b``."""
        return _half_step_operators(b, self.g_b, self.d_a)

    def b_side(self, a: np.ndarray) -> np.ndarray:
        """Stack of the dB x dB operators <a|Q|a>, one per row of ``a``."""
        return _half_step_operators(a, self.g_a, self.d_b)

    def values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """<a (x) b|Q|a (x) b> for each row pair."""
        z = (b.conj()[:, None, :] @ _contract(a, self.g_a, self.d_b))[:, 0]
        return np.sum(z.real ** 2 + z.imag ** 2, axis=-1)

    def projector(self) -> np.ndarray:
        """Q = G G^dag."""
        return self.g @ dagger(self.g)


def _tile_weights(x: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """|<v_t|x>|^2 for the real rows v_t of ``vectors`` (T+1, d) and each row of ``x``.

    Each row of ``x``, viewed as its (d, 2) real and imaginary parts, goes
    through one (T+1, d) x (d, 2) matmul of its own, so a row's result does
    not depend on the other rows.
    """
    y = vectors @ np.ascontiguousarray(x).view(float).reshape(len(x), -1, 2)
    return y[:, :, 0] ** 2 + y[:, :, 1] ** 2


class _TileContractions:
    """The see-saw's contractions of Q = sum_t u_t u_t^T - s s^T for the tiles of a tile-type basis.

    Tile t is the rectangle S_A x S_B of the grid, u_t = alpha_t (x) beta_t
    the uniform product state on it and s = sigma_A (x) sigma_B the uniform
    stopper, s = sum_t c_t u_t with c_t = sqrt(|t| / D).  ``alpha`` (T+1, dA)
    holds the real unit vectors alpha_t as rows and sigma_A last, ``beta``
    (T+1, dB) likewise.  With ``b`` fixed the A-side operator is

        M_a(b) = sum_t |<beta_t|b>|^2 alpha_t alpha_t^T - |<sigma_B|b>|^2 sigma_A sigma_A^T,

    its weight vector times the (T+1, dA^2) table of the outer products
    alpha_t alpha_t^T, whose stopper row is negated: two matmuls per row.
    The B side is symmetric.  Each operator is real and is cast to complex
    once for the power steps.  It is positive semidefinite only up to
    rounding, because the stopper term is subtracted: since Q is a
    projector, its eigenvalues lie in [0, 1] within a few units of rounding.
    Its ``rank`` is T - 1.  :meth:`projector` forms Q itself from the same
    vectors, for the complement state of :mod:`prodbasis.boundent`.
    """

    def __init__(self, alpha: np.ndarray, beta: np.ndarray, c: np.ndarray):
        self.alpha, self.beta, self.c = alpha, beta, c
        self.d_a, self.d_b = alpha.shape[1], beta.shape[1]
        self.rank = len(c) - 1
        self.sign = np.ones(len(alpha))
        self.sign[-1] = -1.0
        self.a_outer = self._outer(alpha)
        self.b_outer = self._outer(beta)

    def _outer(self, vectors: np.ndarray) -> np.ndarray:
        d = vectors.shape[1]
        return (vectors[:, :, None] * vectors[:, None, :]).reshape(-1, d * d) * self.sign[:, None]

    @staticmethod
    def _operators(w: np.ndarray, outer: np.ndarray, d: int) -> np.ndarray:
        return (w[:, None, :] @ outer).reshape(len(w), d, d).astype(complex)

    def a_side(self, b: np.ndarray) -> np.ndarray:
        """Stack of the dA x dA operators M_a(b) = <b|Q|b>, one per row of ``b``."""
        return self._operators(_tile_weights(b, self.beta), self.a_outer, self.d_a)

    def b_side(self, a: np.ndarray) -> np.ndarray:
        """Stack of the dB x dB operators M_b(a) = <a|Q|a>, one per row of ``a``."""
        return self._operators(_tile_weights(a, self.alpha), self.b_outer, self.d_b)

    def values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """<a (x) b|Q|a (x) b> for each row pair."""
        return np.sum(_tile_weights(a, self.alpha) * _tile_weights(b, self.beta) * self.sign, axis=-1)

    def projector(self) -> np.ndarray:
        """Q = U U^T - s s^T as a complex (D, D) matrix, for U the u_t as columns and s = U c."""
        u = (self.alpha[:-1].T[:, None, :] * self.beta[:-1].T[None, :, :]).reshape(-1, len(self.c))
        s = u @ self.c
        return (u @ u.T - np.outer(s, s)).astype(complex)


def _tile_layout(basis: ProductBasis):
    """The tiles of a tile-type basis as boolean masks ``(cols, rows)``, or None.

    Decided from the tile cells alone: every state has them, exactly one
    state's cells cover the grid (the stopper), the other states' distinct
    cell sets are nonempty rectangles S_A x S_B that partition the grid,
    and N = D - T + 1 for T tiles.  Row t of ``cols`` (T, dA) and of ``rows``
    (T, dB) marks S_A and S_B of tile t, the tiles in order of first
    appearance.
    """
    cells = basis.tile_cells
    dim = basis.dim
    if None in cells:
        return None
    sizes = list(map(len, cells))
    if sizes.count(dim) != 1:
        return None
    tiles = dict.fromkeys(cells)
    del tiles[cells[sizes.index(dim)]]
    count = len(tiles)
    sizes = np.fromiter(map(len, tiles), dtype=np.intp, count=count)
    if len(basis) != dim - count + 1 or sizes.sum() != dim or not sizes.all():
        return None
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(tiles)), dtype=np.intp, count=2 * dim)
    col, row = flat.reshape(dim, 2).T
    # D cells inside the grid cover it iff no cell repeats
    if not np.all(np.bincount(col * basis.d_b + row, minlength=dim) == 1):
        return None
    owner = np.repeat(np.arange(count), sizes)
    cols = np.zeros((count, basis.d_a), dtype=bool)
    rows = np.zeros((count, basis.d_b), dtype=bool)
    cols[owner, col] = True
    rows[owner, row] = True
    if not np.array_equal(cols.sum(axis=1) * rows.sum(axis=1), sizes):
        return None
    return cols, rows


def _complement(basis: ProductBasis) -> _TileContractions | _FactorContractions:
    """The see-saw's operand for the complement of the basis span: the only code that picks its form.

    A tile-type basis (:func:`_tile_layout`) gets the tile form
    :class:`_TileContractions` when its certificate holds.  With O_ti =
    <alpha_t|a_i><beta_t|b_i> = <u_t|v_i> (T x N) and c_t = sqrt(|t| / D),
    eps = ||(I - c c^T) O||_F equals ||Q_c V||_F for the tile complement
    Q_c = U (I - c c^T) U^T.  Q_c and the projector onto the complement of
    the span both have rank D - N, so eps bounds how far apart they are, and
    the tile form is used only when eps is at most the see-saw's rounding
    slack (1e-12).  Every other basis gets :class:`_FactorContractions` over
    F, the trailing D - N columns of the complete QR of the global matrix V,
    so F F^dag is the complement projector and no D x D eigensolver runs.
    Either form has Q with unit top eigenvalue, and its ``projector()``
    forms Q as a D x D matrix.
    """
    layout = _tile_layout(basis)
    if layout is not None:
        cols, rows = layout
        n_a, n_b = cols.sum(axis=1), rows.sum(axis=1)
        alpha = np.empty((len(cols) + 1, basis.d_a))
        beta = np.empty((len(rows) + 1, basis.d_b))
        alpha[:-1] = cols / np.sqrt(n_a)[:, None]
        beta[:-1] = rows / np.sqrt(n_b)[:, None]
        alpha[-1] = 1.0 / np.sqrt(basis.d_a)
        beta[-1] = 1.0 / np.sqrt(basis.d_b)
        c = np.sqrt(n_a * n_b / basis.dim)
        o = (alpha[:-1] @ basis.a_matrix()) * (beta[:-1] @ basis.b_matrix())
        if float(np.linalg.norm(o - np.outer(c, c @ o))) <= _SEESAW_SLACK:  # NaN fails
            return _TileContractions(alpha, beta, c)
    q, _ = np.linalg.qr(basis.global_matrix(), mode="complete")
    return _FactorContractions(np.ascontiguousarray(q[:, len(basis):]), basis.d_a, basis.d_b)


def _checked_complement(basis: ProductBasis, tol: float | None = None):
    """The input decision of both certify pipelines: ``(deviations, complement or None)``.

    After the orthonormality check with ``tol``, a complete basis gives
    None.  Otherwise Q = I - V V^dag, whose eigenvalues are 1 - lambda(G)
    and 1, must lie in [0, 1] within ``TOLERANCES.operator_interval``, as
    decided on the Gram matrix G, else :class:`InvalidProjector`.
    """
    g, dev = _require_orthonormal(basis, tol)
    if len(basis) == basis.dim:
        return dev, None
    limit = 1.0 + TOLERANCES.operator_interval
    top = _top_gram_eigenvalue(g, limit)
    if not top <= limit:
        raise InvalidProjector(f"spectrum [{1.0 - top:.3e}, {1.0:.3e}] outside [0, 1]")
    return dev, _complement(basis)


def _power_steps(m: np.ndarray, x: np.ndarray):
    """x <- M^s x / ||M^s x|| on each row, then the values <x|M|x>.

    ``m`` is a stack of positive semidefinite d x d operators and ``x`` the
    unit vectors they act on, one per row.  The tile form's operators are
    positive semidefinite only up to rounding, because its stopper term is
    subtracted; a step can then lower <x|M|x> by a few units of rounding,
    far inside the see-saw's ascent slack.  M is applied s times with no
    scaling in between, s = ``_POWER_STEPS`` (4) for d <= 3 and
    ``_LONG_POWER_STEPS`` (8) for d >= 4, and the image is normalised once,
    which in exact arithmetic is the iterate of s normalised power steps, so
    <x|M|x> does not drop.  The see-saw's operators have ||M|| <= 1 to
    rounding, because its Q has unit top eigenvalue, so M^s x cannot
    overflow.  A row whose image norm is below ``_IMAGE_FLOOR`` (about
    1.5e-154) keeps its vector and so the value it had, M^s x = 0
    included: below that floor the squared norm is subnormal, and the
    quotient could miss unit norm far beyond rounding.
    Since ||M^s x|| >= ||Mx||^s >= <x|M|x>^s for a unit x, a kept row has
    ||Mx|| and <x|M|x> below about 3.5e-39 for 4 steps and 5.9e-20 for 8;
    M^s x itself underflows to 0 only when ||Mx|| is below about 1.5e-81 for
    4 steps and 3.9e-41 for 8.  Each matmul is batched over rows and s
    depends on d alone, so a row's result does not depend on the other rows.
    """
    steps = _POWER_STEPS if m.shape[-1] <= 3 else _LONG_POWER_STEPS
    y = x[:, :, None]
    for _ in range(steps):
        y = m @ y
    y = y[:, :, 0]
    norm = _row_norms(y)[:, None]
    x = np.divide(y, norm, out=x.copy(), where=norm >= _IMAGE_FLOOR)
    return np.vecdot(x, (m @ x[:, :, None])[:, :, 0]).real, x


def _extrapolated(x0: np.ndarray, x1: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(x1 + beta (x1 - x0)) / ||.|| on each row, for unit rows with <x0|x1> >= 0.

    Then ||(1 + beta) x1 - beta x0||^2 = 1 + 2 beta (1 + beta) (1 - <x0|x1>)
    is at least 1, so no row divides by a small norm.
    """
    x = x1 + beta[:, None] * (x1 - x0)
    return x / _row_norms(x)[:, None]


def _extrapolate(q, a0, b0, a1, b1, value, beta):
    """One extrapolation try on each row: ``(a, b, value, beta)`` after it.

    ``(a0, b0)`` went to ``(a1, b1)`` with value ``value`` in the plain
    pass.  A half step applies an even power of a positive semidefinite
    operator, so <x0|x1> >= 0 and the two iterates need no phase alignment.
    A row keeps the candidate pair only when its value is strictly above
    ``value`` (so NaN rejects it), and its ``beta`` grows on a kept
    candidate and shrinks on a rejected one.  Every operation is per row.
    """
    a_e, b_e = _extrapolated(a0, a1, beta), _extrapolated(b0, b1, beta)
    value_e = q.values(a_e, b_e)
    kept = value_e > value
    return (np.where(kept[:, None], a_e, a1), np.where(kept[:, None], b_e, b1),
            np.where(kept, value_e, value),
            np.where(kept, np.minimum(beta * _BETA_GROW, _BETA_MAX), np.maximum(beta * _BETA_SHRINK, _BETA_MIN)))


def _require_ascent(before: np.ndarray, half: np.ndarray, after: np.ndarray) -> None:
    """Raise :class:`NonMonotoneSeesaw` if a half step of the pass lowered a row beyond the slack.

    ``fmax`` skips NaN, so a row fails exactly when one of its two drops
    exceeds the slack, and the message names the largest such drop.
    """
    worst = np.fmax.reduce(np.fmax(before - half, half - after))
    if worst > _SEESAW_SLACK:
        raise NonMonotoneSeesaw(f"see-saw objective decreased by {float(worst):.3e}")


def seesaw_max_product_overlap(
    q: np.ndarray,
    d_a: int,
    d_b: int,
    restarts: int = 100,
    seed: int = 0,
) -> SeesawResult:
    """Maximize <a (x) b|Q|a (x) b> by alternating power steps.

    With ``b`` fixed, the objective is <a|M|a> for the contracted dA x dA
    operator M = <b|Q|b>, and symmetrically for ``a``.  Each half step
    applies M s times to the restart's current vector and normalises once,
    a <- M^s a/||M^s a||, which in exact arithmetic is s power steps
    a <- Ma/||Ma||; its value is the final Rayleigh quotient <a|M|a>.  The
    step count s depends on M's dimension d alone: 4 for d <= 3
    (``_POWER_STEPS``) and 8 for d >= 4 (``_LONG_POWER_STEPS``).  A power
    step on a positive semidefinite operator never lowers the Rayleigh
    quotient, so the objective never decreases (checked once per pass, over
    both half steps: a drop beyond 1e-12 lambda_max(Q) raises
    :class:`NonMonotoneSeesaw`, naming the largest drop), and the
    stationary points are those of exact partial maximization: the
    higher-order power method of De Lathauwer, De Moor and Vandewalle, SIAM
    J. Matrix Anal. Appl. 21, 1324 (2000).  No eigensolver runs.

    Q must be Hermitian with its spectrum in [0, 1], up to
    ``TOLERANCES.operator_interval`` as read at the call, or
    :class:`InvalidProjector` is raised.  The see-saw maximizes over the
    positive part Q+ of Q, which it factors once, from the
    eigendecomposition that checks the spectrum, over the eigenpairs above
    the numerical rank cut D*eps*max|w|.  It runs on Q+ scaled to unit top
    eigenvalue, as G G^dag with G = V+ sqrt(w+ / w_max) for w_max the top
    eigenvalue, and multiplies the value it finds by w_max; a Q with no
    eigenpair kept (the zero operator) runs unscaled.  Every contracted
    operator Y Y^dag, with Y = <b|G of size dA x k or <a|G of size dB x k,
    is then positive semidefinite, as the power steps need (on an indefinite
    M a power step can lower the Rayleigh quotient), and has norm at most 1.
    So M^s a cannot overflow, and a row keeps its vector because its image
    M^s a is below about 1.5e-154 in norm, zero included, only when
    <a|M|a> is below about 3.5e-39 w_max for 4 steps and 5.9e-20 w_max for
    8.  Q+ >= Q, so the maximum over Q+ is at least the one over Q and
    exceeds it by at most the modulus of Q's most negative eigenvalue,
    which the check bounds by the operator-interval slack: the error lies
    on the safe side of a ``UPB_Numeric`` verdict.  All restarts advance
    together: each half step is one stacked contraction, one batched matmul
    for M and one per power step over the restarts still active, and a
    restart leaves the active set once one iteration improves it by less
    than 1e-12 lambda_max(Q) (``_SEESAW_STOP`` on the scaled operator), or
    after 10 000 iterations (``_SEESAW_MAX_ITERATIONS``);
    ``capped_restarts`` counts the restarts the cap stopped.  The active
    restarts' vectors and values live in compact working arrays, so a
    stopped restart is never stepped again.

    A restart still climbing at pass index 40 (``_EXTRAPOLATE_FROM``,
    0-based) is probably in the slow tail of the alternation, which converges
    linearly at a rate close to 1.  From that pass on, each pass that took a
    restart from (a0, b0) to (a1, b1) with value v1 also evaluates the
    candidate pair a_e = (a1 + beta (a1 - a0)) / ||.||,
    b_e = (b1 + beta (b1 - b0)) / ||.|| and keeps it only when its value is
    strictly above v1, so a NaN value rejects it: the extrapolation of
    Rajih, Comon and Harshman, SIAM J. Matrix Anal. Appl. 30, 1128 (2008).
    Each restart has its own beta: it starts at 1, is multiplied by 1.5 on a
    kept candidate (at most 50) and halved on a rejected one (at least 0.5).
    A half step applies an even power of a positive semidefinite M, so
    <x0|x1> >= 0: the two iterates need no phase alignment, and the norm
    that normalises a candidate is at least 1.  The ascent check reads the plain half steps, a kept
    candidate only raises the value, and the stop rule reads the gain of the
    whole pass.  The switch reads the pass index alone, which every active
    restart shares, so it keeps each restart independent of its batch.

    Restart ``r`` starts from a rotation-invariant pair drawn from the
    counter-seeded stream ``stream(seed, r)``.  One bit generator, re-keyed
    per restart, draws every pair (:func:`~prodbasis.sampling.starting_pairs`),
    with the same bits as separate streams.  A restart's trajectory does
    not depend on which other restarts share its batch.  The witness comes
    from the lowest-index restart whose value is within 1e-12 lambda_max(Q)
    of the best, so rounding noise among restarts that reach the same
    optimum does not pick it, and the outcome does not depend on execution
    order.  Its two factors get a canonical global phase: the first entry
    above 1e-12 in modulus is real and positive.
    """
    _, w, v = _check_operator_interval(q, d_a, d_b)
    keep = w > w.size * np.finfo(float).eps * np.max(np.abs(w))
    w_max = float(w[-1]) if keep.any() else 1.0
    g = v[:, keep] * np.sqrt(w[keep] / w_max)
    result = _seesaw(_FactorContractions(g, d_a, d_b), restarts, seed)
    return replace(result, value=result.value * w_max)


def _seesaw(q, restarts, seed) -> SeesawResult:
    """The see-saw on the contractions ``q`` of an operator Q with lambda_max(Q) = 1.

    ``q`` is a :class:`_FactorContractions` or a :class:`_TileContractions`,
    and the see-saw reads the local dimensions from it.
    :func:`seesaw_max_product_overlap` passes the factor of its checked Q's
    positive part scaled to unit top eigenvalue; ``check_upb`` passes the
    complement that :func:`_complement` chose; the range criterion passes
    its state's range operand (:class:`prodbasis.boundent.DensityMatrix`),
    which is that complement for a state from
    :func:`prodbasis.boundent.upb_density_state`.  Since
    lambda_max(Q) = 1, every contracted operator has norm at most 1 (to
    rounding), and the stop rule, the ascent slack and the witness tie,
    absolute on Q, are relative to the caller's lambda_max(Q).  Each half
    step forms its contracted operators, as Y Y^dag on a factor, positive
    semidefinite by construction, or from the tile tables, and applies each
    d x d operator 4 times for d <= 3 and 8 times for d >= 4
    (:func:`_power_steps`).  From pass index ``_EXTRAPOLATE_FROM`` on, a
    pass then tries one extrapolation step on each row (:func:`_extrapolate`).

    Row ``i`` of the working arrays ``a_w``, ``b_w``, ``value_w`` and
    ``beta_w`` is restart ``rows[i]``.  A pass steps every working row,
    checks the ascent of both half steps in one test, and compacts the
    arrays only when some restart stops; the stopped rows are first written back to
    ``a``, ``b`` and ``value``.  The rows still active at the iteration
    cap are written back after the loop.  Each row goes through the same
    arithmetic as it would alone, so the result does not depend on when
    the arrays are compacted.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")

    a, b = starting_pairs(seed, restarts, q.d_a, q.d_b)
    value = q.values(a, b)

    rows = np.arange(restarts)
    a_w, b_w, value_w = a, b, value
    beta_w = np.full(restarts, _BETA_START)
    iterations_total = 0
    for index in range(_SEESAW_MAX_ITERATIONS):
        a_0, b_0 = a_w, b_w
        half, a_w = _power_steps(q.a_side(b_w), a_w)
        new_value, b_w = _power_steps(q.b_side(a_w), b_w)
        _require_ascent(value_w, half, new_value)
        if index >= _EXTRAPOLATE_FROM:
            a_w, b_w, new_value, beta_w = _extrapolate(q, a_0, b_0, a_w, b_w, new_value, beta_w)
        iterations_total += rows.size
        stopped = new_value - value_w < _SEESAW_STOP     # a NaN improvement stops nothing
        value_w = new_value
        if stopped.any():
            done = rows[stopped]
            a[done], b[done], value[done] = a_w[stopped], b_w[stopped], value_w[stopped]
            going = ~stopped
            rows, a_w, b_w, value_w, beta_w = rows[going], a_w[going], b_w[going], value_w[going], beta_w[going]
            if rows.size == 0:
                break
    a[rows], b[rows], value[rows] = a_w, b_w, value_w

    best = int(np.argmax(value >= np.max(value) - _SEESAW_SLACK))
    return SeesawResult(
        value=float(value[best]),
        witness=ProductState(_canonical_phase(a[best]), _canonical_phase(b[best]), label="witness"),
        restarts_used=restarts,
        iterations_total=iterations_total,
        capped_restarts=int(rows.size),
    )


def _bloch_grid(resolution: int) -> np.ndarray:
    """All qubit states (cos(t/2), e^{i p} sin(t/2)) on a (theta, phi) grid."""
    thetas = np.linspace(0.0, np.pi, resolution)
    phis = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    states = np.empty((resolution, resolution, 2), dtype=complex)   # (theta, phi, amplitude)
    states[:, :, 0] = np.cos(thetas / 2)[:, None]
    states[:, :, 1] = np.sin(thetas / 2)[:, None] * np.exp(1j * phis)
    return states.reshape(-1, 2)


# Rounding slack of the grid oracle's pruning.  Let M = <a|Q|a> (d x d),
# H = (M + M^dag)/2 the operator eigvalsh solves, and t = tr H = Re tr M.
# Then lambda_max(H) <= t/d + sqrt((d-1)/d * (||H||_F^2 - t^2/d)) (Wolkowicz
# and Styan, Linear Algebra Appl. 29, 471 (1980)), and ||H||_F <= ||M||_F
# only raises the right side.  In floating point, the 2d^2 squares summed
# into ||M||_F^2, the d-term trace in t^2/d, their difference and its
# (d-1)/d scaling err by at most (2d^2 + 2d + 3) u ||M||_F^2 (u = eps/2).
# For d <= 3 that is below the 16 d u ||M||_F^2 = _GRID_FRO_SLACK * d *
# ||M||_F^2 added inside the square root, so cancellation cannot cut the
# bound.  _GRID_VALUE_SLACK covers what is left, each O(d eps ||M||) with
# ||M|| <= 1 + operator_interval: the rounded Hermitian part, eigvalsh's
# backward error, t/d and the square root.  So a state whose bound lies
# more than _GRID_VALUE_SLACK below a solved value cannot hold the maximum.
_GRID_FRO_SLACK = 8 * np.finfo(float).eps
_GRID_VALUE_SLACK = 1e-12
#
# For dB = 3 the oracle then drops a state only when A = mu I - H is
# certified positive definite, so that lambda_max(H) < mu.  A Hermitian A is
# positive definite iff the coefficients c1 = tr A, c2 = the sum of its 2x2
# principal minors and c3 = det A of its characteristic polynomial are all
# positive.  Written in the real and imaginary parts of the entries, each
# c_k is a sum of real monomials, and _certified_below evaluates each
# monomial with at most 7 roundings: one for each factor a_i = mu - h_ii,
# the products, and the sums that follow (c3's a0 a1 a2 takes 3 + 2 + 2).
# So the computed c_k errs by at most gamma_7 S_k, where S_k is the sum of
# the monomials' moduli and gamma_7 = 7u / (1 - 7u).  The computed S_k,
# with at most 8 roundings per monomial, is at least (1 - gamma_8) S_k, so
# c_k > _GRID_PD_SLACK * S_k (over twice gamma_7 / (1 - gamma_8)) proves
# c_k > 0.  Entries and mu are at most 1 + operator_interval in modulus,
# so no step overflows, and the absolute errors of gradual underflow, a few
# dozen units of 2^-1075 per coefficient, stay below _GRID_PD_FLOOR.
_GRID_PD_SLACK = 8 * np.finfo(float).eps
_GRID_PD_FLOOR = np.finfo(float).tiny


def _top_eigenvalue_bound(m: np.ndarray) -> np.ndarray:
    """Upper bound on the top eigenvalue of each Hermitian part in a stack."""
    n, d, _ = m.shape
    trace = np.einsum("nii->n", m.real)
    parts = m.view(float).reshape(n, -1)
    fro2 = np.einsum("ij,ij->i", parts, parts)
    spread = (d - 1) / d * (fro2 - trace * trace / d) + _GRID_FRO_SLACK * d * fro2
    return trace / d + np.sqrt(spread)


def _top_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each Hermitian operator in a stack."""
    return np.linalg.eigvalsh(h)[:, -1]


# upper triangle of a 3x3 operator: (0, 1), (0, 2), (1, 2)
_UPPER3 = ((0, 0, 1), (1, 2, 2))


def _entries3(h: np.ndarray):
    """The real quantities of a stack of 3x3 Hermitian operators that its cubic invariants need.

    Returns the diagonal ``d`` (n, 3); the squared moduli ``n`` (n, 3) of
    h01, h02 and h12; ``t`` = Re(h01 h12 h20), formed in real arithmetic
    from 4 real monomials; and ``l1`` (n, 3), the |re| + |im| of h01, h02
    and h12, whose product bounds the sum of those monomials' moduli.
    """
    d = h.real[:, (0, 1, 2), (0, 1, 2)]
    re = h.real[:, _UPPER3[0], _UPPER3[1]]
    im = h.imag[:, _UPPER3[0], _UPPER3[1]]
    n = re * re + im * im
    (r01, r02, r12), (i01, i02, i12) = re.T, im.T
    p_re = r01 * r12 - i01 * i12          # h01 h12
    p_im = r01 * i12 + i01 * r12
    t = p_re * r02 + p_im * i02           # Re(h01 h12 conj(h02))
    return d, n, t, np.abs(re) + np.abs(im)


def _smith_top_eigenvalue(d: np.ndarray, n: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each 3x3 Hermitian operator by Smith's closed form.

    O. K. Smith, Commun. ACM 4, 168 (1961): with q = tr H / 3 and
    p = ||H - qI||_F / sqrt(6), the eigenvalues are
    q + 2p cos((arccos(r) + 2 pi k) / 3) for r = det(H - qI) / (2 p^3).
    An estimate without an error bound: it only picks a state to solve.
    """
    q = d.sum(axis=1) / 3
    e = d - q[:, None]
    p = np.sqrt((np.sum(e * e, axis=1) + 2 * n.sum(axis=1)) / 6)
    det = e.prod(axis=1) + 2 * t - np.sum(e * n[:, ::-1], axis=1)
    two_p3 = 2 * p ** 3
    r = np.divide(det, two_p3, out=np.zeros_like(det), where=two_p3 > 0)
    return q + 2 * p * np.cos(np.arccos(np.clip(r, -1.0, 1.0)) / 3)


def _certified_below(d, n, t, l1, mu: float) -> np.ndarray:
    """True where mu I - H is certified positive definite, so lambda_max(H) < mu.

    Each of the coefficients c1, c2, c3 of the characteristic polynomial of
    A = mu I - H must exceed its rounding-error bound (see _GRID_PD_SLACK);
    a False says nothing.
    """
    a = mu - d
    pairs = a[:, _UPPER3[0]] * a[:, _UPPER3[1]]
    opposite = a * n[:, ::-1]             # a0 |h12|^2, a1 |h02|^2, a2 |h01|^2
    triple = a.prod(axis=1)
    n_sum = n.sum(axis=1)
    c1 = a.sum(axis=1)
    c2 = pairs.sum(axis=1) - n_sum
    c3 = triple - 2 * t - opposite.sum(axis=1)
    s1 = np.abs(a).sum(axis=1)
    s2 = np.abs(pairs).sum(axis=1) + n_sum
    s3 = np.abs(triple) + 2 * l1.prod(axis=1) + np.abs(opposite).sum(axis=1)
    return ((c1 > _GRID_PD_SLACK * s1 + _GRID_PD_FLOOR)
            & (c2 > _GRID_PD_SLACK * s2 + _GRID_PD_FLOOR)
            & (c3 > _GRID_PD_SLACK * s3 + _GRID_PD_FLOOR))


def grid_oracle_max_product_overlap(
    q: np.ndarray,
    d_a: int,
    d_b: int,
    resolution: int = 64,
) -> GridOracleResult:
    """Brute-force lower bound on the product overlap for small dimensions.

    The A side is swept over a discretized Bloch sphere with ``resolution``
    points per angle; for each grid state the B side is maximized exactly as
    the top eigenvalue of the contracted operator <a|Q|a>.  That operator is
    built in two matmuls: one contracts the bra <a| of every grid state
    with Q, a second, batched over grid states, contracts each state's ket
    |a> with its own row of the first product.  Every evaluation is a
    feasible product state, so the result is a certified lower bound of the
    true maximum, and it explores no see-saw trajectory.  The reported gap
    bound is a conservative Lipschitz estimate covering the A-side
    discretization.

    Only grid states that can hold the maximum reach the eigensolver, after
    two stages of pruning.  First, each operator's top eigenvalue is
    bounded by the Wolkowicz-Styan bound
    t/d + sqrt((d-1)/d * (||M||_F^2 - t^2/d)) from its real trace t and
    Frobenius norm, which is exact for dB <= 2.  The state with the largest
    bound is solved, and only states whose bound reaches that value, less a
    rounding slack of 1e-12 (plus 16 dB u ||M||_F^2 inside the square
    root), are kept.  Second, for dB = 3, where the bound is loose, the
    kept state with the largest eigenvalue estimate by Smith's closed form
    is solved too, and a kept state is dropped when mu I - H is certified
    positive definite, for H its Hermitian part and mu the best solved value
    less 1e-12: each coefficient of the characteristic polynomial of
    mu I - H must exceed its rounding-error bound.  No pruned state can
    reach the maximum, and eigvalsh solves each operator of a stack on its
    own, so the value is the same float as a sweep that solves every grid
    state.
    """
    _require_local_dims(d_a, d_b)
    if d_a > 2 or d_b > 3:
        raise DimensionTooLarge(f"grid oracle supports dA <= 2 and dB <= 3, got ({d_a}, {d_b})")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    q, w, _ = _check_operator_interval(q, d_a, d_b)
    if d_a == 1:
        grid = np.ones((1, 1), dtype=complex)
        max_spacing = 0.0
    else:
        grid = _bloch_grid(resolution)
        d_theta = np.pi / (resolution - 1)
        d_phi = 2.0 * np.pi / resolution
        # half-cell chordal radius: |da/dtheta| = 1/2, |da/dphi| <= 1
        max_spacing = np.sqrt((d_theta / 4) ** 2 + (d_phi / 2) ** 2)

    # Q's indices (i, j, k, l) reordered to rows i (bra), columns (k, j, l)
    q_bra = q.reshape(d_a, d_b, d_a, d_b).transpose(0, 2, 1, 3).reshape(d_a, -1)
    bra_q = (grid.conj() @ q_bra).reshape(len(grid), d_a, d_b * d_b)
    m_b = (grid[:, None, :] @ bra_q).reshape(len(grid), d_b, d_b)
    bound = _top_eigenvalue_bound(m_b)
    best = _top_eigenvalues(hermitian_part(m_b[[np.argmax(bound)]]))[0]
    h = hermitian_part(m_b[bound >= best - _GRID_VALUE_SLACK])
    if d_b == 3:
        d, n, t, l1 = _entries3(h)
        best = max(best, _top_eigenvalues(h[[np.argmax(_smith_top_eigenvalue(d, n, t))]])[0])
        h = h[~_certified_below(d, n, t, l1, best - _GRID_VALUE_SLACK)]
    value = float(np.max(_top_eigenvalues(h)))
    lipschitz = 2.0 * float(np.max(np.abs(w)))
    return GridOracleResult(value=value, gap_bound=float(lipschitz * max_spacing))


def overlap_verdict(value: float, *, tol: Tolerances | None = None) -> Verdict:
    """Unextendibility verdict of a see-saw maximum over the complement.

    ``Extendible`` at ``value >= 1 - tol.extendible_margin``, ``UPB_Numeric``
    below ``1 - tol.upb_margin``, ``Inconclusive`` between.
    """
    tol = TOLERANCES if tol is None else tol
    if value >= 1.0 - tol.extendible_margin:
        return Verdict.EXTENDIBLE
    if value < 1.0 - tol.upb_margin:
        return Verdict.UPB_NUMERIC
    return Verdict.INCONCLUSIVE


def check_upb(
    basis: ProductBasis,
    restarts: int = 100,
    seed: int = 0,
    *,
    tol: Tolerances | None = None,
) -> VerificationReport:
    """Full verification pipeline: orthonormality, rank, complement, see-saw.

    Verdicts: ``CompleteBasis`` when the complement is empty (the see-saw is
    skipped), ``Extendible`` when a product state with overlap >= 1 -
    ``tol.extendible_margin`` is found in the complement (witness attached),
    ``UPB_Numeric`` when the best overlap stays below 1 - ``tol.upb_margin``,
    and ``Inconclusive`` in between (see :func:`overlap_verdict`).

    :func:`_checked_complement` decides the input, with ``tol.orthonormality``.
    The see-saw then maximizes over the complement projector, with the fixed
    stop rule and iteration cap of :func:`seesaw_max_product_overlap`, on the
    form of the complement that :func:`_complement` chooses, the tile closed
    form with real contracted operators or the QR factor.  No D x D
    eigensolver runs.
    """
    tol = TOLERANCES if tol is None else tol
    dev, complement = _checked_complement(basis, tol.orthonormality)
    if complement is None:
        value, witness, verdict, restarts_used, iterations, capped = 0.0, None, Verdict.COMPLETE_BASIS, 0, 0, 0
    else:
        result = _seesaw(complement, restarts, seed)
        value, witness = result.value, result.witness
        verdict = overlap_verdict(value, tol=tol)
        restarts_used, iterations, capped = result.restarts_used, result.iterations_total, result.capped_restarts
    return VerificationReport(
        gram_max_offdiag=dev.max_offdiag,
        gram_max_diag_error=dev.max_diag_error,
        span_rank=len(basis),
        complement_dim=basis.dim - len(basis),
        max_product_overlap=value,
        witness_state=witness,
        verdict=verdict,
        restarts_used=restarts_used,
        iterations_total=iterations,
        seed=seed,
        capped_restarts=capped,
    )


def basis_set_equal_up_to_phase(b1: ProductBasis, b2: ProductBasis):
    """Phase-insensitive set equality of two bases.

    Returns ``(True, perm)`` when a permutation pairs every state of ``b1``
    with a state of ``b2`` at |overlap| >= 1 - ``TOLERANCES.set_match``; the
    greedy row argmax is exact here because orthonormal sets admit at most
    one near-unit match per state.  Returns ``(False, None)`` otherwise.
    """
    if (b1.d_a, b1.d_b) != (b2.d_a, b2.d_b):
        raise DimensionMismatch("bases live on different local dimensions")
    if len(b1) != len(b2):
        raise CountMismatch(f"state counts differ: {len(b1)} vs {len(b2)}")
    a_cross = dagger(b1.a_matrix()) @ b2.a_matrix()
    b_cross = dagger(b1.b_matrix()) @ b2.b_matrix()
    overlap = np.abs(a_cross * b_cross)
    perm = overlap.argmax(axis=1)
    matched = all(overlap[i, perm[i]] >= 1.0 - TOLERANCES.set_match for i in range(len(b1)))
    if matched and len(set(int(p) for p in perm)) == len(b1):
        return True, tuple(int(p) for p in perm)
    return False, None
