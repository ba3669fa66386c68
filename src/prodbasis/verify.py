"""Certification of product-basis properties.

Covers orthonormality and rank checks, the complement projector, and the
numerical unextendibility test: a seeded see-saw maximization of the product
overlap with the complement, which advances every restart together through
one factorization of the operator by power steps, with no eigensolver in
the loop, cross-checked at small dimensions by a
brute-force grid oracle that never iterates the see-saw path.  The oracle
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

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .basis import ProductBasis, ProductState
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
    return (dagger(a) @ a) * (dagger(b) @ b)


def check_orthonormal(basis: ProductBasis, tol: float | None = None):
    """True iff max|Gram - I| <= tol; the deviations are returned either way."""
    tol = TOLERANCES.orthonormality if tol is None else tol
    g = gram_matrix(basis)
    off = g - np.diag(np.diag(g))
    dev = GramDeviations(
        max_offdiag=float(np.max(np.abs(off))) if len(basis) > 1 else 0.0,
        max_diag_error=float(np.max(np.abs(np.diag(g) - 1.0))),
    )
    return max(dev.max_offdiag, dev.max_diag_error) <= tol, dev


def _require_orthonormal(basis: ProductBasis, tol: float | None = None) -> GramDeviations:
    ok, dev = check_orthonormal(basis, tol)
    if not ok:
        raise NonOrthonormalInput(
            f"basis is not orthonormal (max deviation {max(dev):.3e})",
            deviation=max(dev),
        )
    return dev


def _complement_of_checked(basis: ProductBasis) -> np.ndarray:
    """Complement projector of a basis already known to be orthonormal."""
    v = basis.global_matrix()
    return hermitian_part(np.eye(basis.dim, dtype=complex) - v @ dagger(v))


def complement_projector(basis: ProductBasis) -> np.ndarray:
    """Projector onto the orthogonal complement of the basis span."""
    _require_orthonormal(basis)
    return _complement_of_checked(basis)


def _check_operator_interval(q: np.ndarray, d_a: int, d_b: int):
    """Hermitian part of ``q`` and its eigenpairs ``(q, w, v)``, after checking 0 <= q <= I.

    The slack of both checks is ``TOLERANCES.operator_interval``.
    """
    if d_a < 1 or d_b < 1:
        raise DimensionMismatch(f"local dimensions ({d_a}, {d_b}) must be at least 1")
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
_SEESAW_SLACK = 1e-12
# A restart stops once one iteration improves it by less than _SEESAW_STOP,
# or after _SEESAW_MAX_ITERATIONS iterations.  Both are local because no
# caller sets them; the certification margin is Tolerances.upb_margin.
_SEESAW_STOP = 1e-12
_SEESAW_MAX_ITERATIONS = 10_000
# Power steps per half step, local for the same reason.  More steps mean
# fewer iterations but more matmuls in each; of 2, 4 and 8, 4 was fastest
# over both see-saw benchmark workloads (2 lost on the tile families, 8 on
# the 2 x 2 and 2 x 3 operators).
_POWER_STEPS = 4


def _contract(x: np.ndarray, f_x: np.ndarray, d_out: int) -> np.ndarray:
    """Per-row factors ``<x|F`` of shape (n, d_out, k), one matmul per row.

    ``f_x`` is the factor F of Q with the contracted side as its rows.  Rows
    go through separate matmuls, so a row's result does not depend on the
    other rows of ``x``.
    """
    return (x.conj()[:, None, :] @ f_x).reshape(len(x), d_out, -1)


def _half_step_operators(x: np.ndarray, f_x: np.ndarray, s: np.ndarray, d_out: int) -> np.ndarray:
    """Stack of <x|Q|x> = X diag(s) X^dag over the other side, one per row of ``x``."""
    y = _contract(x, f_x, d_out)
    return (y * s) @ dagger(y)


def _power_steps(m: np.ndarray, x: np.ndarray):
    """``_POWER_STEPS`` steps x <- Mx/||Mx|| on each row, then the values <x|M|x>.

    ``m`` is a stack of positive semidefinite operators and ``x`` the unit
    vectors they act on, one per row, so no step lowers <x|M|x>.  A row
    with ||Mx|| = 0 keeps its vector, and its value is 0.  Each step is one
    batched matmul, so a row's result does not depend on the other rows.
    """
    for _ in range(_POWER_STEPS):
        y = (m @ x[:, :, None])[:, :, 0]
        norm = _row_norms(y)[:, None]
        x = np.divide(y, norm, out=x.copy(), where=norm > 0)
    return np.vecdot(x, (m @ x[:, :, None])[:, :, 0]).real, x


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
    operator M = <b|Q|b>, which is positive semidefinite, and symmetrically
    for ``a``.  Each half step takes 4 power steps a <- Ma/||Ma||
    (``_POWER_STEPS``) from the restart's current vector, and its value is
    the final Rayleigh quotient <a|M|a>.  A power step on a positive
    semidefinite operator never lowers the Rayleigh quotient, so the
    objective never decreases (checked once per pass, over both half steps:
    a drop beyond 1e-12 raises :class:`NonMonotoneSeesaw`, naming the
    largest drop), and the stationary points are those of exact partial
    maximization: the higher-order power method of De Lathauwer, De Moor
    and Vandewalle, SIAM J. Matrix Anal. Appl. 21, 1324 (2000).  A row
    with Ma = 0 keeps its vector, with value 0.  No eigensolver runs.

    Q must be Hermitian with its spectrum in [0, 1], up to
    ``TOLERANCES.operator_interval`` as read at the call, or
    :class:`InvalidProjector` is raised.  Q is factored once, from the
    eigendecomposition that checks its spectrum, as F diag(s) F^dag over
    the eigenpairs above the numerical rank cut D*eps*max|w|; each
    contracted operator is then X diag(s) X^dag with X of size dA x k or
    dB x k.  All restarts advance together: each
    half step is one stacked contraction and one batched matmul per power
    step over the restarts still active, and a restart leaves the active
    set once one iteration improves it by less than 1e-12
    (``_SEESAW_STOP``), or after 10 000 iterations
    (``_SEESAW_MAX_ITERATIONS``); ``capped_restarts`` counts the restarts
    the cap stopped.  The active restarts' vectors and values live in
    compact working arrays, so a stopped restart is never stepped again.

    Restart ``r`` starts from a rotation-invariant pair drawn from the
    counter-seeded stream ``stream(seed, r)``.  One bit generator, re-keyed
    per restart, draws every pair (:func:`~prodbasis.sampling.starting_pairs`),
    with the same bits as separate streams.  A restart's trajectory does
    not depend on which other restarts share its batch.  The witness comes
    from the lowest-index restart whose value is within 1e-12 of the best,
    so rounding noise among restarts that reach the same optimum does not
    pick it, and the outcome does not depend on execution order.  Its two
    factors get a canonical global phase: the first entry above 1e-12 in
    modulus is real and positive.
    """
    _, w, v = _check_operator_interval(q, d_a, d_b)
    keep = np.abs(w) > w.size * np.finfo(float).eps * np.max(np.abs(w))
    return _seesaw(v[:, keep], w[keep], d_a, d_b, restarts, seed)


def _seesaw(f, s, d_a, d_b, restarts, seed) -> SeesawResult:
    """The see-saw on Q = F diag(s) F^dag, for a factor ``f`` of shape (dA*dB, k).

    :func:`seesaw_max_product_overlap` checks Q and factors it; the range
    criterion passes the range eigenvectors of its state with s = 1, a
    projector by construction.

    Row ``i`` of the working arrays ``a_w``, ``b_w`` and ``value_w`` is
    restart ``rows[i]``.  A pass steps every working row, checks the
    ascent of both half steps in one test, and compacts the arrays only
    when some restart stops; the stopped rows are first written back to
    ``a``, ``b`` and ``value``.  The rows still active at the iteration
    cap are written back after the loop.  Each row goes through the same
    arithmetic as it would alone, so the result does not depend on when
    the arrays are compacted.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    f = f.reshape(d_a, d_b, s.size)
    f_a = f.reshape(d_a, d_b * s.size)                      # rows: A side
    f_b = f.transpose(1, 0, 2).reshape(d_b, d_a * s.size)   # rows: B side

    a, b = starting_pairs(seed, restarts, d_a, d_b)
    z = (b.conj()[:, None, :] @ _contract(a, f_a, d_b))[:, 0]
    value = np.sum((z.real ** 2 + z.imag ** 2) * s, axis=-1)

    rows = np.arange(restarts)
    a_w, b_w, value_w = a, b, value
    iterations_total = 0
    for _ in range(_SEESAW_MAX_ITERATIONS):
        half, a_w = _power_steps(_half_step_operators(b_w, f_b, s, d_a), a_w)
        new_value, b_w = _power_steps(_half_step_operators(a_w, f_a, s, d_b), b_w)
        _require_ascent(value_w, half, new_value)
        iterations_total += rows.size
        stopped = new_value - value_w < _SEESAW_STOP     # a NaN improvement stops nothing
        value_w = new_value
        if stopped.any():
            done = rows[stopped]
            a[done], b[done], value[done] = a_w[stopped], b_w[stopped], value_w[stopped]
            going = ~stopped
            rows, a_w, b_w, value_w = rows[going], a_w[going], b_w[going], value_w[going]
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
    and ``Inconclusive`` in between (see :func:`overlap_verdict`).  The
    see-saw runs :func:`seesaw_max_product_overlap` with its fixed stop rule
    and iteration cap.
    """
    tol = TOLERANCES if tol is None else tol
    dev = _require_orthonormal(basis, tol.orthonormality)
    span_rank = len(basis)
    complement_dim = basis.dim - span_rank

    if complement_dim == 0:
        value, witness, verdict, restarts_used, iterations, capped = 0.0, None, Verdict.COMPLETE_BASIS, 0, 0, 0
    else:
        q = _complement_of_checked(basis)
        result = seesaw_max_product_overlap(q, basis.d_a, basis.d_b, restarts, seed)
        value, witness = result.value, result.witness
        verdict = overlap_verdict(value, tol=tol)
        restarts_used, iterations, capped = result.restarts_used, result.iterations_total, result.capped_restarts
    return VerificationReport(
        gram_max_offdiag=dev.max_offdiag,
        gram_max_diag_error=dev.max_diag_error,
        span_rank=span_rank,
        complement_dim=complement_dim,
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
