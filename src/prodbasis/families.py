"""Constructors for the tile product-basis families and their symmetries.

Both tile families live on a dA x dB grid whose columns index the A side and
whose rows index the B side.  Each is a list of rows ``(label, a_support,
a_m, b_support, b_m, omega)`` through one builder: a row is the state
``fourier_local_state(dA, a_support, a_m, omega) (x) fourier_local_state(dB,
b_support, b_m, omega)`` on the tile ``a_support x b_support``.  A one-cell
side ``((k,), 0)`` is |k>; the stopper is ``("F", range(dA), 0, range(dB), 0,
1.0)``.  All states have unit norm, so the families are orthonormal sets.
"""

from __future__ import annotations

import numpy as np

from .basis import Family, ProductBasis, _is_integer
from .errors import DimensionMismatch, IndexOutOfRange, InvalidDimension

__all__ = [
    "fourier_local_state",
    "gen_tiles1",
    "gen_tiles2",
    "cartesian_basis",
    "cyclic_shift_basis",
    "swap_shift_basis",
]


def fourier_local_state(dim: int, support, m: int, omega: complex) -> np.ndarray:
    """Unit vector with amplitude omega^(j*m)/sqrt(s) at support[j], zero elsewhere.

    The support is an ordered list of ``s`` distinct integer indices in [0, dim).
    A ``dim`` that is not a positive integer raises :class:`InvalidDimension`,
    a frequency ``m`` that is not an integer :class:`IndexOutOfRange`.
    """
    if not _is_integer(dim) or dim < 1:
        raise InvalidDimension(f"dim must be a positive integer, got {dim!r}")
    if not _is_integer(m):
        raise IndexOutOfRange(f"frequency must be an integer, got {m!r}")
    idx = list(support)
    if not all(_is_integer(s) for s in idx):
        raise IndexOutOfRange(f"support indices must be integers, got {idx}")
    if len(set(idx)) != len(idx):
        raise IndexOutOfRange(f"support indices must be distinct, got {idx}")
    if any(s < 0 or s >= dim for s in idx):
        raise IndexOutOfRange(f"support {idx} outside [0, {dim})")
    if not idx:
        raise IndexOutOfRange("support must be nonempty")
    v = np.zeros(dim, dtype=complex)
    for j, s in enumerate(idx):
        v[s] = complex(omega) ** (j * m)
    return v / np.sqrt(len(idx))


def _tile_basis(dims, rows, family: Family) -> ProductBasis:
    """One state per row ``(label, a_support, a_m, b_support, b_m, omega)``, in row order."""
    d_a, d_b = dims
    return ProductBasis._from_rows(
        dims,
        [fourier_local_state(d_a, sa, ma, w) for _, sa, ma, _, _, w in rows],
        [fourier_local_state(d_b, sb, mb, w) for _, _, _, sb, mb, w in rows],
        [row[0] for row in rows],
        [frozenset((c, r) for c in sa for r in sb) for _, sa, _, sb, _, _ in rows],
        family=family,
    )


def gen_tiles1(n: int) -> ProductBasis:
    """First tile family on C^n (x) C^n for even n >= 4; (n-1)^2 states.

    Vertical states |k> (x) |w_{m,k+1}>, horizontal states |w_{m,k}> (x) |k>
    and one uniform stopper, where |w_{m,k}> puts phases omega^(jm) with
    omega = exp(4*pi*i/n) on the indices k..k+n/2-1 (mod n).  A vertical
    state occupies column k, rows k+1..k+n/2 (mod n); a horizontal state row
    k, columns k..k+n/2-1 (mod n); the stopper covers the whole grid.
    """
    if not _is_integer(n) or n % 2 != 0 or n < 4:
        raise InvalidDimension(f"gen_tiles1 requires even n >= 4, got n={n}")
    n = int(n)
    omega = np.exp(4j * np.pi / n)
    half = n // 2
    rows = [(f"V[{m},{k}]", (k,), 0, [(k + 1 + j) % n for j in range(half)], m, omega)
            for m in range(1, half) for k in range(n)]
    rows += [(f"H[{m},{k}]", [(k + j) % n for j in range(half)], m, (k,), 0, omega)
             for m in range(1, half) for k in range(n)]
    rows.append(("F", range(n), 0, range(n), 0, 1.0))
    return _tile_basis((n, n), rows, Family.GENTILES1)


def gen_tiles2(m: int, n: int) -> ProductBasis:
    """Second tile family on C^m (x) C^n for n > 3, m >= 3, n >= m; mn-2m+1 states.

    Short tiles (|j> - |j+1 mod m>)/sqrt(2) (x) |j> cover two cells each.
    Long tiles |j> (x) sum of omega^(ik) phases, omega = exp(2*pi*i/(n-2)),
    run down column j over rows j+1..j+m-2 (mod m) and m..n-1, so they are
    vertical and in general not contiguous.  A uniform stopper completes
    the set.
    """
    if not (_is_integer(m) and _is_integer(n)) or m < 3 or n <= 3 or n < m:
        raise InvalidDimension(f"gen_tiles2 requires n > 3, m >= 3 and n >= m, got m={m}, n={n}")
    m, n = int(m), int(n)
    omega = np.exp(2j * np.pi / (n - 2))
    rows = [(f"S[{j}]", (j, (j + 1) % m), 1, (j,), 0, -1.0) for j in range(m)]
    long_support = [[(i + j + 1) % m for i in range(m - 2)] + list(range(m, n)) for j in range(m)]
    rows += [(f"L[{j},{k}]", (j,), 0, long_support[j], k, omega) for j in range(m) for k in range(1, n - 2)]
    rows.append(("F", range(m), 0, range(n), 0, 1.0))
    return _tile_basis((m, n), rows, Family.GENTILES2)


def cartesian_basis(d_a: int, d_b: int) -> ProductBasis:
    """The grid basis {|i> (x) |j>} in lexicographic order.

    Carries no tile metadata; tiles belong to the two constructions above.
    """
    if not (_is_integer(d_a) and _is_integer(d_b)) or d_a < 1 or d_b < 1:
        raise InvalidDimension(f"cartesian_basis needs positive dims, got ({d_a}, {d_b})")
    # state i*dB + j is |i> (x) |j>
    return ProductBasis._from_rows(
        (d_a, d_b),
        np.repeat(np.eye(d_a, dtype=complex), d_b, axis=0),
        np.tile(np.eye(d_b, dtype=complex), (d_a, 1)),
        [f"C[{i},{j}]" for i in range(d_a) for j in range(d_b)],
        [None] * (d_a * d_b),
        family=Family.CARTESIAN,
    )


def _moved_cells(tile_cells, n: int, s_c: int, s_r: int):
    """Each state's cells shifted by (s_c, s_r) mod n."""
    return [None if cells is None else frozenset(((c + s_c) % n, (r + s_r) % n) for c, r in cells)
            for cells in tile_cells]


def cyclic_shift_basis(basis: ProductBasis, s: int) -> ProductBasis:
    """Simultaneously shift both local bases by s: |x> -> |x+s mod n>.

    Requires dA = dB and an integer s; the provenance records s mod n as
    a Python int.  Both tile families are invariant under this map as sets,
    which is what the set-equality tests exercise.
    """
    if basis.d_a != basis.d_b:
        raise DimensionMismatch("cyclic shift needs equal local dimensions")
    if not _is_integer(s):
        raise IndexOutOfRange(f"shift must be an integer, got {s!r}")
    n = basis.d_a
    sh = int(s) % n
    return ProductBasis._from_rows(
        (n, n), np.roll(basis.a_matrix().T, sh, axis=1), np.roll(basis.b_matrix().T, sh, axis=1),
        basis.labels, _moved_cells(basis.tile_cells, n, sh, sh), family=basis.family,
        provenance=basis.provenance + ({"op": "cyclic_shift", "shift": sh},),
    )


def swap_shift_basis(basis: ProductBasis) -> ProductBasis:
    """Interchange the A and B sides combined with a cyclic shift by one.

    Requires dA = dB.  The map is (a, b) -> (b, shift(a)): the outgoing A
    factor is shifted as it becomes the new B side, the convention under
    which the first tile family is exactly invariant.  The provenance
    records it as variant ``"shift_a"``.
    """
    if basis.d_a != basis.d_b:
        raise DimensionMismatch("swap-shift needs equal local dimensions")
    n = basis.d_a
    swapped = [None if cells is None else {(r, c) for c, r in cells} for cells in basis.tile_cells]
    return ProductBasis._from_rows(
        (n, n), basis.b_matrix().T, np.roll(basis.a_matrix().T, 1, axis=1), basis.labels,
        _moved_cells(swapped, n, 0, 1), family=basis.family,
        provenance=basis.provenance + ({"op": "swap_shift", "variant": "shift_a"},),
    )
