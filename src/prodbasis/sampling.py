"""Seeded random sampling helpers.

Randomness is drawn from counter-based Philox streams keyed by
``(seed, counter)``, so independent restarts or moves get independent,
order-insensitive streams and every result is reproducible bit for bit.
:func:`starting_pairs` draws many such streams from one bit generator,
re-keyed per stream through its ``state`` (counter 0, key
``(seed, counter)``, empty buffer); that is exactly the state a fresh
:func:`stream` starts in, so the draws are the same bits without building
one generator per stream.
"""

from __future__ import annotations

import numpy as np

from .linalg import _row_norms

__all__ = ["stream", "random_unit_vector", "starting_pairs", "haar_unitary"]


def _key(seed: int, counter: int) -> np.ndarray:
    return np.array([seed % 2**64, counter % 2**64], dtype=np.uint64)


def stream(seed: int, counter: int = 0) -> np.random.Generator:
    """Independent generator for stream ``counter`` of the given seed."""
    return np.random.Generator(np.random.Philox(key=_key(seed, counter)))


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unit vector from the rotation-invariant (complex normal) distribution."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _restart_streams(seed: int, count: int):
    """One generator, re-keyed in turn to ``stream(seed, r)`` for ``r < count``."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    key = _key(seed, 0)
    zeros = np.zeros(4, dtype=np.uint64)
    # the setter copies these arrays, so the one dict serves every restart
    rekeyed = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
               "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for r in range(count):
        key[1] = r
        bitgen.state = rekeyed
        yield rng


def starting_pairs(seed: int, count: int, d_a: int, d_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Random unit pairs ``(a, b)`` of shapes ``(count, d_a)`` and ``(count, d_b)``.

    Row ``r`` is bit for bit ``random_unit_vector(rng, d_a)`` followed by
    ``random_unit_vector(rng, d_b)`` with ``rng = stream(seed, r)``.  One
    Philox bit generator serves every row: it is re-keyed to stream ``r``
    and then makes one ``standard_normal`` draw of ``2 * (d_a + d_b)``
    values, which is the concatenation of the four draws of those calls.
    """
    x = np.empty((count, 2 * (d_a + d_b)))
    for r, rng in enumerate(_restart_streams(seed, count)):
        rng.standard_normal(out=x[r])
    a = x[:, :d_a] + 1j * x[:, d_a:2 * d_a]
    b = x[:, 2 * d_a:2 * d_a + d_b] + 1j * x[:, 2 * d_a + d_b:]
    return a / _row_norms(a)[:, None], b / _row_norms(b)[:, None]


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase fix makes the distribution exactly Haar rather
    than QR-convention dependent.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
