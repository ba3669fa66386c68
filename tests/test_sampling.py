"""One re-keyed bit generator against a fresh stream per restart."""

import numpy as np
import pytest

from prodbasis.sampling import _restart_streams, random_unit_vector, starting_pairs, stream

SEEDS = [0, 7, 2**63 + 5, -1]


def same_state(x, y) -> bool:
    if isinstance(x, dict):
        return isinstance(y, dict) and x.keys() == y.keys() and all(same_state(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return isinstance(y, np.ndarray) and x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 60, 100])
@pytest.mark.parametrize("d_a, d_b", [(1, 1), (2, 3), (12, 12)])
def test_starting_pairs_are_bitwise_random_unit_vectors(seed, count, d_a, d_b):
    a, b = starting_pairs(seed, count, d_a, d_b)
    assert a.shape == (count, d_a) and b.shape == (count, d_b)
    for r in range(count):
        rng = stream(seed, r)
        assert a[r].tobytes() == random_unit_vector(rng, d_a).tobytes()
        assert b[r].tobytes() == random_unit_vector(rng, d_b).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_rekeyed_generator_starts_in_a_fresh_stream_state(seed):
    count = 0
    for r, rng in enumerate(_restart_streams(seed, 100)):
        assert same_state(rng.bit_generator.state, stream(seed, r).bit_generator.state)
        rng.standard_normal(5)     # the next re-key must undo a partly used buffer
        count += 1
    assert count == 100
