"""One re-keyed bit generator against a fresh stream per restart."""

import numpy as np
import pytest

from prodbasis import check_upb, gen_tiles2, seesaw_max_product_overlap
from prodbasis.errors import DimensionMismatch
from prodbasis.families import cartesian_basis
from prodbasis.sampling import _restart_streams, random_unit_vector, starting_pairs, stream
from prodbasis.winding import move_to_record, random_wound_basis, wind_basis

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


NUMPY_SEEDS = [(3, np.int64(3)), (3, np.uint8(3)), (2**63 + 5, np.uint64(2**63 + 5)), (-1, np.int64(-1))]


@pytest.mark.parametrize("seed, np_seed", NUMPY_SEEDS)
def test_a_numpy_integer_seed_gives_the_python_integer_seeds_output(seed, np_seed):
    assert stream(np_seed, np.int32(2)).random(4).tobytes() == stream(seed, 2).random(4).tobytes()
    for x, y in zip(starting_pairs(np_seed, 5, 2, 3), starting_pairs(seed, 5, 2, 3)):
        assert x.tobytes() == y.tobytes()
    got, want = (seesaw_max_product_overlap(np.diag([1.0, 0.0, 0.0, 0.5]), 2, 2, restarts=10, seed=s)
                 for s in (np_seed, seed))
    assert got.value == want.value and got.iterations_total == want.iterations_total
    assert got.witness.a.tobytes() == want.witness.a.tobytes() and got.witness.b.tobytes() == want.witness.b.tobytes()
    got, want = (check_upb(gen_tiles2(3, 4), restarts=10, seed=s) for s in (np_seed, seed))
    assert (got.max_product_overlap, got.verdict, got.iterations_total) == \
        (want.max_product_overlap, want.verdict, want.iterations_total)
    for wound in (lambda s: random_wound_basis(3, 3, 2, s), lambda s: wind_basis(cartesian_basis(2, 3), 1, s)):
        (basis, moves), (want, want_moves) = wound(np_seed), wound(seed)
        assert basis.global_matrix().tobytes() == want.global_matrix().tobytes()
        assert [move_to_record(m) for m in moves] == [move_to_record(m) for m in want_moves]


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None])
def test_a_non_integer_seed_is_refused(seed):
    for call in (lambda: stream(seed), lambda: stream(0, seed), lambda: starting_pairs(seed, 3, 2, 2),
                 lambda: seesaw_max_product_overlap(np.eye(4) / 2, 2, 2, restarts=2, seed=seed),
                 lambda: random_wound_basis(2, 3, 1, seed)):
        with pytest.raises(ValueError, match="must be integers"):
            call()


@pytest.mark.parametrize("count", [0, -1, True, False, 2.0, 2.5, "2", None])
def test_starting_pairs_refuse_a_count_that_is_not_a_positive_integer(count):
    # True used to give (1, d) arrays and 2.0 numpy's TypeError
    with pytest.raises(ValueError, match="need at least one starting pair, as an integer"):
        starting_pairs(0, count, 2, 3)


@pytest.mark.parametrize("d_a, d_b", [(0, 2), (2, -1), (True, 2), (2, True), (2.0, 2), (2, 2.5), ("2", 2), (2, None)])
def test_starting_pairs_refuse_local_dims_that_are_not_positive_integers(d_a, d_b):
    with pytest.raises(DimensionMismatch):
        starting_pairs(0, 3, d_a, d_b)


def test_starting_pairs_take_numpy_integer_counts_and_dims():
    for x, y in zip(starting_pairs(5, np.int64(4), np.int32(2), np.uint8(3)), starting_pairs(5, 4, 2, 3)):
        assert x.tobytes() == y.tobytes()
