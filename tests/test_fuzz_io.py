"""Fuzzing of the two JSON readers: each call returns a valid object or raises BasisFileError."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from prodbasis.basis import ProductBasis
from prodbasis.errors import BasisFileError
from prodbasis.families import gen_tiles2
from prodbasis.io import basis_from_payload, basis_to_payload
from prodbasis.winding import WindingMove, move_from_record, move_to_record, random_wound_basis

FUZZ = settings(max_examples=50, derandomize=True, database=None, deadline=None)

scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -10**400, 2**63, 2**64, float("inf"), float("-inf")])
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)

VALID_BASIS = basis_to_payload(gen_tiles2(3, 4))
VALID_MOVE = move_to_record(random_wound_basis(2, 3, 1, 4)[1][0])
MOVE_KEYS = ("a_basis", "b_basis", "u_a", "u_b")


def paths(value, prefix=()):
    """Every key/index path into a nested JSON value, the root excluded."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def mutated(payload, path, new_value, delete):
    """A deep copy of ``payload`` with the entry at ``path`` replaced or deleted."""
    copy = json.loads(json.dumps(payload))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new_value
    return copy


def mutations(payload, targets):
    """``payload`` with the entry at one of the ``targets`` paths replaced or deleted."""
    return st.builds(mutated, st.just(payload), st.sampled_from(targets), json_values, st.booleans())


# every list entry is read by the same code as entry 0, so only entry 0 is mutated
BASIS_TARGETS = [p for p in paths(VALID_BASIS) if not any(k for k in p if isinstance(k, int))]
MOVE_TARGETS = [p for p in paths(VALID_MOVE) if p != ("op",) and not any(k for k in p if isinstance(k, int))]


@FUZZ
@given(json_values | mutations(VALID_BASIS, BASIS_TARGETS))
def test_basis_from_payload_fuzz(payload):
    try:
        basis = basis_from_payload(payload)
    except BasisFileError:
        return
    assert isinstance(basis, ProductBasis)
    json.dumps(basis_to_payload(basis))
    assert basis_from_payload(basis_to_payload(basis)).labels == basis.labels


@FUZZ
@given(json_values | mutations(VALID_MOVE, MOVE_TARGETS)
       | st.dictionaries(st.sampled_from(MOVE_KEYS), json_values).map(lambda f: {"op": "winding_move", **f}))
def test_move_from_record_fuzz(record):
    try:
        move = move_from_record(record)
    except BasisFileError:
        return
    except ValueError:  # the one error kept apart: a record of another op
        assert isinstance(record, dict) and record.get("op") != "winding_move"
        return
    assert isinstance(move, WindingMove)
