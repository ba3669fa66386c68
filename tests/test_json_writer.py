"""The one JSON writer returns exactly the text of ``json.dumps(obj, indent=2)``."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodbasis.io import json_text

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf"), 1e16, 1e-7, 0.1]
EDGE_STRINGS = ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", " ", "é", "中文", "😀", "</script>"]

floats = st.floats() | st.sampled_from(EDGE_FLOATS)
scalars = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, -(10**40)])
    | floats | st.text(max_size=6) | st.sampled_from(EDGE_STRINGS)
)
# [re, im] rows as complex_to_json writes them, finite or not
pair_rows = st.lists(st.lists(floats, min_size=2, max_size=2), max_size=5)
keys = st.text(max_size=4) | st.sampled_from(EDGE_STRINGS)
trees = st.recursive(
    scalars | pair_rows,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(trees)
def test_writer_matches_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [], {}, (), [[]], {"": {}}, [[1.0, 2.0]], [(1.0, 2.0)], [[1, 2.0]], [[1.0, 2.0, 3.0]],
    [[float("nan"), 0.0], [0.0, float("-inf")]], [[True, 1.0]],
    {1: "int", 2.5: "float", None: "none", True: "true", False: "false"},
    np.float64(0.1), [np.float64(-0.0), np.float64("nan")],
])
def test_writer_matches_json_dumps_on_edge_cases(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    np.int64(3), np.bool_(True), {1, 2}, [1.0, {"x": np.int64(1)}], {"x": [[0.0, set()]]}, {(1, 2): 0},
])
def test_writer_rejects_what_json_dumps_rejects(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as raised:
        json_text(obj)
    assert str(raised.value) == str(expected.value)
