"""Basis file serialization.

Amplitudes are stored as [re, im] pairs of decimal floats by one codec,
:func:`complex_to_json` / :func:`complex_from_json`, which also writes the
winding moves, see-saw witnesses and density matrices of the CLI.  A basis
file is read and written one side at a time: the "a" lists of all states
decode with one codec call into the (N, dA) array whose row i is state i's
A factor, likewise for "b", and the basis checks both arrays in one pass
(see :mod:`prodbasis.basis`), so a malformed amplitude list is reported
per side, not per state.  Python's float serialization emits the shortest
decimal (at most 17 significant digits) that parses back to the identical
bit pattern, so save/load round-trips are exact and the files stay
human-diffable.  Key order is fixed, making output byte-stable for
identical inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .basis import Family, ProductBasis
from .errors import BasisFileError, DimensionMismatch

__all__ = [
    "FORMAT_VERSION",
    "complex_to_json",
    "complex_from_json",
    "basis_to_payload",
    "basis_from_payload",
    "save_basis",
    "load_basis",
]

FORMAT_VERSION = 1


def complex_to_json(m) -> list:
    """A complex array of any shape as nested lists ending in [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


def complex_from_json(value, ndim: int, name: str) -> np.ndarray:
    """Inverse of :func:`complex_to_json` for an ``ndim``-dimensional array.

    The pairs are read into one float array and viewed as complex, so every
    bit survives, the sign of a zero included.  Anything but a nonempty,
    rectangular array of finite numeric [re, im] pairs raises
    :class:`BasisFileError`.
    """
    try:
        pairs = np.array(value)
    except ValueError as exc:  # ragged, or nested deeper than numpy allows
        raise BasisFileError(f"{name} is not a rectangular array of [re, im] pairs") from exc
    # JSON cannot spell an empty array of this shape: [] and [[]] fail the shape test
    if (pairs.dtype.kind not in "iuf" or pairs.ndim != ndim + 1 or pairs.shape[-1] != 2
            or not np.all(np.isfinite(pairs))):
        raise BasisFileError(f"malformed amplitude list in {name}")
    return pairs.astype(float, copy=False).view(complex)[..., 0]


def _is_int_pair(value) -> bool:
    # JSON integers only: 2.7 and 1e400 (parsed as inf) are floats, true is a bool
    return isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value)


def basis_to_payload(basis: ProductBasis) -> dict:
    a = complex_to_json(basis.a_matrix().T)
    b = complex_to_json(basis.b_matrix().T)
    states = [
        {"label": label, "a": a_i, "b": b_i, "tile_cells": None if cells is None else sorted(map(list, cells))}
        for label, a_i, b_i, cells in zip(basis.labels, a, b, basis.tile_cells)
    ]
    return {
        "format_version": FORMAT_VERSION,
        "dims": [basis.d_a, basis.d_b],
        "family": basis.family.value,
        "states": states,
        "provenance": list(basis.provenance) if basis.provenance else None,
    }


def basis_from_payload(payload: dict) -> ProductBasis:
    if not isinstance(payload, dict):
        raise BasisFileError("top-level JSON value must be an object")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise BasisFileError(f"unsupported format_version {version!r}")
    dims = payload.get("dims")
    if not _is_int_pair(dims):
        raise BasisFileError(f"dims must be two integers, got {dims!r}")
    d_a, d_b = dims
    try:
        family = Family(payload.get("family", "Custom"))
    except ValueError as exc:
        raise BasisFileError(f"unknown family {payload.get('family')!r}") from exc
    raw_states = payload.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise BasisFileError("states must be a nonempty list")
    labels, cells = [], []
    for i, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise BasisFileError(f"state {i} is not an object")
        support = entry.get("tile_cells")
        if support is not None and not (isinstance(support, list) and all(map(_is_int_pair, support))):
            raise BasisFileError(f"state {i} tile_cells must be [column, row] integer pairs")
        labels.append(str(entry.get("label", "")))
        cells.append(None if support is None else frozenset(map(tuple, support)))
    # one codec call per side: row i of each (N, d) array is state i's factor
    a = complex_from_json([entry.get("a") for entry in raw_states], 2, "side a")
    b = complex_from_json([entry.get("b") for entry in raw_states], 2, "side b")
    provenance = payload.get("provenance") or ()
    if provenance and not isinstance(provenance, list):
        raise BasisFileError("provenance must be a list when present")
    for i, entry in enumerate(provenance):
        if not (isinstance(entry, dict) and isinstance(entry.get("op"), str)):
            raise BasisFileError(f"provenance entry {i} must be an object with a string \"op\"")
    try:
        return ProductBasis._from_rows((d_a, d_b), a, b, labels, cells, family=family, provenance=provenance)
    except DimensionMismatch as exc:
        raise BasisFileError(f"inconsistent basis file: {exc}") from exc
    except ValueError as exc:
        raise BasisFileError(f"invalid amplitudes: {exc}") from exc


def save_basis(basis: ProductBasis, path) -> None:
    text = json.dumps(basis_to_payload(basis), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_basis(path) -> ProductBasis:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BasisFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise BasisFileError(f"{path} is not valid JSON: {exc}") from exc
    return basis_from_payload(payload)
