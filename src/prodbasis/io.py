"""Basis file serialization.

Amplitudes are stored as [re, im] pairs of decimal floats; Python's float
serialization emits the shortest decimal (at most 17 significant digits)
that parses back to the identical bit pattern, so save/load round-trips are
exact and the files stay human-diffable.  Key order is fixed, making output
byte-stable for identical inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .basis import Family, ProductBasis, ProductState
from .errors import BasisFileError

__all__ = ["FORMAT_VERSION", "basis_to_payload", "basis_from_payload", "save_basis", "load_basis"]

FORMAT_VERSION = 1


def _vector_to_json(v: np.ndarray):
    return [[float(x.real), float(x.imag)] for x in v]


def _vector_from_json(pairs, name: str) -> np.ndarray:
    try:
        return np.array([complex(float(re), float(im)) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise BasisFileError(f"malformed amplitude list in {name}") from exc


def basis_to_payload(basis: ProductBasis) -> dict:
    states = []
    for st in basis:
        cells = None if st.tile_cells is None else sorted([int(c), int(r)] for c, r in st.tile_cells)
        states.append({
            "label": st.label,
            "a": _vector_to_json(st.a),
            "b": _vector_to_json(st.b),
            "tile_cells": cells,
        })
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
    if version != FORMAT_VERSION:
        raise BasisFileError(f"unsupported format_version {version!r}")
    dims = payload.get("dims")
    if not (isinstance(dims, list) and len(dims) == 2):
        raise BasisFileError("dims must be a two-element list")
    try:
        d_a, d_b = int(dims[0]), int(dims[1])
    except (TypeError, ValueError) as exc:
        raise BasisFileError(f"dims must be integers, got {dims!r}") from exc
    try:
        family = Family(payload.get("family", "Custom"))
    except ValueError as exc:
        raise BasisFileError(f"unknown family {payload.get('family')!r}") from exc
    raw_states = payload.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise BasisFileError("states must be a nonempty list")
    states = []
    for i, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            raise BasisFileError(f"state {i} is not an object")
        cells = entry.get("tile_cells")
        try:
            tile_cells = None if cells is None else frozenset((int(c), int(r)) for c, r in cells)
        except (TypeError, ValueError) as exc:
            raise BasisFileError(f"state {i} tile_cells must be [column, row] integer pairs") from exc
        try:
            states.append(ProductState(
                _vector_from_json(entry.get("a", ()), f"state {i} side a"),
                _vector_from_json(entry.get("b", ()), f"state {i} side b"),
                label=str(entry.get("label", "")),
                tile_cells=tile_cells,
            ))
        except (ValueError, TypeError) as exc:
            raise BasisFileError(f"state {i} is invalid: {exc}") from exc
    provenance = payload.get("provenance") or ()
    if provenance and not isinstance(provenance, list):
        raise BasisFileError("provenance must be a list when present")
    try:
        return ProductBasis(d_a, d_b, tuple(states), family=family, provenance=tuple(provenance))
    except Exception as exc:
        raise BasisFileError(f"inconsistent basis file: {exc}") from exc


def save_basis(basis: ProductBasis, path) -> None:
    text = json.dumps(basis_to_payload(basis), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_basis(path) -> ProductBasis:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BasisFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BasisFileError(f"{path} is not valid JSON: {exc}") from exc
    return basis_from_payload(payload)
