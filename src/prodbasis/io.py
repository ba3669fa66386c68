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

Every JSON document the package writes (basis files, the ``boundent --out``
density file and the JSON reports on stdout) goes through one writer,
:func:`json_text`, which returns exactly the text of
``json.dumps(obj, indent=2)``.  It emits scalars through the primitives
``json`` uses (``float.__repr__``, ``int.__repr__`` and
``encode_basestring_ascii``), but it writes an ``[re, im]`` pair of finite
floats, the bulk of every file, from one fixed template instead of running
``json``'s pure-Python indenting encoder item by item.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
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
    "json_text",
    "write_json",
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


def _are_int_pair_lists(supports) -> bool:
    """True iff every item of ``supports`` is a list of ``_is_int_pair`` pairs.

    The same test as ``_is_int_pair`` on every pair, run over all cells at
    once by C-level iteration (``map``, ``all``, ``set``) instead of one
    Python call per pair.
    """
    if not all(map(isinstance, supports, repeat(list))):
        return False
    pairs = list(chain.from_iterable(supports))
    return (all(map(isinstance, pairs, repeat(list))) and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int})


def _tile_cells(supports) -> list:
    """Each state's ``tile_cells`` entry as a frozenset of (column, row) pairs, or None.

    Every entry that is not None must be a list of [column, row] integer
    pairs, else :class:`BasisFileError` names the first state that breaks it.
    """
    if not _are_int_pair_lists([support for support in supports if support is not None]):
        i = next(i for i, support in enumerate(supports)
                 if support is not None and not _are_int_pair_lists([support]))
        raise BasisFileError(f"state {i} tile_cells must be [column, row] integer pairs")
    return [None if support is None else frozenset(map(tuple, support)) for support in supports]


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
    labels, supports = [], []
    for i, entry in enumerate(raw_states):
        if not isinstance(entry, dict):
            _tile_cells(supports)  # an earlier state's bad cells are reported first
            raise BasisFileError(f"state {i} is not an object")
        supports.append(entry.get("tile_cells"))
        labels.append(str(entry.get("label", "")))
    cells = _tile_cells(supports)
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


_INFINITY = float("inf")


def _float_text(x) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    # json's coercions of non-string keys, in json's order
    if isinstance(key, str):
        pass
    elif isinstance(key, float):
        key = _float_text(key)
    elif key is True:
        key = "true"
    elif key is False:
        key = "false"
    elif key is None:
        key = "null"
    elif isinstance(key, int):
        key = int.__repr__(key)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _write(value, level: int, out) -> None:
    # json's type tests, in json's order
    if isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        out(_float_text(value))
    elif isinstance(value, (list, tuple)):
        _write_list(value, level, out)
    elif isinstance(value, dict):
        _write_dict(value, level, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_list(items, level: int, out) -> None:
    if not items:
        out("[]")
        return
    inner = "\n" + "  " * (level + 1)
    # "%r" is float.__repr__ for an exact float; a finite repr has no "n",
    # so nan and inf fall through to the general path
    pair = f"[{inner}  %r,{inner}  %r{inner}]"
    sep = "[" + inner
    for item in items:
        out(sep)
        sep = "," + inner
        if type(item) is list and len(item) == 2 and type(item[0]) is float and type(item[1]) is float:
            text = pair % (item[0], item[1])
            if "n" not in text:
                out(text)
                continue
        _write(item, level + 1, out)
    out("\n" + "  " * level + "]")


def _write_dict(mapping, level: int, out) -> None:
    if not mapping:
        out("{}")
        return
    inner = "\n" + "  " * (level + 1)
    sep = "{" + inner
    for key, value in mapping.items():
        out(sep + _key_text(key) + ": ")
        sep = "," + inner
        _write(value, level + 1, out)
    out("\n" + "  " * level + "}")


def json_text(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)`` for an acyclic JSON tree.

    Tuples encode as lists; a value that ``json.dumps`` rejects (a numpy
    integer or bool, a set) raises the same :class:`TypeError`.
    """
    parts = []
    _write(obj, 0, parts.append)
    return "".join(parts)


def write_json(obj, path) -> None:
    """Write :func:`json_text` of ``obj`` and a trailing newline to ``path``.

    A path that cannot be written raises :class:`BasisFileError`.
    """
    try:
        Path(path).write_text(json_text(obj) + "\n", encoding="utf-8")
    except OSError as exc:
        raise BasisFileError(f"cannot write {path}: {exc}") from exc


def save_basis(basis: ProductBasis, path) -> None:
    write_json(basis_to_payload(basis), path)


def load_basis(path) -> ProductBasis:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise BasisFileError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, too deep
        raise BasisFileError(f"{path} is not valid JSON: {exc}") from exc
    return basis_from_payload(payload)
