"""Seeded CLI output pinned across commits by SHA-256 digests.

Each case runs ``prodbasis.cli.main`` in-process in a scratch directory and
hashes its exit code, its stdout and the file it writes, if any.  The corpus
covers ``construct``, ``verify`` (text and json), ``boundent --out`` (on
the tile and the QR form of the complement), ``render``, ``wind`` and
``unwind``; later cases read the files that earlier ones wrote.

The digests in ``golden_digests.json`` hold for the numpy version stored next
to them.  Another numpy may round LAPACK results differently, so the test
skips there.  The trailing digits of some outputs also depend on the OpenBLAS
kernel that numpy's bundled library picks for the CPU (``SkylakeX`` with
AVX-512, ``Haswell`` with AVX2, ...), so one digest set is stored per kernel
and the test checks the set of the kernel it runs on; it skips, naming the
kernel, when none was recorded for it.

A change that is meant to alter seeded output re-records them with
``PYTHONPATH=src python tests/test_golden_digests.py``.  That runs the corpus
in one subprocess per ``OPENBLAS_CORETYPE`` in ``CORETYPES`` and names on
stderr the kernels it recorded, the cases whose digest changed, and how many
cases differ from the first kernel's set.  Say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from prodbasis import cli

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"

VERIFY_FILES = ("g1_6", "g2_3x4", "g2_4x6_minus1", "cart_3x3")
VERIFY_SEEDS = (0, 7)
WIND_DIMS = ((2, 3), (3, 3), (3, 4))
WIND_SEEDS = range(4)
WIND_MOVES = (1, 2)

# OPENBLAS_CORETYPE values that record() runs the corpus under.  OpenBLAS
# falls back to a kernel the CPU supports when it cannot run the one asked
# for, and some names share a kernel (``Zen`` runs ``Haswell``), so the sets
# are keyed by the kernel name the library reports, not by the name asked.
CORETYPES = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Nehalem", "Prescott")


def blas_core() -> str | None:
    """Kernel name of numpy's bundled OpenBLAS (``SkylakeX``, ...), or None if it is not found."""
    for lib in sorted(Path(np.__file__).resolve().parent.parent.glob("numpy.libs/libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def corpus():
    """(name, argv, file written or None) in run order."""
    cases = [
        ("construct g1_6", ["construct", "--family", "gentiles1", "--n", "6", "--out", "g1_6.json"], "g1_6.json"),
        ("construct g2_3x4", ["construct", "--family", "gentiles2", "--m", "3", "--n", "4", "--out", "g2_3x4.json"],
         "g2_3x4.json"),
        ("construct g2_4x6", ["construct", "--family", "gentiles2", "--m", "4", "--n", "6", "--out", "g2_4x6.json"],
         "g2_4x6.json"),
        ("construct cart_3x3", ["construct", "--family", "cartesian", "--m", "3", "--n", "3", "--out", "cart_3x3.json"],
         "cart_3x3.json"),
    ]
    for name in VERIFY_FILES:
        for fmt in ("text", "json"):
            for seed in VERIFY_SEEDS:
                cases.append((f"verify {name} {fmt} seed={seed}",
                              ["verify", f"{name}.json", "--restarts", "20", "--seed", str(seed), "--format", fmt],
                              None))
    for name in ("g1_6", "g2_3x4", "g1_6_qr"):
        cases.append((f"boundent {name}", ["boundent", f"{name}.json", "--out", f"rho_{name}.json"],
                      f"rho_{name}.json"))
    for name in ("g1_6", "g2_3x4"):
        cases.append((f"render {name}", ["render", f"{name}.json"], None))
    for d_a, d_b in WIND_DIMS:
        for seed in WIND_SEEDS:
            for k in WIND_MOVES:
                out = f"wound_{d_a}x{d_b}_k{k}_s{seed}.json"
                cases.append((f"wind {d_a}x{d_b} k={k} seed={seed}",
                              ["wind", "--cartesian", str(d_a), str(d_b), "--moves", str(k),
                               "--seed", str(seed), "--out", out], out))
                cases.append((f"unwind {d_a}x{d_b} k={k} seed={seed}", ["unwind", out, "--depth", "2"], None))
    return cases


# Files prepared from the one a construct case wrote, by an edit of its
# states, so the input needs no library call: (source, prepared, edit).
# g1_6_qr has no tile cells, so boundent takes the QR form of the complement.
PREPARED = {
    "construct g1_6": ("g1_6.json", "g1_6_qr.json", lambda states: [{**st, "tile_cells": None} for st in states]),
    "construct g2_4x6": ("g2_4x6.json", "g2_4x6_minus1.json", lambda states: states[:-1]),
}


def _prepare(src: Path, dst: Path, edit) -> None:
    payload = json.loads(src.read_text(encoding="utf-8"))
    payload["states"] = edit(payload["states"])
    dst.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def run_corpus(workdir: Path) -> dict:
    """Digest of every case, run in ``workdir`` (the current directory)."""
    digests = {}
    for name, argv, written in corpus():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        h = hashlib.sha256(f"{code}\n".encode())
        h.update(out.getvalue().encode())
        if written is not None:
            h.update(b"\0" + (workdir / written).read_bytes())
        digests[name] = h.hexdigest()
        if name in PREPARED:
            src, dst, edit = PREPARED[name]
            _prepare(workdir / src, workdir / dst, edit)
    return digests


def test_seeded_outputs_match_golden_digests(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were recorded with numpy {golden['numpy']}, this is numpy {np.__version__}")
    core = blas_core()
    if core not in golden["cores"]:
        pytest.skip(f"no digests were recorded for the BLAS kernel {core or '(not found)'}; "
                    f"recorded: {', '.join(golden['cores'])}")
    expected = golden["cores"][core]
    monkeypatch.chdir(tmp_path)
    digests = run_corpus(tmp_path)
    assert list(digests) == list(expected)
    changed = [name for name in digests if digests[name] != expected[name]]
    assert not changed, f"seeded output changed on {core} for {len(changed)} cases: {changed}"


def _core_digests() -> dict:
    """This process's kernel name and the corpus digests, run in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = run_corpus(Path(tmp))
        finally:
            os.chdir(cwd)
    return {"core": blas_core(), "digests": digests}


def record() -> None:
    """Re-record the digest set of every kernel reached through ``CORETYPES``.

    Names on stderr the kernels recorded, the cases whose digest changed and
    how many cases differ from the first kernel's set.
    """
    old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get("cores", {}) if GOLDEN_PATH.exists() else {}
    cores = {}
    for coretype in CORETYPES:
        run = subprocess.run([sys.executable, __file__, "--core-digests"], check=True, capture_output=True,
                             text=True, env={**os.environ, "OPENBLAS_CORETYPE": coretype})
        result = json.loads(run.stdout)
        core, digests = result["core"], result["digests"]
        if core is None:
            raise RuntimeError("numpy's bundled OpenBLAS was not found; digests are keyed by its kernel")
        if cores.setdefault(core, digests) != digests:
            raise RuntimeError(f"OPENBLAS_CORETYPE={coretype} ran {core} and gave other digests than before")
        print(f"OPENBLAS_CORETYPE={coretype} runs {core}", file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps({"numpy": np.__version__, "cores": cores}, indent=2) + "\n",
                           encoding="utf-8")
    print(f"recorded {len(cores)} digest sets with numpy {np.__version__} to {GOLDEN_PATH}", file=sys.stderr)
    first = next(iter(cores.values()))
    for core, digests in cores.items():
        differ = sum(digests[name] != first[name] for name in digests)
        if core in old:
            changed = [name for name in digests if old[core].get(name) != digests[name]]
            news = f"{len(changed)} changed: {', '.join(changed) or 'none'}"
        else:
            news = "a new set"
        print(f"{core}: {differ} of {len(digests)} differ from {next(iter(cores))}; {news}", file=sys.stderr)


if __name__ == "__main__":
    if sys.argv[1:] == ["--core-digests"]:
        print(json.dumps(_core_digests()))
    else:
        record()
