"""Workloads of the prodbasis benchmark: job lists, inputs, execution, checks.

A workload is a fixed set of job templates.  Each template comes in
``POOL`` variants (see-saw seeds, wind seeds, wound fixtures) whose
reference outcomes were recorded from the seed code into ``reference.json``.
One round runs every variant of every template once, in an order shuffled
from the workload seed, so the job list is a pure function of the seed and
every job has a reference to be checked against.  Running every variant
keeps the job mix, and with it the percentiles, the same for every seed.

The program receives only the generated inputs: basis files written in the
work directory, wound fixtures built there, and projectors built in memory.
CLI jobs call ``prodbasis.cli.main(argv)`` in-process with stdout captured;
the grid oracle has no CLI, so ``crosscheck_small`` calls the library.
Calls go through module attributes (``cli.main``, ``verify.…``) so that the
tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from prodbasis import cli, verify
from prodbasis.basis import ProductBasis
from prodbasis.families import cartesian_basis, gen_tiles1, gen_tiles2
from prodbasis.io import save_basis
from prodbasis.sampling import stream
from prodbasis.winding import random_wound_basis

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Certified values (overlaps, eigenvalues) may move by at most this much.
VALUE_TOL = 1e-9

WORKLOADS = ("certify_tiles", "crosscheck_small", "wind_unwind")

# Number of recorded variants per job template.
POOL = 4

# --- certify_tiles ---------------------------------------------------------
TILE_FILES = {
    "g1_6": lambda: gen_tiles1(6),
    "g1_8": lambda: gen_tiles1(8),
    "g1_10": lambda: gen_tiles1(10),
    "g1_12": lambda: gen_tiles1(12),
    "g2_3x4": lambda: gen_tiles2(3, 4),
    "g2_4x6": lambda: gen_tiles2(4, 6),
    "g2_5x8": lambda: gen_tiles2(5, 8),
    "g2_6x10": lambda: gen_tiles2(6, 10),
}
# Controls: a UPB minus one state is extendible; a Cartesian basis is complete.
CONTROL_FILES = {
    "g1_8_minus1": lambda: _drop_last(gen_tiles1(8)),
    "g2_4x6_minus1": lambda: _drop_last(gen_tiles2(4, 6)),
    "cart_4x4": lambda: cartesian_basis(4, 4),
}
CERTIFY_RESTARTS = 100

# --- crosscheck_small ------------------------------------------------------
CROSSCHECK_DIMS = ((2, 2), (2, 3))
CROSSCHECK_PER_DIMS = 16
CROSSCHECK_KEY = 4040
CROSSCHECK_RESTARTS = 60
CROSSCHECK_RESOLUTION = 64
# The see-saw result is a feasible product overlap, the grid a lower bound.
CROSSCHECK_SLACK = 1e-6

# --- wind_unwind -----------------------------------------------------------
WIND_TEMPLATES = ((2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 3, 2), (2, 4, 1), (2, 4, 2), (3, 4, 1), (4, 4, 1))
UNWIND_SOLVED = ((2, 3), (2, 4), (3, 3))      # 1-move fixtures
UNWIND_EXHAUSTED = ((3, 3), (3, 4))           # 2-move fixtures, expected exit 4
UNWIND_DEPTH = 2


def _drop_last(basis: ProductBasis) -> ProductBasis:
    return ProductBasis(basis.d_a, basis.d_b, basis.states[:-1], family=basis.family)


@dataclass(frozen=True)
class Job:
    """One call into the program; ``key`` names its reference outcome."""

    key: str
    kind: str                 # "verify", "boundent", "wind", "unwind", "crosscheck"
    argv: tuple = ()          # CLI arguments, paths relative to the work directory
    # crosscheck: (d_a, d_b, index, see-saw seed); unwind: the fixture's
    # (d_a, d_b, moves, wind seed)
    params: tuple = ()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# --- job lists -------------------------------------------------------------

def _certify_templates(s):
    jobs = []
    for name in TILE_FILES:
        jobs.append(Job(f"verify {name} seed={s}", "verify",
                        ("verify", f"{name}.json", "--format", "json",
                         "--restarts", str(CERTIFY_RESTARTS), "--seed", str(s))))
        jobs.append(Job(f"boundent {name} seed={s}", "boundent",
                        ("boundent", f"{name}.json", "--restarts", str(CERTIFY_RESTARTS), "--seed", str(s))))
    for name in CONTROL_FILES:
        jobs.append(Job(f"verify {name} seed={s}", "verify",
                        ("verify", f"{name}.json", "--format", "json",
                         "--restarts", str(CERTIFY_RESTARTS), "--seed", str(s))))
    return jobs


def _crosscheck_templates(s):
    jobs = []
    for d_a, d_b in CROSSCHECK_DIMS:
        for index in range(CROSSCHECK_PER_DIMS):
            jobs.append(Job(f"crosscheck {d_a}x{d_b} #{index} seed={s}", "crosscheck",
                            params=(d_a, d_b, index, s)))
    return jobs


def _wind_unwind_templates(i, pools):
    jobs = []
    for d_a, d_b, k in WIND_TEMPLATES:
        jobs.append(Job(f"wind {d_a}x{d_b} k={k} seed={i}", "wind",
                        ("wind", "--cartesian", str(d_a), str(d_b), "--moves", str(k),
                         "--seed", str(i), "--out", f"wound_{d_a}x{d_b}_k{k}_s{i}.json")))
    for d_a, d_b, k in unwind_fixture_templates():
        s = pools[f"{d_a}x{d_b} k={k}"][i]
        jobs.append(Job(f"unwind {d_a}x{d_b} k={k} seed={s}", "unwind",
                        ("unwind", f"fixture_{d_a}x{d_b}_k{k}_s{s}.json", "--depth", str(UNWIND_DEPTH)),
                        params=(d_a, d_b, k, s)))
    return jobs


def unwind_fixture_templates():
    return [(d_a, d_b, 1) for d_a, d_b in UNWIND_SOLVED] + [(d_a, d_b, 2) for d_a, d_b in UNWIND_EXHAUSTED]


def templates(workload: str, i: int, pools: dict) -> list[Job]:
    """Variant ``i`` (0 <= i < POOL) of every job template of a workload."""
    if workload == "certify_tiles":
        return _certify_templates(i)
    if workload == "crosscheck_small":
        return _crosscheck_templates(i)
    if workload == "wind_unwind":
        return _wind_unwind_templates(i, pools)
    raise ValueError(f"unknown workload {workload!r}")


def all_jobs(workload: str, pools: dict) -> list[Job]:
    """Every variant of every job template of a workload."""
    return [job for i in range(POOL) for job in templates(workload, i, pools)]


def job_rounds(workload: str, seed: int, pools: dict):
    """Endless rounds of jobs for a workload seed.

    Every round runs the same jobs, which lets the checker require identical
    stdout on each repeat, in an order reshuffled each round.  The sequence
    is a pure function of the arguments.
    """
    rng = random.Random(f"{workload}:{seed}")
    base = all_jobs(workload, pools)
    while True:
        order = list(base)
        rng.shuffle(order)
        yield order


# --- inputs ----------------------------------------------------------------

def crosscheck_projector(d_a: int, d_b: int, index: int) -> np.ndarray:
    """Random rank 1-3 projector, built as in acceptance criterion 4."""
    rng = stream(CROSSCHECK_KEY + 10 * d_a + d_b, index)
    dim = d_a * d_b
    rank = int(rng.integers(1, 4))
    cols = np.linalg.qr(rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank)))[0]
    return cols @ cols.conj().T


def build_inputs(workload: str, jobs: list[Job], workdir: Path) -> dict:
    """Write the files the jobs read into ``workdir``; return in-memory inputs."""
    if workload == "certify_tiles":
        for name, make in {**TILE_FILES, **CONTROL_FILES}.items():
            save_basis(make(), workdir / f"{name}.json")
        return {}
    if workload == "crosscheck_small":
        return {p: crosscheck_projector(*p) for p in {job.params[:3] for job in jobs}}
    if workload == "wind_unwind":
        for job in jobs:
            if job.kind == "unwind":
                wound, _ = random_wound_basis(*job.params)
                save_basis(wound, workdir / job.argv[1])
        return {}
    raise ValueError(f"unknown workload {workload!r}")


# --- execution -------------------------------------------------------------

def execute(job: Job, inputs: dict):
    """Run one job in the current directory; returns (exit code, stdout)."""
    if job.kind == "crosscheck":
        d_a, d_b, index, s = job.params
        q = inputs[(d_a, d_b, index)]
        ss = verify.seesaw_max_product_overlap(q, d_a, d_b, restarts=CROSSCHECK_RESTARTS, seed=s)
        grid = verify.grid_oracle_max_product_overlap(q, d_a, d_b, resolution=CROSSCHECK_RESOLUTION)
        return 0, json.dumps({"seesaw": ss.value, "grid": grid.value})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job.argv))
    return code, out.getvalue()


def _fingerprint(path: Path) -> list[float]:
    """Phase-insensitive digest of a basis file: |<r|a_i>|^2, |<r|b_i>|^2.

    ``r`` is the fixed vector (1, 2, ..., d) normalised.  Reads the JSON
    directly so that checking calls nothing in the program.
    """
    payload = json.loads(path.read_text(encoding="utf-8"))
    out = []
    for st in payload["states"]:
        for side in ("a", "b"):
            amps = st[side]
            norm = math.sqrt(sum(k * k for k in range(1, len(amps) + 1)))
            re = sum(k * x for k, (x, _) in enumerate(amps, 1)) / norm
            im = sum(k * y for k, (_, y) in enumerate(amps, 1)) / norm
            out.append(re * re + im * im)
    return out


def outcome(job: Job, code: int, stdout: str) -> dict:
    """The checked quantities of a finished job."""
    if job.kind == "crosscheck":
        return {"exit": code, **json.loads(stdout)}
    if job.kind == "verify":
        report = json.loads(stdout)["report"]
        return {"exit": code, "verdict": report["verdict"],
                "complement_dim": report["complement_dim"],
                "max_product_overlap": report["max_product_overlap"]}
    if job.kind == "boundent":
        payload = json.loads(stdout)
        return {"exit": code, "is_ppt": payload["ppt"]["is_ppt"],
                "min_pt": payload["ppt"]["min_partial_transpose_eigenvalue"],
                "range_verdict": payload["range_criterion"]["verdict"],
                "range_overlap": payload["range_criterion"]["max_product_overlap"]}
    if job.kind == "wind":
        path = Path(job.argv[job.argv.index("--out") + 1])
        moves = len(json.loads(path.read_text(encoding="utf-8"))["provenance"] or ())
        return {"exit": code, "moves": moves, "fingerprint": _fingerprint(path)}
    if job.kind == "unwind":
        depth = json.loads(stdout)["depth_used"] if code == 0 else None
        return {"exit": code, "depth_used": depth}
    raise ValueError(f"unknown job kind {job.kind!r}")


def _matches(got, want) -> bool:
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return got == want
    if isinstance(want, (int, float)):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= VALUE_TOL)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_matches, got, want))
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _matches(got[k], want[k]) for k in want)
    return got == want


def check(job: Job, code: int, stdout: str, reference: dict) -> str | None:
    """None when the job matches its reference, else a reason."""
    want = reference.get(job.key)
    if want is None:
        return "no reference outcome"
    try:
        got = outcome(job, code, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
    if job.kind == "crosscheck" and got["seesaw"] < got["grid"] - CROSSCHECK_SLACK:
        return f"see-saw {got['seesaw']!r} below grid {got['grid']!r}"
    if not _matches(got, want):
        return f"outcome {got} differs from reference {want}"
    return None
