"""Command-line front end.

Reports go to stdout, diagnostics to stderr.  Exit codes partition the
outcomes:

  0  success (verify: complete basis or numerically unextendible)
  1  malformed or inconsistent input (bad file, non-orthonormal basis,
     the one given to wind or unwind included, missing tile metadata, a
     count or tolerance flag out of range, an unwritable --out path), or a
     request too large to allocate (such as a --restarts count whose
     starting points do not fit in memory)
  2  construction parameters violate a family's dimension bounds, or
     argparse rejects the command line (usage error)
  3  verify found an extendible basis (product witness in the complement)
  4  inconclusive outcome (verify margin band, unwinder exhausted)
  5  bound-entanglement analysis on a complete or extendible basis
  6  operation requires a complete product basis

Commands raise :class:`~prodbasis.errors.ProductBasisError` for bad input;
:func:`main` alone maps the error class to its exit code (``_EXIT_CODES``),
and maps ``MemoryError`` to exit 1.

Every --seed flag defaults to 0; identical seeds and inputs produce
byte-identical reports.

:func:`main` builds the argument parser on its first call and reuses it, so
an in-process caller pays for it once per process.  Each call dispatches to
the module's ``cmd_<command>`` function as bound at that call.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .boundent import is_ppt, range_criterion_report, upb_density_state
from .config import TOLERANCES
from .errors import CompleteBasisInput, IncompleteBasis, InvalidDimension, ProductBasisError
from .families import cartesian_basis, gen_tiles1, gen_tiles2
from .io import complex_to_json, json_text, load_basis, save_basis, write_json
from .render import render_tiles
from .verify import Verdict, check_upb, overlap_verdict
from .winding import move_to_record, unwind, wind_basis

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INVALID_DIMENSION = 2
EXIT_EXTENDIBLE = 3
EXIT_INCONCLUSIVE = 4
EXIT_NOT_UPB = 5
EXIT_INCOMPLETE = 6

# The exit code of each error class a command raises, most specific first.
_EXIT_CODES = (
    (InvalidDimension, EXIT_INVALID_DIMENSION),
    (IncompleteBasis, EXIT_INCOMPLETE),
    (ProductBasisError, EXIT_BAD_INPUT),
)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _warn_capped(capped: int, restarts: int) -> None:
    if capped:
        print(f"warning: {capped} of {restarts} see-saw restarts stopped at the iteration cap", file=sys.stderr)


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ProductBasisError(f"{flag} must be at least {least}, got {value}")


def cmd_construct(args) -> int:
    family = args.family
    if family == "gentiles1":
        if args.n is None:
            raise ProductBasisError("--n is required for gentiles1")
        if args.m is not None:
            raise ProductBasisError("--m is not used by gentiles1")
        basis = gen_tiles1(args.n)
        default_name = f"gentiles1_{args.n}.json"
    else:
        if args.m is None or args.n is None:
            raise ProductBasisError(f"--m and --n are required for {family}")
        build = gen_tiles2 if family == "gentiles2" else cartesian_basis
        basis = build(args.m, args.n)
        default_name = f"{family}_{args.m}x{args.n}.json"
    out = args.out or default_name
    save_basis(basis, out)
    print(f"wrote {len(basis)} states on {basis.d_a}x{basis.d_b} to {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_at_least("--restarts", args.restarts, 1)
    if not 0.0 < args.eta < 1.0:  # NaN fails
        raise ProductBasisError(f"--eta must be a finite number strictly between 0 and 1, got {args.eta}")
    if not 0.0 <= args.tol < float("inf"):  # NaN fails
        raise ProductBasisError(f"--tol must be a finite number >= 0, got {args.tol}")
    basis = load_basis(args.path)
    tolerances = dataclasses.replace(TOLERANCES, orthonormality=args.tol, upb_margin=args.eta)
    report = check_upb(basis, restarts=args.restarts, seed=args.seed, tol=tolerances)
    _warn_capped(report.capped_restarts, args.restarts)

    witness = report.witness_state
    payload = {
        "basis": {
            "dims": [basis.d_a, basis.d_b],
            "family": basis.family.value,
            "states": len(basis),
        },
        "report": {
            "verdict": report.verdict.value,
            "gram_max_offdiag": report.gram_max_offdiag,
            "gram_max_diag_error": report.gram_max_diag_error,
            "span_rank": report.span_rank,
            "complement_dim": report.complement_dim,
            "max_product_overlap": report.max_product_overlap,
            "witness": None if witness is None else {"a": complex_to_json(witness.a),
                                                     "b": complex_to_json(witness.b)},
            "restarts_used": report.restarts_used,
            "iterations_total": report.iterations_total,
            "capped_restarts": report.capped_restarts,   # json only; the text report leaves it out
            "seed": report.seed,
        },
        "config": {"restarts": args.restarts, "seed": args.seed, "eta": args.eta, "tol": args.tol},
    }
    if args.format == "json":
        print(json_text(payload))
    else:
        b, r = payload["basis"], payload["report"]
        print(f"dims: {b['dims'][0]} {b['dims'][1]}")
        print(f"family: {b['family']}")
        print(f"states: {b['states']}")
        for key in ("gram_max_offdiag", "gram_max_diag_error", "span_rank",
                    "complement_dim", "max_product_overlap", "restarts_used",
                    "iterations_total", "seed"):
            print(f"{key}: {r[key]}")
        print(f"verdict: {r['verdict']}")
    if report.verdict in (Verdict.UPB_NUMERIC, Verdict.COMPLETE_BASIS):
        return EXIT_OK
    if report.verdict is Verdict.EXTENDIBLE:
        return EXIT_EXTENDIBLE
    return EXIT_INCONCLUSIVE


def cmd_render(args) -> int:
    print(render_tiles(load_basis(args.path)))
    return EXIT_OK


def cmd_boundent(args) -> int:
    _require_at_least("--restarts", args.restarts, 1)
    basis = load_basis(args.path)
    try:
        rho = upb_density_state(basis)
    except CompleteBasisInput:
        verdict = Verdict.COMPLETE_BASIS
    else:
        # The range of the complement state is the complement, so the range
        # see-saw also decides whether the basis is unextendible.
        range_report = range_criterion_report(rho, restarts=args.restarts, seed=args.seed)
        _warn_capped(range_report.capped_restarts, args.restarts)
        verdict = overlap_verdict(range_report.max_product_overlap)
    if verdict in (Verdict.COMPLETE_BASIS, Verdict.EXTENDIBLE):
        return _fail(
            f"basis verdict is {verdict.value}; the complement state needs an unextendible basis",
            EXIT_NOT_UPB,
        )
    if verdict is Verdict.INCONCLUSIVE:
        return _fail("unextendibility check was inconclusive", EXIT_INCONCLUSIVE)

    ppt_ok, min_pt = is_ppt(rho)
    payload = {
        "dims": [basis.d_a, basis.d_b],
        "states": len(basis),
        "density": {"trace": 1.0, "rank": basis.dim - len(basis)},
        "ppt": {"is_ppt": bool(ppt_ok), "min_partial_transpose_eigenvalue": min_pt},
        "range_criterion": {
            "verdict": range_report.verdict.value,
            "range_rank": range_report.range_rank,
            "max_product_overlap": range_report.max_product_overlap,
            "capped_restarts": range_report.capped_restarts,
        },
        "seed": args.seed,
    }
    if args.out:  # before the report, so a failed write leaves stdout empty
        write_json({"dims": [rho.d_a, rho.d_b], "matrix": complex_to_json(rho.matrix)}, args.out)
    print(json_text(payload))
    if args.out:
        print(f"wrote density matrix to {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_wind(args) -> int:
    if (args.path is None) == (args.cartesian is None):
        raise ProductBasisError("provide a basis file or --cartesian dA dB, not both")
    _require_at_least("--moves", args.moves, 0)
    basis = load_basis(args.path) if args.cartesian is None else cartesian_basis(*args.cartesian)
    wound, moves = wind_basis(basis, args.moves, args.seed)
    save_basis(wound, args.out)
    print(f"applied {len(moves)} winding moves (seed {args.seed}); wrote {args.out}")
    return EXIT_OK


def cmd_unwind(args) -> int:
    _require_at_least("--depth", args.depth, 0)
    basis = load_basis(args.path)
    sequence = unwind(basis, args.depth)
    if sequence is None:
        print(f"not unwound within depth {args.depth}")
        return EXIT_INCONCLUSIVE
    payload = {
        "moves": [move_to_record(m) for m in sequence],
        "depth_used": len(sequence),
        "certified": True,
    }
    print(json_text(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodbasis",
        description="Construct, verify, render and wind orthogonal product bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a basis family and write it to a file")
    p.add_argument("--family", required=True, choices=["gentiles1", "gentiles2", "cartesian"])
    p.add_argument("--n", type=int, help="B-side dimension (both sides for gentiles1)")
    p.add_argument("--m", type=int, help="A-side dimension (gentiles2, cartesian)")
    p.add_argument("--out", help="output path (default derived from family and dims)")

    p = sub.add_parser("verify", help="orthonormality, rank and unextendibility report")
    p.add_argument("path")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=TOLERANCES.orthonormality, help="orthonormality tolerance")
    p.add_argument("--eta", type=float, default=TOLERANCES.upb_margin, help="unextendibility margin")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("render", help="ASCII tile diagram of a basis file")
    p.add_argument("path")

    p = sub.add_parser("boundent", help="complement density state, PPT and range criterion")
    p.add_argument("path")
    p.add_argument("--restarts", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the density matrix to this path")

    p = sub.add_parser("wind", help="apply random winding moves to a complete basis")
    p.add_argument("path", nargs="?", help="input basis file (complete product basis)")
    p.add_argument("--cartesian", nargs=2, type=int, metavar=("DA", "DB"),
                   help="start from the Cartesian basis of these dims")
    p.add_argument("--moves", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("unwind", help="search for a certified unwinding sequence")
    p.add_argument("path")
    p.add_argument("--depth", type=int, default=2)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ProductBasisError as exc:
        return _fail(str(exc), next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}" if str(exc) else "out of memory", EXIT_BAD_INPUT)


if __name__ == "__main__":
    sys.exit(main())
