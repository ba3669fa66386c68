"""Per-layer tracing from outside the program.

The benchmark wraps the public functions of each ``prodbasis`` module at
every module attribute that binds them (modules import by name, so
``prodbasis.verify.top_eigenvector`` and ``prodbasis.linalg.top_eigenvector``
are separate bindings of one function).  Each call is a span whose parent is
the innermost open span; a span's self time is its duration minus the
durations of its direct children.  Spans are aggregated in memory as they
close, and the originals are restored when tracing ends.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

# Layer -> public functions traced in it.
TRACED = {
    "verify": ("gram_matrix", "check_orthonormal", "complement_projector", "check_upb",
               "seesaw_max_product_overlap", "grid_oracle_max_product_overlap"),
    "linalg": ("top_eigenvector", "partial_transpose"),
    "boundent": ("upb_density_state", "is_ppt", "range_criterion_report"),
    "sampling": ("stream",),
    "winding": ("enumerate_splits", "validate_split", "apply_winding_move", "is_cartesian",
                "unwind", "wind_basis"),
    "io": ("load_basis", "save_basis"),
    "families": ("gen_tiles1", "gen_tiles2", "cartesian_basis"),
    "cli": ("main",),
}


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Span aggregates: calls, total and self seconds per span name.

    ``under[(name, ancestor)]`` counts calls of ``name`` made while a span
    named ``ancestor`` was open; ``counts`` holds work counters read from
    arguments and results at the same boundaries.
    """

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()
        self.self_time = Counter()
        self.under = Counter()
        self.counts = Counter()
        self._stack = []          # open spans: [name, child seconds]
        self._restore = []        # (module, attribute, original)

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = [name, 0.0]
        ancestors = {f[0] for f in self._stack}
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._stack.pop()
            self.calls[name] += 1
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[1]
            for ancestor in ancestors:
                self.under[(name, ancestor)] += 1
            if self._stack:
                self._stack[-1][1] += elapsed

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "io.load_basis":
                tracer.counts["io.bytes_read"] += _file_size(args[0] if args else kwargs.get("path"))
            result = tracer.span(name, fn, *args, **kwargs)
            if name == "verify.seesaw_max_product_overlap":
                tracer.counts["seesaw.restarts"] += result.restarts_used
                tracer.counts["seesaw.iterations"] += result.iterations_total
            elif name == "winding.enumerate_splits":
                tracer.counts["winding.splits_found"] += len(result)
            elif name == "winding.unwind":
                tracer.counts["winding.unwind.solved"] += result is not None
            elif name == "io.save_basis":
                tracer.counts["io.bytes_written"] += _file_size(args[1] if len(args) > 1 else kwargs.get("path"))
            return result

        return traced

    def install(self):
        """Replace every binding of each traced function with a wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "prodbasis" or n.startswith("prodbasis."))]
        originals = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"prodbasis.{layer}"]
            for fname in names:
                fn = getattr(module, fname)
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        return self

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, jobs: int) -> dict:
    """Per-layer metrics, each a mean per job unless it is a ratio.

    ``jobs`` is the number of traced jobs; times are in ms of wall clock.
    """
    def ms(name):
        return _ratio(t.total[name] * 1e3, jobs)

    def self_ms(name):
        return _ratio(t.self_time[name] * 1e3, jobs)

    def per_job(n):
        return _ratio(n, jobs)

    iterations = t.counts["seesaw.iterations"]
    validate_in_enum = t.under[("winding.validate_split", "winding.enumerate_splits")]
    return {
        "verify.seesaw.ms": (ms("verify.seesaw_max_product_overlap"), "ms"),
        "verify.seesaw.calls": (per_job(t.calls["verify.seesaw_max_product_overlap"]), "count"),
        "verify.seesaw.restarts": (per_job(t.counts["seesaw.restarts"]), "count"),
        "verify.seesaw.iterations": (per_job(iterations), "count"),
        "verify.seesaw.us_per_iteration": (
            _ratio(t.total["verify.seesaw_max_product_overlap"] * 1e6, iterations), "us"),
        "verify.grid_oracle.ms": (ms("verify.grid_oracle_max_product_overlap"), "ms"),
        "verify.grid_oracle.calls": (per_job(t.calls["verify.grid_oracle_max_product_overlap"]), "count"),
        "verify.check_upb.self_ms": (self_ms("verify.check_upb"), "ms"),
        "verify.complement_projector.ms": (ms("verify.complement_projector"), "ms"),
        "verify.gram_matrix.calls": (per_job(t.calls["verify.gram_matrix"]), "count"),
        "linalg.top_eigenvector.ms": (ms("linalg.top_eigenvector"), "ms"),
        "linalg.top_eigenvector.calls": (per_job(t.calls["linalg.top_eigenvector"]), "count"),
        "linalg.partial_transpose.ms": (ms("linalg.partial_transpose"), "ms"),
        "boundent.upb_density_state.ms": (ms("boundent.upb_density_state"), "ms"),
        "boundent.is_ppt.ms": (ms("boundent.is_ppt"), "ms"),
        "boundent.range_criterion.self_ms": (self_ms("boundent.range_criterion_report"), "ms"),
        "sampling.stream.calls": (per_job(t.calls["sampling.stream"]), "count"),
        "winding.enumerate_splits.ms": (ms("winding.enumerate_splits"), "ms"),
        "winding.enumerate_splits.calls": (per_job(t.calls["winding.enumerate_splits"]), "count"),
        "winding.splits_found": (per_job(t.counts["winding.splits_found"]), "count"),
        "winding.validate_split.ms": (ms("winding.validate_split"), "ms"),
        "winding.validate_split.calls": (per_job(t.calls["winding.validate_split"]), "count"),
        "winding.split_yield": (_ratio(t.counts["winding.splits_found"], validate_in_enum), "ratio"),
        "winding.wind_basis.self_ms": (self_ms("winding.wind_basis"), "ms"),
        "winding.apply_winding_move.ms": (ms("winding.apply_winding_move"), "ms"),
        "winding.apply_winding_move.calls": (per_job(t.calls["winding.apply_winding_move"]), "count"),
        "winding.is_cartesian.ms": (ms("winding.is_cartesian"), "ms"),
        "winding.unwind.self_ms": (self_ms("winding.unwind"), "ms"),
        "winding.unwind.moves_tried": (
            per_job(t.under[("winding.apply_winding_move", "winding.unwind")]), "count"),
        "winding.unwind.solved_ratio": (
            _ratio(t.counts["winding.unwind.solved"], t.calls["winding.unwind"]), "ratio"),
        "io.load_basis.ms": (ms("io.load_basis"), "ms"),
        "io.bytes_read": (per_job(t.counts["io.bytes_read"]), "B"),
        "io.save_basis.ms": (ms("io.save_basis"), "ms"),
        "io.bytes_written": (per_job(t.counts["io.bytes_written"]), "B"),
        "families.construct.ms": (
            ms("families.gen_tiles1") + ms("families.gen_tiles2") + ms("families.cartesian_basis"), "ms"),
        "cli.self_ms": (self_ms("cli.main"), "ms"),
    }
