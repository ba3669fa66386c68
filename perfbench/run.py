#!/usr/bin/env python3
"""Benchmark of prodbasis: seeded closed-loop workloads, checked against references.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify_tiles --seed 1 --seconds 40 --trace 0

One client in one process runs the workload's jobs back to back, in rounds
that each run every job template once, until the next round would end past
``--seconds``.  A fixed calibration kernel timed after every job measures
the host's speed; time metrics are scaled by it (see ``Calibration``).
Every job is checked against its recorded reference outcome; a mismatch
counts as failed and the run goes on.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run measures its first half untraced and its second
half traced, and reports the difference as the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("certify_tiles", "crosscheck_small", "wind_unwind")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread: faster and steadier than more on these small matrices.
BLAS_THREADS = 1
# Set-up steps are repeated and the median of each taken.
IMPORT_REPEATS = 5
BUILD_REPEATS = 3
IMPORT_TIMEOUT_S = 60
# An untraced run has at least this many jobs, so 10 lie above its p90.
MIN_JOBS = 100
# Failure reasons echoed to stderr.
MAX_REPORTED_FAILURES = 5


def prepare_process() -> int:
    """Run hygiene that must precede importing numpy; returns the BLAS threads.

    Refuses ``python -O``: the see-saw monotonicity check, the winding
    orthonormality check and the unwinder's certification are ``assert``
    statements in the program, and ``-O`` would drop them silently.
    """
    if sys.flags.optimize:
        raise SystemExit("error: the benchmark refuses to run under python -O (it strips asserts)")
    os.environ.pop("PB_SEED", None)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_sha() -> str:
    """HEAD of the repository holding the benchmark, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds(calibration) -> float:
    """Median wall time of a fresh interpreter that imports prodbasis.

    Measured in child interpreters because numpy cannot be imported twice in
    one process; each child is waited for.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        calibration.sample()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import prodbasis"], env=env, cwd=ROOT,
                       check=True, timeout=IMPORT_TIMEOUT_S)
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Calibration:
    """A fixed numpy-plus-interpreter kernel timed between jobs.

    The host's speed drifts by up to 2x over minutes and by about 25% within
    a second, because other tenants share its cores.  The kernel does the
    same kind of work as the jobs (small ``eigh`` calls and a Python loop)
    but calls nothing in the program, so the mean of its times over a run
    measures the host's speed during that run.  Time metrics are scaled to a
    host on which the kernel takes ``NOMINAL_S``.
    """

    NOMINAL_S = 2.5e-3
    STEPS = 100

    def __init__(self):
        import numpy as np  # after prepare_process has pinned the BLAS threads

        rng = np.random.default_rng(0)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        self._np = np
        self._m = m + m.conj().T
        self.samples = []
        self.sample()  # warm-up: the first call pays numpy's lazy set-up
        self.samples.clear()

    def sample(self):
        np, m = self._np, self._m
        t0 = perf_counter()
        v = np.ones(6, dtype=complex)
        for _ in range(self.STEPS):
            v = np.linalg.eigh(m + 1e-3 * np.outer(v, v.conj()))[1][:, -1]
            sum(abs(x) for x in v)
        self.samples.append(perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor that turns a measured time into a nominal-host time."""
        return self.NOMINAL_S / statistics.fmean(self.samples)


class Phase:
    """Jobs run back to back, in whole rounds, with a calibration sample after each.

    Stops at the end of the round after which another round would overrun
    ``seconds``, once at least ``min_jobs`` jobs have run.
    """

    def __init__(self, wl, calibration, tracer=None):
        self.wl = wl
        self.calibration = calibration
        self.tracer = tracer
        self.samples = []        # seconds per job
        self.failed = 0
        self.failures = []       # (job key, reason)

    def run(self, rounds, seconds, inputs, reference, seen, min_jobs=1):
        wl, tracer = self.wl, self.tracer
        start = perf_counter()
        for jobs in rounds:
            round_start = perf_counter()
            for job in jobs:
                t0 = perf_counter()
                try:
                    if tracer is None:
                        code, out = wl.execute(job, inputs)
                    else:
                        code, out = tracer.span("job", wl.execute, job, inputs)
                except Exception:  # a crashing job is a failed job; the run goes on
                    self.samples.append(perf_counter() - t0)
                    self._fail(job, traceback.format_exc(limit=3))
                    continue
                self.samples.append(perf_counter() - t0)
                self.calibration.sample()
                reason = wl.check(job, code, out, reference)
                if reason is None and seen.setdefault(job.key, out) != out:
                    reason = "stdout differs from an earlier run of the same job"
                if reason is not None:
                    self._fail(job, reason)
            now = perf_counter()
            if len(self.samples) >= min_jobs and now - start + (now - round_start) > seconds:
                break
        return self

    def _fail(self, job, reason):
        self.failed += 1
        self.failures.append((job.key, reason))

    @property
    def jobs_per_s(self) -> float:
        """Jobs per second of job time, scaled to the nominal host."""
        return len(self.samples) / sum(self.samples) / self.calibration.scale


def percentiles(samples):
    """(p50, p90) in ms by ``statistics.quantiles`` with 10 cut points."""
    q = statistics.quantiles([s * 1e3 for s in samples], n=10)
    return q[4], q[8]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "prodbasis" / "__init__.py").is_file():
        print(f"error: no prodbasis sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = prepare_process()

    setup_calibration = Calibration()
    import_s = import_seconds(setup_calibration)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import prodbasis
    import workloads as wl
    reference = wl.load_reference()

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        all_jobs = wl.all_jobs(args.workload, reference["pools"])
        builds = []
        for _ in range(BUILD_REPEATS):
            setup_calibration.sample()
            t = perf_counter()
            inputs = wl.build_inputs(args.workload, all_jobs, workdir)
            builds.append(perf_counter() - t)
        setup_s = import_s + statistics.median(builds)

        jobs = wl.job_rounds(args.workload, args.seed, reference["pools"])
        seen = {}
        outcomes = reference["outcomes"]
        if args.trace:
            from tracer import Tracer, layer_metrics
            plain = Phase(wl, Calibration()).run(jobs, args.seconds / 2, inputs, outcomes, seen)
            with Tracer() as tracer:
                traced = Phase(wl, Calibration(), tracer).run(
                    jobs, args.seconds / 2, inputs, outcomes, seen)
            phases = [plain, traced]
            scale = traced.calibration.scale
            metrics = {name: (value * scale if unit in ("ms", "us") else value, unit)
                       for name, (value, unit) in layer_metrics(tracer, len(traced.samples)).items()}
            metrics["trace.untraced_jobs_per_s"] = (plain.jobs_per_s, "1/s")
            metrics["trace.traced_jobs_per_s"] = (traced.jobs_per_s, "1/s")
            metrics["trace.overhead_pct"] = (
                100.0 * (plain.jobs_per_s - traced.jobs_per_s) / plain.jobs_per_s, "%")
        else:
            run = Phase(wl, Calibration()).run(jobs, args.seconds, inputs, outcomes, seen, MIN_JOBS)
            phases = [run]
            scale = run.calibration.scale
            p50, p90 = percentiles(run.samples)
            metrics = {
                "jobs_per_s": (run.jobs_per_s, "1/s"),
                "job_p50_ms": (p50 * scale, "ms"),
                "job_p90_ms": (p90 * scale, "ms"),
                "setup_s": (setup_s * setup_calibration.scale, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    attempted = sum(len(p.samples) for p in phases)
    failed = sum(p.failed for p in phases)
    for key, reason in [f for p in phases for f in p.failures][:MAX_REPORTED_FAILURES]:
        print(f"FAILED {key}: {reason}", file=sys.stderr)
    env = {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": blas_threads, "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "prodbasis": prodbasis.__version__,
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace} jobs={attempted} "
          f"fail_ratio={failed / attempted:.4f} ({failed}/{attempted})")
    for p in phases:
        cal = p.calibration.samples
        print(f"# calibration: mean {statistics.fmean(cal) * 1e3:.4g} ms over {len(cal)} samples; "
              f"times below are scaled by {p.calibration.scale:.4g} to the nominal host")
    for name, (value, unit) in metrics.items():
        print(f"#   {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
