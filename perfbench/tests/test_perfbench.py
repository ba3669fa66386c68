"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

REFERENCE = wl.load_reference()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd, *args, flags=(), script=BENCH / "run.py"):
    return subprocess.run([sys.executable, *flags, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _first_rounds(workload, seed, n=3):
    return list(itertools.islice(wl.job_rounds(workload, seed, REFERENCE["pools"]), n))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_job_list_is_a_pure_function_of_the_seed(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)
    rounds = _first_rounds(workload, 7)
    assert all(sorted(r, key=repr) == sorted(rounds[0], key=repr) for r in rounds)
    assert all(job.key in REFERENCE["outcomes"] for job in rounds[0])


def test_workload_names_agree():
    assert tuple(run.WORKLOADS) == wl.WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def _run_phase(tmp_path, monkeypatch, job, reference):
    monkeypatch.chdir(tmp_path)
    inputs = wl.build_inputs("certify_tiles" if job.kind == "verify" else "crosscheck_small",
                             [job], tmp_path)
    calibration = run.Calibration()
    return run.Phase(wl, calibration).run(iter([[job]]), 0.0, inputs, reference, {})


def _job(workload, prefix):
    return next(j for j in wl.templates(workload, 0, REFERENCE["pools"])
                if j.key.startswith(prefix))


def test_reference_outcome_passes(tmp_path, monkeypatch):
    phase = _run_phase(tmp_path, monkeypatch, _job("certify_tiles", "verify g2_3x4"),
                       REFERENCE["outcomes"])
    assert (len(phase.samples), phase.failed) == (1, 0)


def test_flipped_verdict_counts_as_failed(tmp_path, monkeypatch):
    job = _job("certify_tiles", "verify g2_3x4")
    corrupted = json.loads(json.dumps(REFERENCE["outcomes"]))
    corrupted[job.key]["verdict"] = "Extendible"
    phase = _run_phase(tmp_path, monkeypatch, job, corrupted)
    assert phase.failed / len(phase.samples) > 0


@pytest.mark.parametrize("prefix,field", [("verify g2_3x4", "max_product_overlap"),
                                          ("crosscheck 2x2 #0", "seesaw")])
def test_overlap_off_by_1e6_counts_as_failed(tmp_path, monkeypatch, prefix, field):
    workload = "certify_tiles" if prefix.startswith("verify") else "crosscheck_small"
    job = _job(workload, prefix)
    corrupted = json.loads(json.dumps(REFERENCE["outcomes"]))
    corrupted[job.key][field] += 1e-6
    phase = _run_phase(tmp_path, monkeypatch, job, corrupted)
    assert phase.failed / len(phase.samples) > 0


def test_eigenvector_calls_are_two_per_iteration(tmp_path, monkeypatch):
    job = _job("crosscheck_small", "crosscheck 2x3 #1")
    monkeypatch.chdir(tmp_path)
    inputs = wl.build_inputs("crosscheck_small", [job], tmp_path)
    with Tracer() as tracer:
        tracer.span("job", wl.execute, job, inputs)
    m = layer_metrics(tracer, 1)
    assert m["verify.seesaw.iterations"][0] > 0
    assert m["linalg.top_eigenvector.calls"][0] == 2 * m["verify.seesaw.iterations"][0]
    assert m["verify.grid_oracle.calls"][0] == 1
    assert wl.verify.seesaw_max_product_overlap.__name__ == "seesaw_max_product_overlap"
    assert not hasattr(wl.verify.seesaw_max_product_overlap, "__wrapped__")


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_metric(tmp_path, trace, section):
    proc = _bench(ROOT, "--workload", "wind_unwind", "--seed", "3",
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert not (ROOT / ".perfbench_work").exists()


def test_refuses_optimized_python(tmp_path):
    proc = _bench(ROOT, "--workload", "wind_unwind", "--seed", "1",
                  "--seconds", "1", "--trace", "0", flags=("-O",))
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(tmp_path, "--workload", "certify_tiles", "--seed", "1", "--seconds", "1",
                  "--trace", "0", script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""
