#!/usr/bin/env python3
"""Record the reference outcome of every job variant into reference.json.

Run from the repository root on the code the references should describe:

    python3 perfbench/record_reference.py

For each workload it runs every job template with every pool variant once
and stores the checked quantities (exit code, verdict, overlaps, ...).  The
2-move unwind fixtures are drawn from the first wind seeds whose unwinding
exhausts depth 2, so their expected exit code is 4.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, WORKLOADS, prepare_process

EXHAUSTED_SEARCH = 200


def exhausted_seeds(wl, d_a: int, d_b: int, k: int) -> list[int]:
    from prodbasis.winding import random_wound_basis, unwind

    seeds = []
    for s in range(EXHAUSTED_SEARCH):
        if unwind(random_wound_basis(d_a, d_b, k, s)[0], wl.UNWIND_DEPTH) is None:
            seeds.append(s)
            if len(seeds) == wl.POOL:
                return seeds
    raise RuntimeError(f"fewer than {wl.POOL} exhausted {d_a}x{d_b} k={k} fixtures")


def main() -> int:
    prepare_process()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    pools = {}
    for d_a, d_b, k in wl.unwind_fixture_templates():
        key = f"{d_a}x{d_b} k={k}"
        pools[key] = list(range(wl.POOL)) if k == 1 else exhausted_seeds(wl, d_a, d_b, k)

    outcomes = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        os.chdir(tmp)
        try:
            for workload in WORKLOADS:
                jobs = wl.all_jobs(workload, pools)
                inputs = wl.build_inputs(workload, jobs, Path(tmp))
                for job in jobs:
                    code, out = wl.execute(job, inputs)
                    outcomes[job.key] = wl.outcome(job, code, out)
                    print(f"{job.key}: {outcomes[job.key]}", file=sys.stderr)
        finally:
            os.chdir(cwd)
    payload = {"pools": pools, "outcomes": dict(sorted(outcomes.items()))}
    wl.REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
