"""Record the golden output digests that ``run.py`` checks for ``GOLDEN_SEEDS``.

Usage, from the repository root: ``python3 bench/golden.py``.  Runs one
untraced pass of every workload per seed, requires its structural checks to
pass and stores, per job, the SHA-256 that ``check.golden_digest`` gives,
next to the digest of the generated inputs.  Re-record only for a change
that is meant to alter output bytes or inputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
from workloads import Workload


def record(workload: Workload, seed: int, work: Path) -> dict:
    """Run one pass of the workload on this seed; return its golden entry."""
    trial = run.Trial(workload, seed, work)
    first_pass = trial.run_pass(0, trace=False)
    problems, _, _ = run.job_failures(trial, [first_pass], None)
    if any(problems):
        raise SystemExit(f"{workload.name} seed {seed}: {problems}")
    return {
        "inputs": trial.input_digest,
        "jobs": [run.check.golden_digest(first_pass["dir"], argv) for argv in trial.jobs],
    }


def main() -> int:
    golden: dict = {}
    for name, workload in run.WORKLOADS.items():
        for seed in run.GOLDEN_SEEDS:
            work = run.WORK / f"golden-{name}-seed{seed}"
            try:
                golden.setdefault(name, {})[str(seed)] = record(workload, seed, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{name} seed {seed} recorded")
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
