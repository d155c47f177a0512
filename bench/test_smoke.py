"""Smoke test of the benchmark at tiny sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_smoke.py``.
Checks that every metric named in ``BENCHMARK.json`` is emitted for every
workload, that traced and untraced passes write identical bytes, that the
golden digests catch changed outputs and stale inputs, and that the
benchmark refuses to run without the package source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "numeric-resample": {"n": 60, "k": 6, "n_numeric": 4},
    "text-crossval": {"n": 100, "n_words": 30, "k": 6},
    "large-profile": {"n": 120, "k": 10, "n_numeric": 4},
}
SEED = 100  # outside run.GOLDEN_SEEDS: tiny inputs have no golden record
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_and_tracing_changes_no_output(name):
    workload = dataclasses.replace(WORKLOADS[name], params=TINY[name])
    work = run.WORK / f"smoke-{name}"
    try:
        plain, plain_record = run.measure(workload, SEED, 0, False, work)
        traced, traced_record = run.measure(workload, SEED, 0, True, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0, result
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    assert plain_record["passes"] == 1 and traced_record["traced_passes"] == 1
    digests = plain_record["pass_digests"] + traced_record["pass_digests"]
    assert len(digests) == 3 and len(set(digests)) == 1


def test_golden_json_records_every_job_of_every_golden_seed():
    recorded = json.loads(run.GOLDEN.read_text())
    empty = run.check.sha256_text("")
    for name in WORKLOADS:
        assert sorted(recorded[name], key=int) == [str(seed) for seed in run.GOLDEN_SEEDS]
        for entry in recorded[name].values():
            assert empty not in entry["jobs"]


def test_golden_digests_catch_a_wrong_profile_and_stale_inputs():
    workload = dataclasses.replace(WORKLOADS["large-profile"], params=TINY["large-profile"])
    work = run.WORK / "smoke-golden"
    try:
        entry = golden.record(workload, SEED, work)
        trial = run.Trial(workload, SEED, work)
        first = trial.run_pass(0, trace=False)
        assert not any(run.job_failures(trial, [first], entry)[0])

        stale = {**entry, "inputs": "0" * 64}
        assert all(run.job_failures(trial, [first], stale)[0])

        info = trial.jobs[0]
        assert info[0] == "info"
        out = first["dir"] / info[info.index("--out") + 1]
        prof = json.loads(out.read_text())
        out.write_text(json.dumps({**prof, "card": prof["card"] + 1e-9}))
        problems = run.job_failures(trial, [first], entry)[0]
        assert problems[0] == ["outputs differ from the golden digest"]
        assert not any(problems[1:])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "large-profile", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
