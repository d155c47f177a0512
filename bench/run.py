"""Benchmark of the mlresample command line on seeded MULAN workloads.

Run from the repository root:

    python3 bench/run.py --workload numeric-resample --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` (see ``workloads.py``).
Each pass runs the workload's CLI jobs back to back through
``mlresample.cli.main`` in one fresh child process; passes repeat until
``--seconds`` have gone by, and the outputs of every pass are checked.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, medians over the passes: ``wall_s`` (the jobs' summed wall time),
``inst_per_s`` (instances entering the jobs per second of ``wall_s``),
``peak_rss_mb`` (the child's ``ru_maxrss``), ``written_mb`` (bytes the jobs
wrote) and ``setup_s`` (interpreter launch plus ``import mlresample.cli``,
median of several cold starts spread over the run).  ``failed /
attempted`` counts jobs and is the error rate.

Times are in reference seconds (see ``REFERENCE_S``): the child runs a
fixed speed probe before the first job and after each job, and every time
is scaled by how much slower or faster than ``REFERENCE_S`` the probe ran
around it.  The unscaled times are in the record.

With ``--trace 1`` untraced and traced passes alternate; the traced ones
wrap each layer from outside the package (``tracer.py``) and give the
per-layer metrics, and ``trace.overhead_s`` is traced minus untraced
``wall_s``.  The line before the result records the machine, the library
versions and the input's shape.  MB means 10**6 bytes.

To print the end-to-end metrics of every workload:

    for w in numeric-resample text-crossval large-profile; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
GOLDEN_SEEDS = range(20)  # the seeds whose output digests golden.json records

# Timings are reported in reference seconds: each measured time is scaled by
# REFERENCE_S over the time the child's speed probe took around it.  On a
# shared machine whose speed drifts by a quarter over minutes this cancels
# the drift, which no repetition within one run can; the raw times are kept
# in the record.
REFERENCE_S = 0.025
SETUP_SAMPLES = 15
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 100  # a hung pass still ends the run within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_package():
    """Import mlresample from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mlresample" / "__init__.py").is_file():
        raise SystemExit(f"error: no mlresample package under {src}")
    sys.path.insert(0, str(src))
    import mlresample

    return mlresample


mlresample = import_package()

import check  # noqa: E402  (needs mlresample on the path)
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS if v in os.environ},
        "child_threads": "1",
        "git_commit": git_commit(),
    }


class Trial:
    """One benchmark run: a workload, a seed and a scratch directory."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.work = work
        self.jobs = workload.jobs(seed)
        src_root = Path(mlresample.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src_root), **{v: "1" for v in THREAD_VARS})
        shutil.rmtree(work, ignore_errors=True)
        (work / "logs").mkdir(parents=True)
        self.shape = workload.generate(seed, work / "input")
        self.input_digest = check.combined_digest(work / "input", ["data.arff", "data.xml"])

    def setup_sample(self) -> float | None:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", "import mlresample.cli"],
            env=self.env,
            cwd=self.work,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        return elapsed if proc.returncode == 0 else None

    def run_pass(self, index: int, trace: bool) -> dict:
        """Run the jobs once in a fresh child; return its result and output digests."""
        pass_dir = self.work / f"pass{index}"
        pass_dir.mkdir()
        logs = self.work / "logs"
        spec = {
            "jobs": self.jobs,
            "trace": trace,
            "result": str(logs / f"pass{index}.result.json"),
            "spans": str(logs / f"pass{index}.spans.json"),
        }
        spec_path = logs / f"pass{index}.spec.json"
        spec_path.write_text(json.dumps(spec))
        result = trace_dump = None
        with open(logs / f"pass{index}.log", "w") as log:
            try:
                subprocess.run(
                    [sys.executable, str(BENCH / "child.py"), str(spec_path)],
                    cwd=pass_dir,
                    env=self.env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=CHILD_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                pass
        if Path(spec["result"]).is_file():
            result = json.loads(Path(spec["result"]).read_text())
        if trace and Path(spec["spans"]).is_file():
            trace_dump = json.loads(Path(spec["spans"]).read_text())
        files = sorted(p for p in pass_dir.rglob("*") if p.is_file())
        return {
            "index": index,
            "dir": pass_dir,
            "result": result,
            "trace_dump": trace_dump,
            "digests": {p.relative_to(pass_dir).as_posix(): check.file_digest(p) for p in files},
            "written": sum(p.stat().st_size for p in files),
        }


def job_failures(trial: Trial, passes: list[dict], golden: dict | None) -> tuple[list[list[str]], list[int], int]:
    """Problems per attempted job, in pass order, plus what the first pass's checks measured.

    Returns (problems, rows entering each job, report bytes of the first
    pass).  Every pass must reproduce the first pass's bytes.  Where
    ``golden`` records this seed, the first pass's jobs must match it, and
    inputs that differ from the recorded ones fail every job of that pass:
    ``golden.json`` is then stale and has to be re-recorded on purpose.
    """
    first = passes[0]
    checked = [check.check_job(first["dir"], argv) for argv in trial.jobs]
    rows_in = [rows for _, rows in checked]
    owner = {name: i for i, argv in enumerate(trial.jobs) for name in check.job_outputs(argv)}
    problems = []
    for p in passes:
        jobs = p["result"]["jobs"] if p["result"] else [None] * len(trial.jobs)
        for i, (argv, job) in enumerate(zip(trial.jobs, jobs)):
            found = []
            if job is None:
                found.append("child process produced no result")
            elif job["error"]:
                found.append(job["error"].strip().splitlines()[-1])
            elif job["code"] != 0:
                found.append(f"exit code {job['code']}")
            if p is first:
                found += checked[i][0]
                if golden is not None and golden["inputs"] != trial.input_digest:
                    found.append("generated inputs differ from the ones recorded in golden.json")
                elif golden is not None and not found:
                    if check.golden_digest(first["dir"], argv) != golden["jobs"][i]:
                        found.append("outputs differ from the golden digest")
            else:
                differing = {n for n in set(first["digests"]) | set(p["digests"])
                             if first["digests"].get(n) != p["digests"].get(n)}
                if any(owner.get(n) == i for n in differing):
                    found.append(f"pass {p['index']} wrote other bytes than pass 0")
            problems.append(found)
    reports = [first["dir"] / n for argv in trial.jobs for n in check.job_outputs(argv) if n.endswith(".json")]
    report_bytes = sum(p.stat().st_size for p in reports if p.is_file())
    return problems, rows_in, report_bytes


def median(values):
    return statistics.median(values) if values else float("nan")


def speed_factor(passes: list[dict]) -> float:
    """REFERENCE_S over the mean probe time of the given passes."""
    probes = [t for p in passes if p["result"] for t in p["result"]["probe_s"]]
    return REFERENCE_S / statistics.fmean(probes) if probes else float("nan")


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Run the benchmark; return (result line, record)."""
    trial = Trial(workload, seed, work)
    golden = json.loads(GOLDEN.read_text())[workload.name][str(seed)] if seed in GOLDEN_SEEDS else None
    trial.setup_sample()  # warm the file cache and bytecode; not counted
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[float | None] = []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        untraced.append(trial.run_pass(len(untraced) + len(traced), trace=False))
        if trace:
            traced.append(trial.run_pass(len(untraced) + len(traced), trace=True))
        else:
            setups += [trial.setup_sample() for _ in range(SETUP_PER_PASS)]
        for p in (untraced[-1], *traced[-1:]):
            if p["index"] > 0:
                shutil.rmtree(p["dir"])
    if not trace:
        while len(setups) < SETUP_SAMPLES:
            setups.append(trial.setup_sample())

    passes = sorted(untraced + traced, key=lambda p: p["index"])
    problems, rows_in, report_bytes = job_failures(trial, passes, golden)
    attempted = len(problems)
    failed = sum(1 for found in problems if found)
    setup_failures = sum(1 for s in setups if s is None)
    instances = sum(rows_in)
    completed = [p for p in untraced if p["result"]]
    walls = [p["result"]["wall_s"] * speed_factor([p]) for p in completed]

    if trace:
        # Each traced pass runs right after an untraced one; the overhead is
        # the median of those pairs' differences.
        per_pass = []
        overheads = []
        for plain, p in zip(untraced, traced):
            if p["trace_dump"] and p["result"]:
                factor = speed_factor([p])
                metrics = layer_metrics(p["trace_dump"], instances, report_bytes)
                per_pass.append({k: v * factor if k.endswith("_s") else v for k, v in metrics.items()})
                if plain["result"]:
                    overheads.append(p["result"]["wall_s"] * factor - plain["result"]["wall_s"] * speed_factor([plain]))
        values = {name: median([m[name] for m in per_pass]) for name in per_pass[0]} if per_pass else {}
        values["trace.overhead_s"] = median(overheads)
    else:
        values = {
            "wall_s": median(walls),
            "inst_per_s": median([instances / w for w in walls]),
            "peak_rss_mb": median([p["result"]["max_rss_kib"] * 1024 / 1e6 for p in completed]),
            "written_mb": median([p["written"] for p in untraced]) / 1e6,
            "setup_s": median([s for s in setups if s is not None]) * speed_factor(untraced),
        }
    units = metric_units()
    result = {
        "correct": failed == 0 and setup_failures == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units.get(name, "")} for name, v in values.items()},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(),
        "input": {**workload.params, **trial.shape},
        "jobs": [" ".join(argv) for argv in trial.jobs],
        "instances_in": rows_in,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "raw_wall_s": [p["result"]["wall_s"] for p in completed],
        "raw_job_s": [[job["seconds"] for job in p["result"]["jobs"]] for p in completed],
        "probe_s": [p["result"]["probe_s"] for p in completed],
        "raw_setup_s": setups,
        "reference_s": REFERENCE_S,
        "error_rate": failed / attempted,
        "golden": golden is not None,
        "problems": [
            f"pass {i // len(trial.jobs)} job {i % len(trial.jobs)}: {msg}"
            for i, found in enumerate(problems)
            for msg in found
        ][:20],
        "digests": passes[0]["digests"],
        "pass_digests": [check.sha256_text(json.dumps(p["digests"], sort_keys=True)) for p in passes],
    }
    return result, record


def metric_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in record["problems"]:
        print(problem, file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':32} {record['error_rate']:>16.6g} ({result['failed']}/{result['attempted']} jobs)")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
