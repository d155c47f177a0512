"""Correctness checks on the files one pass over a workload's jobs wrote.

The data outputs (ARFF/XML, CSV, the evaluation metrics and the summary
fields of ``info``'s profile) are compared by SHA-256 against
``golden.json`` for the seeds recorded there.  On every seed the outputs
must re-parse, agree in row count with the job's report and keep
evaluation metrics in [0, 1].  ``report.json``, the profile's per-row
``scumble_ins`` and the manifests are checked for consistency only, never
by bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from mlresample import MulanFormatError, parse_mulan

EVAL_METRICS = ("hamming_loss", "ranking_loss", "precision", "recall", "f_measure", "auc")
PROFILE_FIELDS = ("card", "dens", "irlbl", "mean_ir", "scumble", "tcs", "distinct_labelsets")


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def job_inputs(argv: list[str]) -> list[str]:
    """ARFF files a job reads."""
    return argv[1:3] if argv[0] == "evaluate" else argv[1:2]


def job_outputs(argv: list[str]) -> list[str]:
    """Files a job writes, relative to the pass directory."""
    if argv[0] in ("info", "concurrence", "evaluate"):
        out = _option(argv, "--out")
        return [out, out + ".manifest.json"]
    out_dir = _option(argv, "--out-dir")
    if argv[0] == "resample":
        names = ["resampled.arff", "resampled.xml", "report.json", "manifest.json"]
    else:
        names = [
            f"fold{f}-{part}.{ext}"
            for f in range(int(_option(argv, "--folds")))
            for part in ("train", "test")
            for ext in ("arff", "xml")
        ] + ["folds.csv", "manifest.json"]
    return [f"{out_dir}/{name}" for name in names]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(root: Path, names: list[str]) -> str:
    """One SHA-256 over the named files' digests, in the given order."""
    return sha256_text("".join(f"{name} {file_digest(root / name)}\n" for name in names))


def golden_digest(root: Path, argv: list[str]) -> str:
    """One SHA-256 over what the seed fixes in a job's outputs.

    That is the data files, the evaluation metrics and, for ``info``, the
    profile's summary fields.
    """
    outputs = job_outputs(argv)
    if argv[0] == "info":
        prof = json.loads((root / outputs[0]).read_text())
        return sha256_text(json.dumps({key: prof[key] for key in PROFILE_FIELDS}, sort_keys=True))
    if argv[0] == "evaluate":
        return combined_digest(root, outputs[:1])
    return combined_digest(root, [p for p in outputs if p.endswith((".arff", ".xml", ".csv"))])


def count_rows(path: Path) -> int:
    """Data rows of an ARFF file: non-blank, non-comment lines after ``@data``."""
    text = path.read_text()
    body = text[text.lower().index("@data") + len("@data") :]
    return sum(1 for line in body.splitlines() if line.strip() and not line.lstrip().startswith("%"))


def _parsed_rows(root: Path, arff: str, problems: list[str]) -> int | None:
    try:
        return parse_mulan((root / arff).read_text(), (root / arff).with_suffix(".xml").read_text()).n
    except (OSError, MulanFormatError) as exc:
        problems.append(f"{arff} does not re-parse: {exc}")
        return None


def _check_manifest(root: Path, manifest: str, argv: list[str], problems: list[str]) -> None:
    data = json.loads((root / manifest).read_text())
    if data.get("command") != argv[0] or data.get("argv") != argv:
        problems.append(f"{manifest} records another command line")
    for path in data.get("outputs", {}).values():
        if not (root / path).is_file():
            problems.append(f"{manifest} lists missing output {path}")


def _check_resample(root: Path, argv: list[str], rows_in: int, problems: list[str]) -> None:
    out_dir = _option(argv, "--out-dir")
    rows = _parsed_rows(root, f"{out_dir}/resampled.arff", problems)
    report = json.loads((root / out_dir / "report.json").read_text())
    if report["instances_before"] != rows_in:
        problems.append(f"report says {report['instances_before']} rows in, input has {rows_in}")
    if rows is not None and report["instances_after"] != rows:
        problems.append(f"report says {report['instances_after']} rows out, output has {rows}")
    if report["instances_after"] != rows_in + len(report["added"]) - len(report["removed"]):
        problems.append("report: instances_after != before + added - removed")


def _check_partition(root: Path, argv: list[str], rows_in: int, problems: list[str]) -> None:
    out_dir = root / _option(argv, "--out-dir")
    lines = (out_dir / "folds.csv").read_text().splitlines()
    fold_of = [int(line.split(",")[1]) for line in lines[1:]]
    if lines[0] != "instance_index,fold" or len(fold_of) != rows_in:
        problems.append("folds.csv does not assign every input row")
    for f in range(int(_option(argv, "--folds"))):
        size = fold_of.count(f)
        for part, want in (("train", rows_in - size), ("test", size)):
            rows = _parsed_rows(out_dir, f"fold{f}-{part}.arff", problems)
            if rows is not None and rows != want:
                problems.append(f"fold{f}-{part} has {rows} rows, folds.csv says {want}")


def _check_evaluate(root: Path, argv: list[str], problems: list[str]) -> None:
    report = json.loads((root / _option(argv, "--out")).read_text())
    for key in EVAL_METRICS:
        value = report.get(key)
        if not isinstance(value, float) or not math.isfinite(value) or not 0.0 <= value <= 1.0:
            problems.append(f"evaluation metric {key}={value!r} outside [0, 1]")


def _check_info(root: Path, argv: list[str], rows_in: int, problems: list[str]) -> None:
    prof = json.loads((root / _option(argv, "--out")).read_text())
    missing = [key for key in PROFILE_FIELDS if key not in prof]
    if missing:
        problems.append(f"profile.json lacks {missing}")
    if len(prof["scumble_ins"]) != rows_in:
        problems.append("profile.json scumble_ins does not cover every input row")


def _check_concurrence(root: Path, argv: list[str], problems: list[str]) -> None:
    lines = (root / _option(argv, "--out")).read_text().splitlines()
    if lines[0] != "label_a,label_b,count,irlbl_a,irlbl_b":
        problems.append("concurrence CSV has another header")
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5 or not fields[2].isdigit():
            problems.append(f"bad concurrence row {line!r}")


def check_job(root: Path, argv: list[str]) -> tuple[list[str], int]:
    """Problems found in one job's outputs, and the instances that entered it."""
    problems: list[str] = []
    try:
        rows_in = sum(count_rows(root / p) for p in job_inputs(argv))
    except (OSError, ValueError) as exc:
        return [f"unreadable input: {exc!r}"], 0
    missing = [p for p in job_outputs(argv) if not (root / p).is_file()]
    if missing:
        return [f"missing outputs {missing}"], rows_in
    try:
        _check_manifest(root, job_outputs(argv)[-1], argv, problems)
        if argv[0] == "resample":
            _check_resample(root, argv, rows_in, problems)
        elif argv[0] == "partition":
            _check_partition(root, argv, rows_in, problems)
        elif argv[0] == "evaluate":
            _check_evaluate(root, argv, problems)
        elif argv[0] == "info":
            _check_info(root, argv, rows_in, problems)
        else:
            _check_concurrence(root, argv, problems)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems, rows_in
