"""The benchmark workloads: seeded MULAN inputs plus the CLI jobs run on them.

Each workload is shaped after a family of the paper's MULAN benchmarks and
scaled down so that one pass over its jobs takes a few seconds in one
single-threaded process; a run repeats the pass and reports medians.  Job
paths are relative to the run's output directory, which is the child's
working directory, so manifests and outputs do not depend on where the
checkout lives.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import gen

INPUT_ARFF = "../input/data.arff"
INPUT_XML = "../input/data.xml"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    make_inputs: Callable[..., dict]
    jobs: Callable[[int], list[list[str]]]

    def generate(self, seed: int, directory: Path) -> dict:
        """Write ``data.arff``/``data.xml`` for this seed; return the input's shape."""
        return self.make_inputs(seed, directory, **self.params)


def _shape(arff_text: str, xml_text: str, **fields) -> dict:
    return {**fields, "arff_bytes": len(arff_text), "xml_bytes": len(xml_text)}


def _numeric_inputs(seed: int, directory: Path, n: int, k: int, n_numeric: int) -> dict:
    numeric, group, y = gen.imbalanced_arrays(seed, n, k, n_numeric)
    arff = gen.dense_arff(f"numeric-{seed}", numeric, group, y)
    xml = gen.labels_xml([f"L{l}" for l in range(k)])
    gen.write_pair(directory, "data", arff, xml)
    return _shape(arff, xml, instances=n, numeric=n_numeric, nominal=1, labels=k,
                  label_cardinality=float(y.sum(axis=1).mean()))


def _text_inputs(seed: int, directory: Path, n: int, n_words: int, k: int) -> dict:
    words, y = gen.text_arrays(seed, n, n_words, k)
    arff = gen.sparse_arff(f"text-{seed}", words, y)
    xml = gen.labels_xml([f"T{l}" for l in range(k)])
    gen.write_pair(directory, "data", arff, xml)
    return _shape(arff, xml, instances=n, numeric=0, nominal=n_words, labels=k,
                  label_cardinality=float(y.sum(axis=1).mean()),
                  word_density=float(words.mean()))


def _resample(arff: str, xml: str, seed: int, out_dir: str, *options: str) -> list[str]:
    return ["resample", arff, xml, *options, "--seed", str(seed), "--out-dir", out_dir]


def _numeric_resample_jobs(seed: int) -> list[list[str]]:
    return [
        _resample(INPUT_ARFF, INPUT_XML, seed, "mlenn", "--method", "mlenn"),
        _resample(INPUT_ARFF, INPUT_XML, seed, "mlsmote-p25", "--method", "mlsmote", "--remedial", "p25"),
    ]


def _text_crossval_jobs(seed: int) -> list[list[str]]:
    # The paper's order: characterize, partition, resample the training fold,
    # then classify the held-out fold with a model trained on the result.
    return [
        ["info", INPUT_ARFF, INPUT_XML, "--out", "profile.json"],
        ["partition", INPUT_ARFF, INPUT_XML, "--folds", "5", "--seed", str(seed), "--out-dir", "folds"],
        _resample("folds/fold0-train.arff", "folds/fold0-train.xml", seed, "resampled",
                  "--method", "mlsmote", "--remedial", "p25"),
        ["evaluate", "resampled/resampled.arff", "folds/fold0-test.arff",
         "--train-xml", "resampled/resampled.xml", "--test-xml", "folds/fold0-test.xml",
         "--classifier", "mlknn", "--k", "10", "--seed", str(seed), "--out", "eval.json"],
    ]


def _large_profile_jobs(seed: int) -> list[list[str]]:
    return [
        ["info", INPUT_ARFF, INPUT_XML, "--out", "profile.json"],
        ["concurrence", INPUT_ARFF, INPUT_XML, "--top", "5", "--out", "pairs.csv"],
        _resample(INPUT_ARFF, INPUT_XML, seed, "mlros", "--method", "mlros"),
        _resample(INPUT_ARFF, INPUT_XML, seed, "mlros-p25", "--method", "mlros", "--remedial", "p25"),
    ]


WORKLOADS = {
    # A dense numeric set shaped like yeast or scene.  The distance layer does
    # most of the work here (the full n x n matrix and a sort per row), so a
    # neighbour-engine change shows on this workload.
    "numeric-resample": Workload(
        name="numeric-resample",
        why="dense numeric set like yeast/scene; MLeNN and hybrid MLSMOTE spend most time in distance, "
        "so a neighbour-engine change shows here",
        params={"n": 2000, "k": 8, "n_numeric": 50},
        make_inputs=_numeric_inputs,
        jobs=_numeric_resample_jobs,
    ),
    # A sparse binary text set shaped like enron or medical.  It uses the same
    # layers differently: distance over nominal columns, square (train) and
    # rectangular (predict); arff is write-heavy (partition writes ten dense
    # files from a sparse input); dataset re-validates every subset.
    "text-crossval": Workload(
        name="text-crossval",
        why="sparse binary text set like enron/medical through info, partition, hybrid MLSMOTE and "
        "ML-kNN: nominal distances, write-heavy arff, repeated subset validation",
        params={"n": 800, "n_words": 300, "k": 40},
        make_inputs=_text_inputs,
        jobs=_text_crossval_jobs,
    ),
    # Shaped like mediamill but neighbour-free, so n can be large.  distance
    # does no work here: it is the bypass workload for any neighbour-engine
    # change and the main workload for parsing, metrics and reports.
    "large-profile": Workload(
        name="large-profile",
        why="large neighbour-free set like mediamill: parsing, metrics and reports dominate and distance "
        "does no work, the bypass case for neighbour-engine changes",
        params={"n": 4000, "k": 40, "n_numeric": 60},
        make_inputs=_numeric_inputs,
        jobs=_large_profile_jobs,
    ),
}
