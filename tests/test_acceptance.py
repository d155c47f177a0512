"""Acceptance suite: one test (or tight group) per release criterion.

Each criterion prints an ``ACCEPTANCE`` line on success; run with ``-s`` to
see them.  Benchmark-conditional checks look for ``<name>.arff`` and
``<name>.xml`` under ``$MLRESAMPLE_BENCHMARKS`` (default ``data/benchmarks``)
and skip when a dataset is not supplied.
"""

import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mlresample import (
    DecoupleConfig,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    PredictionSet,
    evaluate,
    f_measure,
    hamming_loss,
    hybrid_resample,
    micro_auc,
    mlknn_predict,
    mlknn_train,
    parse_mulan,
    precision,
    profile,
    ranking_loss,
    recall,
    remedial,
    resample,
    stratified_kfold,
    tcs_from_counts,
)
from mlresample.partitioning import fold_datasets
from mlresample.synthetic import imbalanced_dataset, random_dataset, separable_clusters

from conftest import cli_env, write_dataset_files
from _oracles import (
    oracle_card,
    oracle_dens,
    oracle_distance,
    oracle_irlbl,
    oracle_mean_ir,
    oracle_micro_auc,
    oracle_minmax,
    oracle_minority_labels,
    oracle_ml_ros_clones,
    oracle_mlenn_removed,
    oracle_ranking_loss,
    oracle_scumble,
    oracle_scumble_ins,
    rows,
)

# Published reference characteristics of ten standard multilabel benchmark
# datasets: instances, attributes, labels, distinct labelsets, Card, Dens,
# MeanIR, SCUMBLE and the complexity score derived from the three counts.
PUBLISHED_BENCHMARKS = {
    "yeast": (2417, 103, 14, 198, 4.237, 0.303, 7.197, 0.104, 12.562),
    "cal500": (502, 68, 174, 502, 26.044, 0.150, 20.578, 0.337, 15.597),
    "medical": (978, 1449, 45, 94, 1.245, 0.028, 89.501, 0.047, 15.629),
    "tmc2007": (28596, 49060, 22, 1341, 2.158, 0.098, 15.157, 0.175, 16.372),
    "enron": (1702, 1001, 53, 753, 3.378, 0.064, 73.953, 0.303, 17.503),
    "mediamill": (43907, 120, 101, 6555, 4.376, 0.043, 256.405, 0.355, 18.191),
    "chess": (1675, 585, 227, 1078, 2.411, 0.011, 85.790, 0.262, 18.779),
    "corel16k": (13766, 500, 153, 4803, 2.859, 0.019, 34.155, 0.273, 19.722),
    "corel5k": (5000, 499, 374, 3175, 3.522, 0.009, 189.568, 0.394, 20.200),
    "delicious": (16105, 500, 983, 15806, 19.017, 0.019, 71.052, 0.532, 22.773),
}

BENCHMARK_DIR = Path(os.environ.get("MLRESAMPLE_BENCHMARKS", "data/benchmarks"))

# The published tmc2007 complexity value does not follow from the row's own
# attribute/label/labelset counts: ln(49060 * 22 * 1341) = 21.093, while the
# published 16.372 equals ln(500 * 22 * 1172), i.e. the reduced 500-attribute
# variant of the dataset.  The faithful check is kept and expected to fail.
TCS_INCONSISTENT_ROWS = {"tmc2007"}


def _accept(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def _load_benchmark(name: str):
    arff = BENCHMARK_DIR / f"{name}.arff"
    xml = BENCHMARK_DIR / f"{name}.xml"
    if not (arff.exists() and xml.exists()):
        pytest.skip(f"benchmark dataset {name!r} not supplied under {BENCHMARK_DIR}")
    return parse_mulan(arff.read_text(), xml.read_text())


class TestMetricOracleSuite:
    def test_500_random_datasets_match_brute_force(self):
        start = time.perf_counter()
        for seed in range(500):
            d = random_dataset(seed, max_n=20, max_k=5, ensure_all_labels=True)
            p = profile(d)
            assert abs(p.card - oracle_card(d)) <= 1e-12
            assert abs(p.dens - oracle_dens(d)) <= 1e-12
            expected_ir = oracle_irlbl(d)
            for l in range(d.k):
                assert abs(p.irlbl[l] - expected_ir[l]) <= 1e-12
            assert abs(p.mean_ir - oracle_mean_ir(d)) <= 1e-12
            for i in range(d.n):
                assert abs(p.scumble_ins[i] - oracle_scumble_ins(d, i)) <= 1e-12
            assert abs(p.scumble - oracle_scumble(d)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
        _accept(
            f"PASS: metric oracle suite, 500 datasets within 1e-12 in {elapsed:.1f}s"
        )


class TestTCSRegression:
    @pytest.mark.parametrize(
        "name",
        [
            name
            if name not in TCS_INCONSISTENT_ROWS
            else pytest.param(
                name,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="published value matches the reduced 500-attribute "
                    "variant, not the row's own counts",
                ),
            )
            for name in PUBLISHED_BENCHMARKS
        ],
    )
    def test_formula_reproduces_published_value(self, name):
        _, attrs, labels, labelsets, *_rest, published_tcs = PUBLISHED_BENCHMARKS[name]
        assert tcs_from_counts(attrs, labels, labelsets) == pytest.approx(
            published_tcs, abs=0.005
        )

    def test_criterion_summary(self):
        consistent = [
            name
            for name, row in PUBLISHED_BENCHMARKS.items()
            if abs(tcs_from_counts(row[1], row[2], row[3]) - row[8]) <= 0.005
        ]
        assert sorted(consistent) == sorted(set(PUBLISHED_BENCHMARKS) - TCS_INCONSISTENT_ROWS)
        _accept(
            "NOTE: TCS regression, 9/10 published rows reproduce within 0.005; "
            "the tmc2007 row is inconsistent with its own counts "
            "(strict expected-fail, see notes)"
        )

    @pytest.mark.parametrize("name", sorted(PUBLISHED_BENCHMARKS))
    def test_supplied_dataset_tcs(self, name):
        d = _load_benchmark(name)
        assert profile(d).tcs == pytest.approx(PUBLISHED_BENCHMARKS[name][8], abs=0.005)
        _accept(f"PASS: TCS on supplied {name} within 0.005")


class TestBenchmarkProfiles:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_BENCHMARKS))
    def test_supplied_dataset_profile(self, name):
        d = _load_benchmark(name)
        _, _, _, _, p_card, p_dens, p_mean_ir, p_scumble, _ = PUBLISHED_BENCHMARKS[name]
        prof = profile(d)
        assert prof.card == pytest.approx(p_card, abs=0.01)
        assert prof.dens == pytest.approx(p_dens, abs=0.01)
        assert prof.mean_ir == pytest.approx(p_mean_ir, abs=0.01)
        assert prof.scumble == pytest.approx(p_scumble, abs=0.005)
        _accept(f"PASS: profile of supplied {name} matches published values")


class TestRemedialPostconditions:
    def test_toy6_hand_trace_bit_exact(self, toy6):
        out, report = remedial(toy6)
        assert report.decoupled == (3, 5)
        assert out.n == 8
        before, after = rows(toy6), rows(out)
        expected = [(0,), (0,), (0,), (), (1,), (2,), (0, 1), (0,)]
        assert [row.labels for row in after] == expected
        assert after[6].features == before[3].features
        assert after[7].features == before[5].features

    def test_200_random_datasets(self):
        for seed in range(200):
            d = random_dataset(
                seed + 3000, max_n=20, max_k=5, ensure_all_labels=True
            )
            prof = profile(d)
            scores = prof.scumble_ins
            minority = {l for l, v in enumerate(prof.irlbl) if v is not None and v > prof.mean_ir}
            out, report = remedial(d)
            # mean-mode threshold is exactly the dataset concurrence score
            expected_split = tuple(
                i for i in range(d.n) if scores[i] > prof.scumble
            )
            assert report.decoupled == expected_split
            assert out.n == d.n + len(report.decoupled)
            split = set(report.decoupled)
            before, after = rows(d), rows(out)
            for i in range(d.n):
                if i not in split:
                    assert after[i] == before[i]
            for j, i in enumerate(report.decoupled):
                source, kept, clone = before[i], after[i], after[d.n + j]
                assert kept.features == source.features == clone.features
                assert not set(kept.labels) & set(clone.labels)
                assert set(kept.labels) | set(clone.labels) == set(source.labels)
                assert set(kept.labels) <= minority
                assert not set(clone.labels) & minority
        _accept("PASS: decoupling post-conditions on 200 random datasets")


class TestResamplerPostconditions:
    def test_ml_ros_200_fixtures(self):
        for seed in range(200):
            d = random_dataset(
                seed + 4000, max_n=20, max_k=5, allow_empty_labelsets=False
            )
            minority = oracle_minority_labels(d)
            out, report = resample(d, MLROSConfig(p=40), seed)
            budget = math.floor(d.n * 40 / 100)
            before, after = rows(d), rows(out)
            assert after[: d.n] == before
            assert out.n == d.n + len(report.added)
            assert len(report.added) <= budget
            for offset, record in enumerate(report.added):
                assert record.kind == "clone"
                assert after[d.n + offset] == before[record.source]
                assert set(before[record.source].labels) & minority
            # the naive re-simulation must pick the same clones in the same order
            expected = oracle_ml_ros_clones(d, 40, np.random.default_rng(seed))
            assert [r.source for r in report.added] == expected
        _accept("PASS: random-oversampling post-conditions on 200 seeded fixtures")

    def test_mlenn_200_fixtures(self):
        checked = 0
        seed = 0
        while checked < 200:
            d = random_dataset(
                seed + 5000, max_n=16, max_k=4, allow_empty_labelsets=False
            )
            seed += 1
            if d.n <= 3:
                continue
            checked += 1
            out, report = resample(d, MLENNConfig(ht=0.75, nn=3))
            assert list(report.removed) == oracle_mlenn_removed(d, 0.75, 3)
            removed = set(report.removed)
            before = rows(d)
            assert rows(out) == [row for i, row in enumerate(before) if i not in removed]
            minority = oracle_minority_labels(d)
            for i in report.removed:
                assert not set(before[i].labels) & minority
        _accept("PASS: neighbor-editing post-conditions on 200 seeded fixtures")

    def test_mlsmote_200_fixtures(self):
        k_neighbors = 3
        for seed in range(200):
            d = random_dataset(
                seed + 6000,
                max_n=16,
                max_k=4,
                allow_missing=False,
                allow_empty_labelsets=False,
            )
            if d.n <= k_neighbors:
                with pytest.raises(ValueError, match="must be smaller than the dataset size"):
                    resample(d, MLSMOTEConfig(k_neighbors), seed)
                continue
            out, report = resample(d, MLSMOTEConfig(k_neighbors), seed)
            before = rows(d)
            assert rows(out)[: d.n] == before
            mins, spans = oracle_minmax(d)
            minority = sorted(oracle_minority_labels(d))
            expected = []
            for label in minority:
                bag = [i for i, x in enumerate(before) if label in x.labels]
                if len(bag) < 2:
                    continue
                expected.extend((s, bag) for s in bag)
            assert [r.source for r in report.added] == [s for s, _ in expected]
            for (source, bag), synth in zip(expected, rows(out)[d.n :]):
                seed_inst = before[source]
                ranked = sorted(
                    (oracle_distance(d, seed_inst.features, before[j].features, mins, spans), j)
                    for j in bag
                    if j != source
                )
                neighbors = [j for _, j in ranked[:k_neighbors]]
                votes = {}
                for inst in [seed_inst] + [before[j] for j in neighbors]:
                    for l in inst.labels:
                        votes[l] = votes.get(l, 0) + 1
                threshold = (len(neighbors) + 1) / 2
                assert set(synth.labels) == {
                    l for l, c in votes.items() if c > threshold
                }
                for idx, attr in enumerate(d.attributes):
                    pool = [seed_inst.features[idx]] + [before[j].features[idx] for j in neighbors]
                    if not attr.is_nominal:
                        assert min(pool) <= synth.features[idx] <= max(pool)
        _accept("PASS: synthetic-oversampling post-conditions on 200 seeded fixtures")


class TestEvaluationMetrics:
    def test_hand_examples_exact(self):
        truth = np.array([[True, False, True]])
        p = PredictionSet(
            scores=np.array([[0.9, 0.8, 0.3]]),
            bipartition=np.array([[True, True, False]]),
        )
        assert hamming_loss(truth, p) == 2 / 3
        assert precision(truth, p) == 0.5
        assert recall(truth, p) == 0.5
        assert f_measure(truth, p) == 0.5
        assert ranking_loss(truth, p) == 0.5
        assert micro_auc(truth, p) == 0.5
        _accept("PASS: evaluation hand examples reproduced exactly")

    def test_pair_metrics_match_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            truth = rng.random((n, k)) < 0.4
            scores = np.round(rng.random((n, k)), 3)
            p = PredictionSet(scores=scores, bipartition=scores > 0.5)
            assert abs(
                ranking_loss(truth, p) - oracle_ranking_loss(truth.tolist(), scores.tolist())
            ) <= 1e-12
            assert abs(
                micro_auc(truth, p) - oracle_micro_auc(truth.tolist(), scores.tolist())
            ) <= 1e-12
        _accept("PASS: rank metrics equal brute-force enumeration on 300 matrices")


class TestDirectionalCheck:
    """Desk-scale stand-in for the full benchmark study.

    On generated high-concurrence, high-imbalance data the decoupling hybrid
    should out-balance plain synthetic oversampling, and the classifier
    comparison is reported in a Base/H_q column layout without asserting the
    sign of the difference.
    """

    def test_hybrid_beats_base_balance_and_reports_fold_delta(self):
        start = time.perf_counter()
        wins = 0
        for seed in range(10):
            d = imbalanced_dataset(seed)
            prof = profile(d)
            assert prof.scumble > 0.1 and prof.mean_ir > 5
            base_out, _ = resample(d, MLSMOTEConfig(5), seed)
            hybrid_out, _ = hybrid_resample(
                d, DecoupleConfig(q=0.25), MLSMOTEConfig(5), seed
            )
            if profile(hybrid_out).mean_ir < profile(base_out).mean_ir:
                wins += 1
        assert wins >= 8, f"hybrid improved the balance on only {wins}/10 seeds"

        d = imbalanced_dataset(0)
        assignment = stratified_kfold(d, folds=5, seed=0)

        def fold_f(preprocess):
            values = []
            for f in range(5):
                train, test = fold_datasets(d, assignment, f)
                model = mlknn_train(preprocess(train), k_nn=10)
                report = evaluate(test.y, mlknn_predict(model, test))
                values.append(report.f_measure)
            return float(np.mean(values))

        base_f = fold_f(lambda t: resample(t, MLSMOTEConfig(5), 1)[0])
        hybrid_f = fold_f(
            lambda t: hybrid_resample(
                t, DecoupleConfig(q=0.25), MLSMOTEConfig(5), seed=1
            )[0]
        )
        assert 0.0 <= base_f <= 1.0 and 0.0 <= hybrid_f <= 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"directional check took {elapsed:.1f}s"
        header = f"{'metric':<12}{'Base':>10}{'H_0.25':>10}{'delta':>10}"
        row = f"{'F-measure':<12}{base_f:>10.4f}{hybrid_f:>10.4f}{hybrid_f - base_f:>+10.4f}"
        _accept(
            "PASS: directional check, hybrid balanced better on "
            f"{wins}/10 seeds in {elapsed:.1f}s; fold comparison:\n{header}\n{row}"
        )


class TestCliDeterminism:
    def _run(self, args, cwd):
        proc = subprocess.run(
            [sys.executable, "-m", "mlresample.cli", *map(str, args)],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=cli_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_every_seeded_command_is_byte_identical(self, tmp_path):
        data = imbalanced_dataset(0, n=60, k=6)
        arff, xml = write_dataset_files(data, tmp_path, "fixture")
        train, test = separable_clusters(seed=2)
        train_arff, _ = write_dataset_files(train, tmp_path, "train")
        test_arff, _ = write_dataset_files(test, tmp_path, "test")

        out = tmp_path / "out"
        commands = [
            ["info", arff, xml, "--out", out / "profile.json"],
            ["resample", arff, xml, "--method", "mlros", "--p", 50, "--seed", 9,
             "--out-dir", out / "mlros"],
            ["resample", arff, xml, "--method", "mlenn", "--ht", 0.75, "--nn", 3,
             "--seed", 9, "--out-dir", out / "mlenn"],
            ["resample", arff, xml, "--method", "mlsmote", "--k", 3, "--remedial",
             "p25", "--seed", 9, "--out-dir", out / "hybrid"],
            ["partition", arff, xml, "--folds", 5, "--seed", 9, "--out-dir",
             out / "folds"],
            ["evaluate", train_arff, test_arff, "--classifier", "mlknn", "--k", 3,
             "--seed", 9, "--out", out / "eval.json"],
            ["concurrence", arff, xml, "--top", 2, "--out", out / "conc.csv"],
        ]

        def run_all():
            out.mkdir()
            stdouts = [self._run(args, tmp_path) for args in commands]
            blobs = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
            return stdouts, blobs

        first_stdout, first_files = run_all()
        shutil.rmtree(out)
        second_stdout, second_files = run_all()
        assert first_stdout == second_stdout
        assert first_files.keys() == second_files.keys()
        for name in first_files:
            assert first_files[name] == second_files[name], f"{name} differs between runs"
        _accept(
            f"PASS: {len(commands)} seeded commands reproduced "
            f"{len(first_files)} output files byte-identically"
        )
