import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlresample import PredictionSet, evaluate

from _oracles import oracle_micro_auc, oracle_ranking_loss


def pred(scores, threshold=0.5):
    scores = np.asarray(scores, dtype=float)
    return PredictionSet(scores=scores, bipartition=scores > threshold)


def single(truth_row, score_row):
    truth = np.asarray([truth_row], dtype=bool)
    return truth, pred([score_row])


class TestHandExamples:
    """One instance, three labels: truth {A, C}, predicted {A, B}."""

    truth = np.array([[True, False, True]])
    prediction = PredictionSet(
        scores=np.array([[0.9, 0.8, 0.3]]),
        bipartition=np.array([[True, True, False]]),
    )

    def test_hamming_loss_two_thirds(self):
        assert evaluate(self.truth, self.prediction).hamming_loss == pytest.approx(2 / 3)

    def test_precision_recall_f(self):
        report = evaluate(self.truth, self.prediction)
        assert report.precision == report.recall == report.f_measure == 0.5

    def test_ranking_loss_half(self):
        assert evaluate(self.truth, self.prediction).ranking_loss == 0.5

    def test_micro_auc_half(self):
        assert evaluate(self.truth, self.prediction).auc == 0.5


class TestTrivialCases:
    def test_perfect_prediction(self):
        truth = np.array([[True, False], [False, True]])
        p = PredictionSet(scores=truth.astype(float), bipartition=truth.copy())
        report = evaluate(truth, p)
        assert report.hamming_loss == 0.0
        assert report.precision == report.recall == report.f_measure == 1.0
        assert report.ranking_loss == 0.0
        assert report.auc == 1.0

    def test_complement_prediction_hamming_one(self):
        truth = np.array([[True, False, True]])
        p = PredictionSet(scores=np.zeros((1, 3)), bipartition=~truth)
        assert evaluate(truth, p).hamming_loss == 1.0

    def test_disjoint_prediction_all_zero(self):
        truth = np.array([[True, False]])
        p = PredictionSet(scores=np.array([[0.0, 1.0]]), bipartition=np.array([[False, True]]))
        report = evaluate(truth, p)
        assert report.precision == report.recall == report.f_measure == 0.0

    def test_fully_inverted_ranking(self):
        truth, p = single([True, True, False, False], [0.1, 0.2, 0.8, 0.9])
        assert evaluate(truth, p).ranking_loss == 1.0

    def test_all_equal_scores_auc_one(self):
        truth, p = single([True, False], [0.5, 0.5])
        assert evaluate(truth, p).auc == 1.0

    def test_empty_prediction_contributes_zero_precision(self):
        truth = np.array([[True, False], [True, False]])
        p = PredictionSet(
            scores=np.array([[1.0, 0.0], [0.0, 0.0]]),
            bipartition=np.array([[True, False], [False, False]]),
        )
        report = evaluate(truth, p)
        assert report.precision == 0.5
        assert report.empty_predictions == 1

    def test_empty_truth_contributes_zero_recall(self):
        truth = np.array([[False, False], [True, False]])
        p = PredictionSet(
            scores=np.array([[1.0, 0.0], [1.0, 0.0]]),
            bipartition=np.array([[True, False], [True, False]]),
        )
        report = evaluate(truth, p)
        assert report.recall == 0.5
        assert report.empty_truths == 1

    def test_ranking_loss_skips_empty_and_full(self):
        truth = np.array([[True, True], [False, False]])
        p = pred([[0.1, 0.9], [0.2, 0.3]])
        assert evaluate(truth, p).ranking_loss == 0.0


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 2), dtype=bool), pred([[0.1, 0.2]]))

    def test_bad_prediction_set(self):
        with pytest.raises(ValueError):
            PredictionSet(scores=np.zeros(3), bipartition=np.zeros(3, dtype=bool))


def truth_and_scores(max_n=8, max_k=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_k).flatmap(
            lambda k: st.tuples(
                arrays(bool, (n, k)),
                arrays(
                    np.float64,
                    (n, k),
                    elements=st.floats(0, 1, allow_nan=False, width=64),
                ),
            )
        )
    )


@settings(max_examples=150, deadline=None)
@given(truth_and_scores())
def test_pair_metrics_match_brute_force(data):
    truth, scores = data
    report = evaluate(truth, pred(scores))
    assert report.ranking_loss == pytest.approx(
        oracle_ranking_loss(truth.tolist(), scores.tolist()), abs=1e-12
    )
    assert report.auc == pytest.approx(
        oracle_micro_auc(truth.tolist(), scores.tolist()), abs=1e-12
    )


@settings(max_examples=100, deadline=None)
@given(truth_and_scores())
def test_all_metrics_bounded(data):
    truth, scores = data
    report = evaluate(truth, pred(scores))
    for value in (
        report.hamming_loss,
        report.ranking_loss,
        report.precision,
        report.recall,
        report.f_measure,
        report.auc,
    ):
        assert 0.0 <= value <= 1.0


@settings(max_examples=100, deadline=None)
@given(truth_and_scores())
def test_f_measure_is_harmonic_mean(data):
    truth, scores = data
    report = evaluate(truth, pred(scores))
    pr, rc, f = report.precision, report.recall, report.f_measure
    if pr + rc > 0:
        assert f == pytest.approx(2 * pr * rc / (pr + rc), abs=1e-12)
    else:
        assert f == 0.0


@settings(max_examples=80, deadline=None)
@given(truth_and_scores())
def test_rank_metrics_invariant_under_monotone_transform(data):
    truth, scores = data
    # coarse grid so the float transform cannot collapse distinct scores
    scores = np.round(scores, 2)
    p1 = pred(scores)
    transformed = np.exp(3.0 * scores) + 1.0
    p2 = PredictionSet(scores=transformed, bipartition=p1.bipartition)
    r1, r2 = evaluate(truth, p1), evaluate(truth, p2)
    assert r1.ranking_loss == pytest.approx(r2.ranking_loss, abs=1e-12)
    assert r1.auc == pytest.approx(r2.auc, abs=1e-12)


def test_strict_separation_gives_extremes():
    truth = np.array([[True, False, True], [False, True, False]])
    scores = np.where(truth, 0.9, 0.1)
    p = PredictionSet(scores=scores, bipartition=truth.copy())
    report = evaluate(truth, p)
    assert report.auc == 1.0
    assert report.ranking_loss == 0.0
