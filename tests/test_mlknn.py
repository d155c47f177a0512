import numpy as np
import pytest

from mlresample import (
    AttributeSpec,
    evaluate,
    mlknn_predict,
    mlknn_train,
)
from mlresample.synthetic import separable_clusters

from conftest import make_dataset


class TestTraining:
    def test_toy6_prior(self, toy6):
        model = mlknn_train(toy6, k_nn=3, smoothing=1.0)
        assert model.prior[0] == pytest.approx((1 + 5) / (2 + 6))
        assert model.prior[1] == pytest.approx((1 + 2) / (2 + 6))

    def test_unsmoothed_prior_reaches_one(self):
        d = make_dataset(
            [AttributeSpec("x")],
            ("A",),
            [((float(i),), [0]) for i in range(4)],
        )
        model = mlknn_train(d, k_nn=2, smoothing=0.0)
        assert model.prior[0] == 1.0

    def test_heavy_smoothing_pulls_prior_to_half(self, toy6):
        model = mlknn_train(toy6, k_nn=2, smoothing=1e9)
        assert model.prior == pytest.approx(np.full(3, 0.5), abs=1e-6)

    def test_conditionals_are_distributions(self, toy6):
        model = mlknn_train(toy6, k_nn=3, smoothing=1.0)
        assert model.cond_active.sum(axis=1) == pytest.approx(np.ones(3))
        assert model.cond_inactive.sum(axis=1) == pytest.approx(np.ones(3))

    def test_k_nn_bounds(self, toy6):
        with pytest.raises(ValueError):
            mlknn_train(toy6, k_nn=6)
        with pytest.raises(ValueError):
            mlknn_train(toy6, k_nn=0)


class TestPrediction:
    def test_separable_clusters_zero_hamming(self):
        train, test = separable_clusters(seed=1)
        model = mlknn_train(train, k_nn=3)
        predictions = mlknn_predict(model, test)
        assert evaluate(test.y, predictions).hamming_loss == 0.0

    def test_training_point_in_pure_neighborhood(self):
        train, _ = separable_clusters(seed=2)
        model = mlknn_train(train, k_nn=3)
        probe = train.subset([0])
        predictions = mlknn_predict(model, probe)
        assert predictions.bipartition[0, 0]
        assert not predictions.bipartition[0, 1]

    def test_scores_bounded(self):
        train, test = separable_clusters(seed=3)
        model = mlknn_train(train, k_nn=5, smoothing=0.5)
        predictions = mlknn_predict(model, test)
        assert np.all(predictions.scores >= 0.0)
        assert np.all(predictions.scores <= 1.0)

    def test_bipartition_is_thresholded_scores(self):
        train, test = separable_clusters(seed=4)
        model = mlknn_train(train, k_nn=3)
        predictions = mlknn_predict(model, test)
        assert np.array_equal(predictions.bipartition, predictions.scores > 0.5)

    def test_deterministic(self):
        train, test = separable_clusters(seed=5)
        a = mlknn_predict(mlknn_train(train, k_nn=3), test)
        b = mlknn_predict(mlknn_train(train, k_nn=3), test)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.bipartition, b.bipartition)

    def test_schema_mismatch_rejected(self, toy6):
        train, test = separable_clusters(seed=6)
        model = mlknn_train(train, k_nn=3)
        with pytest.raises(ValueError):
            mlknn_predict(model, toy6)

    def test_end_to_end_report(self):
        train, test = separable_clusters(seed=7)
        model = mlknn_train(train, k_nn=3)
        report = evaluate(test.y, mlknn_predict(model, test))
        assert report.hamming_loss == 0.0
        assert report.f_measure == 1.0
