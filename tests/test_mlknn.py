import numpy as np
import pytest

from mlresample import (
    AttributeSpec,
    evaluate,
    mlknn_predict,
    mlknn_train,
)
from mlresample import distance
from mlresample.synthetic import separable_clusters

from conftest import make_dataset
from _oracles import oracle_encoded_neighbors


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

    def test_the_model_holds_the_numeric_matrix_once(self):
        train, _ = separable_clusters(seed=1)
        model = mlknn_train(train, k_nn=3)
        numeric = model.reference.columns.T
        assert np.array_equal(numeric, model.space.encode(train)[0])
        # the one float64 copy of the training rows is the encoded matrix, which
        # the reference views whole; the fused matrix holds them in float32
        assert not hasattr(model.space, "encoded")
        assert numeric.base is not None and numeric.base.nbytes == numeric.nbytes
        assert model.reference.fused.dtype == np.float32

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


def bag_of_words(seed, n, n_words=60, n_labels=4):
    """``n`` rows of binary words, each set with a probability from 2% to 20%;
    label l is active where word l is set, or at random one time in ten."""
    rng = np.random.default_rng(seed)
    words = (rng.random((n, n_words)) < rng.uniform(0.02, 0.2, n_words)).astype(int)
    active = (words[:, :n_labels] == 1) | (rng.random((n, n_labels)) < 0.1)
    attrs = [AttributeSpec(f"w{j}", values=("0", "1")) for j in range(n_words)]
    labels = tuple(f"L{l}" for l in range(n_labels))
    return make_dataset(attrs, labels, [(tuple(w), np.flatnonzero(a)) for w, a in zip(words, active)])


class TestAllNominal:
    """ML-kNN on binary words: every neighbour query is all-nominal."""

    K_NN = 10

    def test_training_counts_and_predictions_follow_the_oracle_neighbours(self, monkeypatch):
        # 300 training rows: more than two blocks of the row floor, which alone
        # sets them at one byte per block array
        train, test = bag_of_words(0, 300), bag_of_words(1, 80)
        monkeypatch.setattr(distance, "_BLOCK_BYTES", 1)
        ranked = []
        real_nearest = distance._nearest

        def recording_nearest(block, m):
            ranked.append((block.shape[0], block.dtype))
            return real_nearest(block, m)

        monkeypatch.setattr(distance, "_nearest", recording_nearest)
        model = mlknn_train(train, k_nn=self.K_NN)
        predictions = mlknn_predict(model, test)
        monkeypatch.undo()
        assert ranked == [(128, np.float32), (128, np.float32), (44, np.float32), (80, np.float32)]

        encoded = model.space.encode(train)
        exclude = np.arange(train.n)
        nearest = oracle_encoded_neighbors(encoded, encoded, self.K_NN, exclude)
        counts = train.y[nearest].sum(axis=1)
        # the conditionals, counted one training row and label at a time
        labels = range(train.k)
        for l in labels:
            for active, cond in ((True, model.cond_active), (False, model.cond_inactive)):
                rows = [i for i in range(train.n) if train.y[i, l] == active]
                for c in range(self.K_NN + 1):
                    hits = sum(counts[i, l] == c for i in rows)
                    want = (1.0 + hits) / (1.0 * (self.K_NN + 1) + len(rows))
                    assert cond[l, c] == pytest.approx(want, rel=1e-15)

        test_nearest = oracle_encoded_neighbors(model.space.encode(test), encoded, self.K_NN)
        test_counts = train.y[test_nearest].sum(axis=1)
        for i in range(test.n):
            for l in labels:
                p_active = model.prior[l] * model.cond_active[l, test_counts[i, l]]
                p_inactive = (1 - model.prior[l]) * model.cond_inactive[l, test_counts[i, l]]
                assert predictions.scores[i, l] == pytest.approx(
                    p_active / (p_active + p_inactive), rel=1e-15
                )
        assert np.array_equal(predictions.bipartition, predictions.scores > 0.5)
