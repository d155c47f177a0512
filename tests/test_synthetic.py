import pytest

from mlresample import label_counts, profile
from mlresample.synthetic import imbalanced_dataset, random_dataset, separable_clusters

from _oracles import rows


class TestRandomDataset:
    def test_deterministic(self):
        assert random_dataset(3) == random_dataset(3)

    def test_respects_bounds(self):
        for seed in range(30):
            d = random_dataset(seed, max_n=12, max_k=4, max_attrs=3)
            assert 1 <= d.n <= 12
            assert 1 <= d.k <= 4
            assert 1 <= len(d.attributes) <= 3

    def test_ensure_all_labels(self):
        for seed in range(30):
            d = random_dataset(seed, ensure_all_labels=True)
            assert (label_counts(d) > 0).all()

    def test_no_empty_labelsets_when_disallowed(self):
        for seed in range(30):
            d = random_dataset(seed, allow_empty_labelsets=False)
            assert all(inst.labels for inst in rows(d))


class TestImbalancedDataset:
    @pytest.mark.parametrize("seed", range(10))
    def test_meets_imbalance_and_concurrence_targets(self, seed):
        d = imbalanced_dataset(seed)
        assert d.n == 500 and d.k == 8
        assert (label_counts(d) >= 2).all()
        prof = profile(d)
        assert prof.scumble > 0.1
        assert prof.mean_ir > 5

    def test_deterministic(self):
        assert imbalanced_dataset(4) == imbalanced_dataset(4)


class TestSeparableClusters:
    def test_shapes_and_labels(self):
        train, test = separable_clusters(seed=0, n_train_per=7, n_test_per=2)
        assert train.n == 14 and test.n == 4
        assert train.labels == test.labels
        assert all(len(inst.labels) == 1 for inst in rows(train))
