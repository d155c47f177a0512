import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlresample import AttributeSpec, MultiLabelDataset, label_matrix, stratified_kfold
from mlresample.partitioning import FoldAssignment, fold_datasets
from mlresample.synthetic import random_dataset

from _oracles import oracle_stratified_fold_of
from conftest import make_dataset


def frequency_fixture(seed=0, n=100, rate=0.2):
    """Two labels: one everywhere-common background, one at a fixed rate."""
    rng = np.random.default_rng(seed)
    rows = []
    hot = rng.choice(n, size=int(n * rate), replace=False)
    for i in range(n):
        active = [0] if i not in hot else [0, 1]
        rows.append(((float(rng.normal()),), active))
    return make_dataset([AttributeSpec("x")], ("bg", "rare"), rows, name="freq")


class TestStratifiedKFold:
    def test_pigeonhole_when_n_equals_folds(self):
        d = random_dataset(3, max_n=1, max_k=3)
        d = d.replace_instances(d.instances * 10)
        assignment = stratified_kfold(d, folds=10, seed=0)
        sizes = [len(assignment.test_indices(f)) for f in range(10)]
        assert sizes == [1] * 10

    def test_partition_properties(self):
        d = frequency_fixture()
        assignment = stratified_kfold(d, folds=5, seed=1)
        all_test = [i for f in range(5) for i in assignment.test_indices(f)]
        assert sorted(all_test) == list(range(d.n))
        for f in range(5):
            toest = set(assignment.test_indices(f))
            train = set(assignment.train_indices(f))
            assert toest.isdisjoint(train)
            assert toest | train == set(range(d.n))

    def test_fold_sizes_balanced(self):
        d = frequency_fixture(n=103)
        assignment = stratified_kfold(d, folds=10, seed=2)
        sizes = sorted(len(assignment.test_indices(f)) for f in range(10))
        assert sizes[0] >= 10 and sizes[-1] <= 11

    def test_label_frequency_near_global(self):
        d = frequency_fixture(seed=4, n=100, rate=0.2)
        y = label_matrix(d)
        assignment = stratified_kfold(d, folds=5, seed=7)
        for f in range(5):
            idx = list(assignment.test_indices(f))
            freq = y[idx, 1].mean()
            assert 0.1 <= freq <= 0.3

    def test_deterministic_given_seed(self):
        d = frequency_fixture(seed=9)
        a = stratified_kfold(d, folds=4, seed=42)
        b = stratified_kfold(d, folds=4, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        d = frequency_fixture(seed=9)
        a = stratified_kfold(d, folds=4, seed=1)
        b = stratified_kfold(d, folds=4, seed=2)
        assert a != b  # overwhelmingly likely with 100 instances

    def test_folds_bound_errors(self, toy6):
        with pytest.raises(ValueError):
            stratified_kfold(toy6, folds=7, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(toy6, folds=1, seed=0)

    def test_empty_labelsets_still_assigned(self):
        rows = [((float(i),), [0] if i % 2 else []) for i in range(12)]
        d = make_dataset([AttributeSpec("x")], ("A",), rows)
        assignment = stratified_kfold(d, folds=3, seed=0)
        assert sorted(len(assignment.test_indices(f)) for f in range(3)) == [4, 4, 4]

    def test_csv_format(self, toy6):
        assignment = stratified_kfold(toy6, folds=2, seed=0)
        lines = assignment.to_csv().splitlines()
        assert lines[0] == "instance_index,fold"
        assert len(lines) == 7
        assert lines[1].startswith("0,")


@st.composite
def label_matrices(draw):
    """A fold count and a label matrix with at least that many rows, many of them repeated."""
    folds = draw(st.integers(2, 10))
    n, k = draw(st.integers(folds, 60)), draw(st.integers(1, 6))
    distinct = draw(arrays(np.bool_, (draw(st.integers(1, n)), k)))
    picks = draw(arrays(np.intp, n, elements=st.integers(0, len(distinct) - 1)))
    return folds, distinct[picks]


# 500 of 501 rows hold the label, so the two folds' demands come to differ
# by 1/501, which np.isclose's relative tolerance calls a tie
RELATIVE_TIE = np.arange(501)[:, None] < 500


@settings(max_examples=150, deadline=None)
@given(label_matrices(), st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
@example((2, RELATIVE_TIE), [0])
def test_folds_match_the_per_instance_numpy_placement(folds_and_y, seeds):
    folds, y = folds_and_y
    n, k = y.shape
    labels = tuple(f"L{l}" for l in range(k))
    d = MultiLabelDataset.from_arrays(
        (AttributeSpec("x"),), labels, np.zeros((n, 1)), np.zeros((n, 0), np.int64), y
    )
    for seed in seeds:
        assert stratified_kfold(d, folds, seed).fold_of == oracle_stratified_fold_of(d, folds, seed)


class TestFoldDatasets:
    def test_train_test_split_contents(self, toy6):
        assignment = stratified_kfold(toy6, folds=3, seed=5)
        train, test = fold_datasets(toy6, assignment, 0)
        assert train.n + test.n == toy6.n
        assert train.attributes == toy6.attributes
        assert set(train.instances) | set(test.instances) == set(toy6.instances)

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            FoldAssignment(fold_of=(0, 5), folds=2)
