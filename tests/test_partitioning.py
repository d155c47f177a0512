import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mlresample import AttributeSpec, MultiLabelDataset, fold_datasets, stratified_kfold
from mlresample.cli import main
from mlresample.synthetic import random_dataset

from _oracles import oracle_stratified_fold_of, rows
from conftest import make_dataset, write_dataset_files


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
        d = d.subset([*range(d.n)] * 10)
        fold_of = stratified_kfold(d, folds=10, seed=0)
        assert np.bincount(fold_of).tolist() == [1] * 10

    def test_partition_properties(self):
        d = frequency_fixture()
        fold_of = stratified_kfold(d, folds=5, seed=1)
        assert fold_of.dtype == np.int64 and fold_of.shape == (d.n,)
        assert not fold_of.flags.writeable
        assert set(fold_of.tolist()) == set(range(5))

    def test_fold_sizes_balanced(self):
        d = frequency_fixture(n=103)
        fold_of = stratified_kfold(d, folds=10, seed=2)
        sizes = sorted(np.bincount(fold_of, minlength=10).tolist())
        assert sizes[0] >= 10 and sizes[-1] <= 11

    def test_label_frequency_near_global(self):
        d = frequency_fixture(seed=4, n=100, rate=0.2)
        y = d.y
        fold_of = stratified_kfold(d, folds=5, seed=7)
        for f in range(5):
            freq = y[fold_of == f, 1].mean()
            assert 0.1 <= freq <= 0.3

    def test_deterministic_given_seed(self):
        d = frequency_fixture(seed=9)
        a = stratified_kfold(d, folds=4, seed=42)
        b = stratified_kfold(d, folds=4, seed=42)
        assert a.tolist() == b.tolist()

    def test_different_seeds_differ(self):
        d = frequency_fixture(seed=9)
        a = stratified_kfold(d, folds=4, seed=1)
        b = stratified_kfold(d, folds=4, seed=2)
        assert a.tolist() != b.tolist()  # overwhelmingly likely with 100 instances

    def test_folds_bound_errors(self, toy6):
        with pytest.raises(ValueError):
            stratified_kfold(toy6, folds=7, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold(toy6, folds=1, seed=0)

    def test_empty_labelsets_still_assigned(self):
        rows = [((float(i),), [0] if i % 2 else []) for i in range(12)]
        d = make_dataset([AttributeSpec("x")], ("A",), rows)
        assert np.bincount(stratified_kfold(d, folds=3, seed=0)).tolist() == [4, 4, 4]

    def test_csv_format(self, toy6, tmp_path):
        arff, xml = write_dataset_files(toy6, tmp_path, "toy6")
        out_dir = tmp_path / "folds"
        argv = ["partition", arff, xml, "--folds", 2, "--seed", 0, "--out-dir", out_dir]
        assert main([str(a) for a in argv]) == 0
        lines = (out_dir / "folds.csv").read_text().splitlines()
        assert lines[0] == "instance_index,fold"
        assert len(lines) == 7
        assert lines[1].startswith("0,")
        fold_of = stratified_kfold(toy6, folds=2, seed=0)
        assert lines[1:] == [f"{i},{f}" for i, f in enumerate(fold_of.tolist())]


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
    d = MultiLabelDataset(
        (AttributeSpec("x"),), labels, np.zeros((n, 1)), np.zeros((n, 0), np.int64), y
    )
    for seed in seeds:
        got = tuple(stratified_kfold(d, folds, seed).tolist())
        assert got == oracle_stratified_fold_of(d, folds, seed)


class TestFoldDatasets:
    def test_train_test_split_contents(self, toy6):
        fold_of = stratified_kfold(toy6, folds=3, seed=5)
        train, test = fold_datasets(toy6, fold_of, 0)
        assert train.n + test.n == toy6.n
        assert test.n == np.count_nonzero(fold_of == 0)
        assert train.attributes == toy6.attributes
        assert (train.name, test.name) == (f"{toy6.name}-f0-train", f"{toy6.name}-f0-test")
        assert set(rows(train)) | set(rows(test)) == set(rows(toy6))
