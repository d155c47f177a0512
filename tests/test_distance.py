import numpy as np
import pytest
from hypothesis import given, settings

from mlresample import AttributeSpec, distance
from mlresample.distance import FeatureSpace, neighbors

from conftest import datasets, make_dataset
from _oracles import oracle_neighbors

ATTRS = (
    AttributeSpec("x"),
    AttributeSpec("color", values=("red", "green", "blue")),
    AttributeSpec("y"),
)


def grid_rows(seed, n, pinned=False):
    """Rows on a coarse grid, with duplicates and missing values.

    Numeric values are integers in [0, 4]; with ``pinned`` the first two rows
    fix every numeric column's range to exactly [0, 4], so scaled values are
    exact quarters and every distance, summed in any order, is exact.  That
    makes ties real ties in both the library and the oracle.
    """
    rng = np.random.default_rng(seed)
    rows = []
    if pinned:
        rows += [((0.0, 0, 0.0), [0]), ((4.0, 2, 4.0), [1])]
    while len(rows) < n:
        if rows and rng.random() < 0.25:
            rows.append(rows[int(rng.integers(0, len(rows)))])  # exact duplicate
            continue
        x, y = (None if rng.random() < 0.1 else float(rng.integers(0, 5)) for _ in range(2))
        c = None if rng.random() < 0.1 else int(rng.integers(0, 3))
        rows.append(((x, c, y), [int(rng.integers(0, 2))]))
    return rows


def reference_and_query(seed, n_ref, n_query):
    ref = make_dataset(ATTRS, ("A", "B"), grid_rows(seed, n_ref, pinned=True))
    query = make_dataset(ATTRS, ("A", "B"), grid_rows(seed + 1000, n_query))
    return ref, query


class TestNeighborsAgainstOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_square_excluding_self(self, seed, k):
        ref, _ = reference_and_query(seed, 30, 0)
        enc = FeatureSpace(ref).encode(ref.instances)
        got = neighbors(enc, enc, k, exclude_self=True)
        assert got.tolist() == oracle_neighbors(ref, ref.instances, k, exclude_self=True)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_square_including_self(self, seed, k):
        ref, _ = reference_and_query(seed, 30, 0)
        enc = FeatureSpace(ref).encode(ref.instances)
        got = neighbors(enc, enc, k)
        assert got.tolist() == oracle_neighbors(ref, ref.instances, k)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_query", [0, 1, 17, 45])
    def test_rectangular(self, seed, n_query):
        ref, query = reference_and_query(seed, 25, n_query)
        space = FeatureSpace(ref)
        got = neighbors(space.encode(query.instances), space.encode(ref.instances), 5)
        assert got.shape == (n_query, 5)
        assert got.tolist() == oracle_neighbors(ref, query.instances, 5)

    @pytest.mark.parametrize("cells", [1, 100, 500])  # 1, 2 and 12 rows per block
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_many_blocks(self, monkeypatch, cells, exclude_self):
        monkeypatch.setattr(distance, "_BLOCK_CELLS", cells)
        ref, _ = reference_and_query(11, 40, 0)
        enc = FeatureSpace(ref).encode(ref.instances)
        got = neighbors(enc, enc, 6, exclude_self=exclude_self)
        assert got.tolist() == oracle_neighbors(ref, ref.instances, 6, exclude_self)

    def test_duplicates_tie_to_lower_index(self):
        rows = [((1.0, 0, 1.0), [0])] * 5 + [((0.0, 1, 0.0), [1])]
        d = make_dataset(ATTRS, ("A", "B"), rows)
        enc = FeatureSpace(d).encode(d.instances)
        assert neighbors(enc, enc, 3, exclude_self=True).tolist() == [
            [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2], [0, 1, 2], [0, 1, 2]
        ]

    def test_missing_self_ties_behind_lower_rows(self):
        # a missing value is distance 1 even from itself, so row 3 ties with
        # rows 0-2 and sorts after them: its own index lies beyond the first
        # k + 1 and nothing has to be dropped
        rows = [((0.0, 0, 0.0), [0])] * 3 + [((None, 0, 0.0), [0]), ((4.0, 2, 4.0), [1])]
        d = make_dataset(ATTRS, ("A", "B"), rows)
        enc = FeatureSpace(d).encode(d.instances)
        assert neighbors(enc, enc, 4).tolist()[3] == [0, 1, 2, 3]
        assert neighbors(enc, enc, 2, exclude_self=True).tolist()[3] == [0, 1]
        assert neighbors(enc, enc, 4, exclude_self=True).tolist()[3] == [0, 1, 2, 4]


class TestNeighborsArguments:
    def test_k_out_of_range(self, toy6):
        enc = FeatureSpace(toy6).encode(toy6.instances)
        with pytest.raises(ValueError):
            neighbors(enc, enc, 0)
        with pytest.raises(ValueError):
            neighbors(enc, enc, 6, exclude_self=True)
        assert neighbors(enc, enc, 6).shape == (6, 6)


@settings(max_examples=60, deadline=None)
@given(datasets(max_n=25))
def test_block_size_never_changes_the_answer(d):
    enc = FeatureSpace(d).encode(d.instances)
    k = d.n - 1 if d.n > 1 else 1
    exclude = d.n > 1
    whole = neighbors(enc, enc, k, exclude_self=exclude)
    original = distance._BLOCK_CELLS
    try:
        distance._BLOCK_CELLS = 1
        one_row = neighbors(enc, enc, k, exclude_self=exclude)
    finally:
        distance._BLOCK_CELLS = original
    assert np.array_equal(whole, one_row)
