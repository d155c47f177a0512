import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlresample import AttributeSpec, distance
from mlresample.distance import FeatureSpace, neighbors, prepare_reference

from conftest import datasets, make_dataset
from _oracles import (
    oracle_distances,
    oracle_encoded_neighbors,
    oracle_feature_scaling,
    oracle_neighbors,
    oracle_one_hot_mismatches,
    oracle_squared_distances,
    rows,
)

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
        enc = FeatureSpace(ref).encode(ref)
        got = neighbors(prepare_reference(enc), k)
        assert got.tolist() == oracle_neighbors(ref, rows(ref), k, exclude_self=True)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_square_including_self(self, seed, k):
        ref, _ = reference_and_query(seed, 30, 0)
        enc = FeatureSpace(ref).encode(ref)
        got = neighbors(prepare_reference(enc), k, query=enc)
        assert got.tolist() == oracle_neighbors(ref, rows(ref), k)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_query", [0, 1, 17, 45])
    def test_rectangular(self, seed, n_query):
        ref, query = reference_and_query(seed, 25, n_query)
        space = FeatureSpace(ref)
        got = neighbors(prepare_reference(space.encode(ref)), 5, query=space.encode(query))
        assert got.shape == (n_query, 5)
        assert got.tolist() == oracle_neighbors(ref, rows(query), 5)

    # float64 cells per block array: 1, 2 and 12 rows per block, and 1, 5
    # and 25 of float32 cells
    @pytest.mark.parametrize("cells", [1, 100, 500])
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_many_blocks(self, monkeypatch, cells, exclude_self):
        monkeypatch.setattr(distance, "_BLOCK_BYTES", 8 * cells)
        monkeypatch.setattr(distance, "_MIN_BLOCK_ROWS", 1)
        ref, _ = reference_and_query(11, 40, 0)
        enc = FeatureSpace(ref).encode(ref)
        prepared = prepare_reference(enc)
        if exclude_self:
            got = neighbors(prepared, 6, rows=np.arange(ref.n))
        else:
            got = neighbors(prepared, 6, query=enc)
        assert got.tolist() == oracle_neighbors(ref, rows(ref), 6, exclude_self)

    def test_duplicates_tie_to_lower_index(self):
        rows = [((1.0, 0, 1.0), [0])] * 5 + [((0.0, 1, 0.0), [1])]
        d = make_dataset(ATTRS, ("A", "B"), rows)
        enc = FeatureSpace(d).encode(d)
        assert neighbors(prepare_reference(enc), 3).tolist() == [
            [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2], [0, 1, 2], [0, 1, 2]
        ]

    def test_missing_self_ties_behind_lower_rows(self):
        # a missing value is distance 1 even from itself, so row 3 ties with
        # rows 0-2 and sorts after them: its own index lies beyond the first
        # k + 1 and nothing has to be dropped
        rows = [((0.0, 0, 0.0), [0])] * 3 + [((None, 0, 0.0), [0]), ((4.0, 2, 4.0), [1])]
        d = make_dataset(ATTRS, ("A", "B"), rows)
        enc = FeatureSpace(d).encode(d)
        prepared = prepare_reference(enc)
        assert neighbors(prepared, 4, query=enc).tolist()[3] == [0, 1, 2, 3]
        assert neighbors(prepared, 2).tolist()[3] == [0, 1]
        assert neighbors(prepared, 4).tolist()[3] == [0, 1, 2, 4]


class TestNeighborsArguments:
    def test_k_out_of_range(self, toy6):
        enc = FeatureSpace(toy6).encode(toy6)
        prepared = prepare_reference(enc)
        with pytest.raises(ValueError):
            neighbors(prepared, 0, query=enc)
        with pytest.raises(ValueError):
            neighbors(prepared, 6)
        with pytest.raises(ValueError):
            neighbors(prepared, 6, rows=np.arange(2))
        assert neighbors(prepared, 6, query=enc).shape == (6, 6)

    def test_rows_and_query_together(self, toy6):
        enc = FeatureSpace(toy6).encode(toy6)
        with pytest.raises(ValueError, match="not both"):
            neighbors(prepare_reference(enc), 2, rows=np.arange(6), query=enc)


def full_matrix(query, reference):
    """Every distance cell from the engine's exact kernel, one block of query rows
    at a time in the block buffers that every block reuses, blocked as the engine
    blocks a query that it never estimates.  The float32 counts of a query
    without numeric columns take their square root in float64."""
    prepared = prepare_reference(reference)
    q_num, q_nom = query
    rows = distance._block_rows(prepared.n, product=not q_num.shape[1])
    n = min(rows, q_num.shape[0])
    buffers = distance._Buffers(n, n, prepared)
    nan_cols = distance._non_finite_columns(q_num, prepared)
    blocks = []
    for at in range(0, q_num.shape[0], rows):
        block = q_num[at : at + rows], q_nom[at : at + rows]
        totals = distance._exact_totals(*block, prepared, nan_cols, buffers)
        blocks.append(np.sqrt(totals, dtype=np.float64))
    return np.concatenate(blocks) if blocks else np.zeros((0, prepared.n))


def encode_rows(rows, n_numeric, n_nominal):
    numeric = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), n_numeric)
    nominal = np.array([r[1] for r in rows], dtype=np.int64).reshape(len(rows), n_nominal)
    return numeric, nominal


# coarse values make exact ties; inf - inf makes a NaN term without a NaN input
COARSE_VALUES = [0.0, 0.25, 1 / 3, 0.5, 1.0, math.nan, math.inf]
NUMERIC_VALUES = st.sampled_from(COARSE_VALUES) | st.floats(-2, 2)


ENGINE_BLOCKS = distance._BLOCK_BYTES, distance._MIN_BLOCK_ROWS


@st.composite
def encoded_cases(draw):
    """(query, reference, k, rows, blocks) over a mixed schema with missing values.

    Rows repeat a few distinct ones, so many distances tie.  The query is the
    reference itself, a subset of its rows (as MLeNN asks) or other rows.
    ``rows`` names the query's reference rows for a self-query, in which each
    row skips its own index; it is None when the engine takes the query's
    encoded pair and skips nothing: always for other rows, and in some draws
    for the reference's own.
    ``blocks`` is the engine's (bytes per block array, row floor of a float32
    product block).  In the binary-heavy mode the reference's codes lie
    in {0, 1} and some of its columns hold only 0; the other query rows also
    hold codes of 2 or more, past the reference's width, and -1 appears in
    the reference's rows or in those other rows, never both.
    """
    binary = draw(st.booleans())
    n_numeric, n_nominal = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    ref_codes = other_codes = st.integers(-1, 3)
    if binary:
        missing_in_reference = draw(st.booleans())
        ref_codes = st.integers(-1 if missing_in_reference else 0, 1)
        other_codes = st.integers(0 if missing_in_reference else -1, 3)
        zeros = draw(st.sets(st.integers(0, n_nominal - 1))) if n_nominal else set()

    def row(codes):
        return st.tuples(
            st.lists(NUMERIC_VALUES, min_size=n_numeric, max_size=n_numeric),
            st.lists(codes, min_size=n_nominal, max_size=n_nominal),
        )

    distinct = draw(st.lists(row(ref_codes), min_size=1, max_size=8))
    if binary:
        distinct = [(v, [0 if c in zeros else x for c, x in enumerate(cs)]) for v, cs in distinct]
    picks = st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=20)
    ref_rows = [distinct[i] for i in draw(picks)]
    reference = encode_rows(ref_rows, n_numeric, n_nominal)
    n_ref = len(ref_rows)
    kind = draw(st.sampled_from(["self", "subset", "other"]))
    if kind == "other":
        others = draw(st.lists(row(other_codes), max_size=4))
        query_rows = [distinct[i] for i in draw(picks)] + others
        own = None
    else:
        own = list(range(n_ref))
        if kind == "subset":
            own = sorted(set(draw(st.lists(st.integers(0, n_ref - 1), max_size=n_ref))))
        query_rows = [ref_rows[i] for i in own]
    query = encode_rows(query_rows, n_numeric, n_nominal)
    skip = own is not None and n_ref > 1 and draw(st.booleans())
    k = draw(st.integers(1, n_ref - skip))
    own = np.array(own, dtype=np.intp) if skip else None
    return query, reference, k, own, draw(st.sampled_from([(1, 1), (56, 1), ENGINE_BLOCKS]))


def pinned_case(numeric, k, exclude, nominal=None):
    """A square case: one numeric column, and nominal codes (one column of 0 by
    default); with ``exclude`` a self-query of every row, else a foreign query."""
    nominal = nominal or [(0,)] * len(numeric)
    enc = encode_rows([((v,), codes) for v, codes in zip(numeric, nominal)], 1, len(nominal[0]))
    return enc, enc, k, np.arange(len(numeric)) if exclude else None, ENGINE_BLOCKS


def rect_case(query_rows, ref_rows, k, rows=None, blocks=ENGINE_BLOCKS):
    """A case of explicit ``(numeric, nominal)`` rows; a self-query by ``rows``
    when given, whose query rows must be those reference rows."""
    shape = len(ref_rows[0][0]), len(ref_rows[0][1])
    rows = None if rows is None else np.array(rows, dtype=np.intp)
    query, reference = encode_rows(query_rows, *shape), encode_rows(ref_rows, *shape)
    return query, reference, k, rows, blocks


def ask(query, reference, k, rows):
    """The engine's lists for a case: a self-query by ``rows``, or ``query`` as a
    foreign query when ``rows`` is None."""
    prepared = prepare_reference(reference)
    if rows is None:
        return neighbors(prepared, k, query=query)
    # a self-query's encoded rows are the reference's own
    assert np.array_equal(query[0], reference[0][rows], equal_nan=True)
    assert np.array_equal(query[1], reference[1][rows])
    return neighbors(prepared, k, rows=rows)


def binary_rows(n, seed, codes, zero_columns=()):
    """``n`` rows of four nominal codes drawn from ``codes`` (0 in ``zero_columns``),
    repeating five distinct rows so that distances tie."""
    rng = np.random.default_rng(seed)
    distinct = rng.choice(codes, (5, 4))
    distinct[:, list(zero_columns)] = 0
    return [((), tuple(distinct[i])) for i in rng.integers(0, 5, n)]


# one query row more, and one fewer, than the row floor, over one byte per
# block array, so that the floor alone sets the product blocks.  The
# reference is two-valued and its third column holds only 0; the query holds
# missing codes, codes past the reference's width and 1 in that column.
FLOOR_BLOCKS = 1, distance._MIN_BLOCK_ROWS
FLOOR_SELF = binary_rows(distance._MIN_BLOCK_ROWS + 1, 0, (0, 1), zero_columns=[2])
FLOOR_QUERY = binary_rows(distance._MIN_BLOCK_ROWS - 1, 4, (-1, 0, 1, 2))
# the same codes beside a numeric column, finite or with a NaN (estimated
# either way: blocks of the floor)
NUMERIC_FLOOR = [((i / 10,), codes) for i, (_, codes) in enumerate(FLOOR_SELF)]
NAN_FLOOR = [((math.nan,), NUMERIC_FLOOR[0][1])] + NUMERIC_FLOOR[1:]


UNIT_GRID = [((v,), ()) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
# every norm overflows, while every difference is a finite, distinct few ulps
HUGE_ROWS = [((1e154 * (1 + i * 1e-15),) * 3, ()) for i in (0, 3, 1, 4, 2, 5)]
# squares below the smallest normal float: the estimate and the cells underflow
TINY_ROWS = [((v, 0.0), ()) for v in (0.0, 1e-162, 3e-162, 2e-162, 1e-160, 2.5e-162)]
MISSING_ROWS = [
    ((0.0, 1.0), (0,)), ((math.nan, math.nan), (0,)), ((1.0, 0.0), (1,)),
    ((0.5, 0.5), (-1,)), ((math.nan, math.nan), (-1,)),
]
# past float32's range: the first row's |q|^2 (1e20 times the span) and the
# third row's value (1e39) take the exact block; the others are estimated
BEYOND_FLOAT32 = [((1e20,), ()), ((0.3,), ()), ((1e39,), ()), ((0.6,), ())]
# float32 subnormals: the estimates are all within the underflow slack
SUBNORMAL_ROWS = [((v, 0.0), ()) for v in (0.0, 1e-40, 3e-40, 2e-40, 1e-39, 2.5e-40)]
# four rows at 0.25 from 0.5, beside a nearer one and 20 far ones: the kept
# cells tie, and the re-rank orders them by index
TIED_KEPT = [((v,), ()) for v in (0.75, 0.25, 0.7, 0.75, 0.25, *range(2, 22))]
NOMINAL_ROWS = [((), (a, b)) for a, b in [(0, 1), (1, 1), (-1, 0), (0, 1), (2, -1), (1, 0)]]
NO_COLUMNS = [((), ())] * 5


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=300, deadline=None)
@given(encoded_cases())
# the first row's norm overflows and takes the exact block; the others are estimated
@example(rect_case([((1.3e154,), ()), ((0.5,), ()), ((0.2,), ())], UNIT_GRID, 2))
@example(rect_case(HUGE_ROWS, HUGE_ROWS, 2, rows=range(6)))
@example(rect_case(TINY_ROWS, TINY_ROWS, 2, rows=range(6)))
@example(rect_case(TINY_ROWS[:2], TINY_ROWS, 4))
# row 0 ties row 1 at distance 0, but only row 1's estimate underflows to 0
@example(rect_case([((3e-162,), ())], [((2e-162,), ()), ((3e-162,), ()), ((5e-162,), ())], 1))
@example(rect_case(BEYOND_FLOAT32, UNIT_GRID, 2))
@example(rect_case(SUBNORMAL_ROWS[2:4], SUBNORMAL_ROWS, 3))
@example(rect_case([((0.5,), ()), ((0.45,), ())], TIED_KEPT, 3))
# rows missing every numeric value, on both sides
@example(rect_case(MISSING_ROWS, MISSING_ROWS, 2, rows=range(5)))
@example(rect_case(MISSING_ROWS[1:3], MISSING_ROWS[2:], 2))
# a reference without numeric columns: the nominal count is exact already
@example(rect_case(NOMINAL_ROWS, NOMINAL_ROWS, 3, rows=range(6)))
@example(rect_case(NOMINAL_ROWS[2:4], NOMINAL_ROWS, 2))
# nominal columns only, k plus the excluded index spans the whole reference:
# the stable argsort of the counts
@example(rect_case(NOMINAL_ROWS, NOMINAL_ROWS, 5, rows=range(6)))
# no columns at all: every distance is 0
@example(rect_case(NO_COLUMNS, NO_COLUMNS, 2, rows=range(5)))
@example(rect_case(NO_COLUMNS[:2], NO_COLUMNS, 5))
# k plus the excluded index spans the whole reference: the full stable sort
@example(pinned_case([0.0, 1.0, 0.5, 0.5, 1.0], 4, exclude=True))
@example(pinned_case([0.0, 1.0, 0.5, 0.5, 1.0], 5, exclude=False))
# every row identical: every cell ties
@example(pinned_case([0.25] * 6, 3, exclude=True))
# row 3 is at distance 1 from every row, itself too, so its own index
# falls outside its first k + 1 and its last pick is dropped instead
@example(pinned_case([0.0, 0.0, 0.0, math.nan, 1.0], 2, exclude=True))
# two mismatches after a numeric term: 0.49 + 1.0 + 1.0 is not 0.49 + 2.0
@example(pinned_case([0.0, 0.7], 1, exclude=False, nominal=[(0, 0), (1, 1)]))
# two-valued columns, blocked by the row floor: 129 rows in two blocks, 127
# in one, beside a numeric column too, with a NaN or without
@example(rect_case(FLOOR_SELF, FLOOR_SELF, 3, rows=range(len(FLOOR_SELF)), blocks=FLOOR_BLOCKS))
@example(rect_case(FLOOR_QUERY, FLOOR_SELF, 4, blocks=FLOOR_BLOCKS))
@example(rect_case(NUMERIC_FLOOR, NUMERIC_FLOOR, 3, rows=range(129), blocks=FLOOR_BLOCKS))
@example(rect_case(NAN_FLOOR, NAN_FLOOR, 3, rows=range(129), blocks=FLOOR_BLOCKS))
def test_engine_matches_the_per_column_kernel_and_a_full_sort(case):
    check_engine(case)


def estimates(case):
    """Whether the engine ranks this case by estimates: it has a numeric column,
    missing values or not, and a row needs fewer cells than the reference holds."""
    query, reference, k, rows, _ = case
    return query[0].shape[1] > 0 and k + (rows is not None) < reference[0].shape[0]


def check_engine(case):
    query, reference, k, own, blocks = case
    floors = "_BLOCK_BYTES", "_MIN_BLOCK_ROWS"
    saved = [getattr(distance, name) for name in floors], distance._estimate
    real_estimate = saved[1]
    estimated = []

    def recording_estimate(*args):
        estimated.append(args[0].shape[0])
        return real_estimate(*args)

    try:
        # small blocks and a floor of 1 give several blocks on either path
        for name, value in zip(floors, blocks):
            setattr(distance, name, value)
        distance._estimate = recording_estimate
        got_cells = full_matrix(query, reference)
        got = ask(query, reference, k, own)
    finally:
        for name, value in zip(floors, saved[0]):
            setattr(distance, name, value)
        distance._estimate = saved[1]
    want_cells = oracle_distances(query, reference)
    assert np.array_equal(got_cells.view(np.uint64), want_cells.view(np.uint64))
    # the re-rank's cells, taken pair by pair, are the same bits
    rows, cols = np.indices(want_cells.shape).reshape(2, -1)
    if rows.size and query[0].shape[1]:
        pairs = distance._pair_distances(*query, rows, prepare_reference(reference), cols)
        assert np.array_equal(pairs.view(np.uint64), want_cells.ravel().view(np.uint64))
    assert got.tolist() == oracle_encoded_neighbors(query, reference, k, own).tolist()
    assert sum(estimated) == (query[0].shape[0] if estimates(case) else 0)


# 0.0 sends every block to the stable argsort, 1.0 every block to the shortlist
@pytest.mark.parametrize("share", [0.0, 1.0])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=150, deadline=None)
@given(case=encoded_cases())
@example(case=pinned_case([0.25] * 6, 3, exclude=True))
@example(case=pinned_case([0.0, 0.0, 0.0, math.nan, 1.0], 2, exclude=True))
def test_both_selection_paths_match_a_full_sort(share, case):
    original = distance._MAX_SHORTLIST_SHARE
    try:
        distance._MAX_SHORTLIST_SHARE = share
        check_engine(case)
    finally:
        distance._MAX_SHORTLIST_SHARE = original


def test_tie_heavy_blocks_take_the_full_sort(monkeypatch):
    sorted_shapes = []
    real_argsort = np.argsort

    def recording_argsort(a, *args, **kwargs):
        sorted_shapes.append(a.shape)
        return real_argsort(a, *args, **kwargs)

    # 70 identical rows of 80: about 77% of the cells tie with their row's 3rd distance
    rows = [((0.25,), (0,))] * 70 + [((float(i),), (1,)) for i in range(10)]
    enc = encode_rows(rows, 1, 1)
    monkeypatch.setattr(distance.np, "argsort", recording_argsort)
    got = neighbors(prepare_reference(enc), 2)
    assert sorted_shapes == [(80, 80)]
    assert got.tolist() == oracle_encoded_neighbors(enc, enc, 2, np.arange(80)).tolist()


def word_rows(n, seed, repeated=0):
    """``n`` rows of 40 binary words, each set with probability 0.1; the last
    ``repeated`` rows are copies of one row."""
    words = (np.random.default_rng(seed).random((n, 40)) < 0.1).astype(np.int64)
    words[n - repeated :] = words[0]
    return np.zeros((n, 0)), words


class TestExactBlocks:
    """A query without numeric columns takes blocks of at least
    ``_MIN_BLOCK_ROWS`` rows, ranked on the float32 mismatch counts; one
    with numeric columns that is never estimated has no such floor."""

    def run(self, monkeypatch, query, reference, k, rows=None):
        """The engine's lists, checked against a full sort; returns the (rows, dtype)
        of every block it ranked and the shapes it sorted whole."""
        ranked, sorted_shapes = [], []
        real_nearest, real_argsort = distance._nearest, np.argsort

        def recording_nearest(block, m):
            ranked.append((block.shape[0], block.dtype))
            return real_nearest(block, m)

        def recording_argsort(a, *args, **kwargs):
            sorted_shapes.append(a.shape)
            return real_argsort(a, *args, **kwargs)

        monkeypatch.setattr(distance, "_nearest", recording_nearest)
        monkeypatch.setattr(distance.np, "argsort", recording_argsort)
        got = ask(query, reference, k, rows)
        monkeypatch.undo()
        assert got.tolist() == oracle_encoded_neighbors(query, reference, k, rows).tolist()
        return ranked, sorted_shapes

    @pytest.mark.parametrize("n", [distance._MIN_BLOCK_ROWS - 1, distance._MIN_BLOCK_ROWS + 1])
    def test_one_row_fewer_and_one_more_than_the_floor(self, monkeypatch, n):
        monkeypatch.setattr(distance, "_BLOCK_BYTES", 1)
        enc = word_rows(n, n)
        ranked, _ = self.run(monkeypatch, enc, enc, 4, rows=np.arange(n))
        floor = distance._MIN_BLOCK_ROWS
        assert ranked == [(min(n, floor), np.float32)] + [(1, np.float32)] * (n > floor)

    def test_the_floor_holds_beyond_the_block_cells(self, monkeypatch):
        # 300 reference rows: 100 KB per block array alone would give blocks of 85 rows
        monkeypatch.setattr(distance, "_BLOCK_BYTES", 100_000)
        enc = word_rows(300, 1)
        ranked, _ = self.run(monkeypatch, enc, enc, 10, rows=np.arange(300))
        assert ranked == [(128, np.float32), (128, np.float32), (44, np.float32)]

    def test_k_plus_the_excluded_index_spans_the_reference(self, monkeypatch):
        enc = word_rows(30, 2, repeated=10)
        ranked, sorted_shapes = self.run(monkeypatch, enc, enc, 29, rows=np.arange(30))
        assert ranked == [(30, np.float32)] and sorted_shapes == [(30, 30)]

    def test_tie_heavy_blocks_past_the_shortlist_share_take_the_full_sort(self, monkeypatch):
        # row 0 and its 280 copies, of 300 rows: each ties with 280 others at 0;
        # blocks of the row floor
        monkeypatch.setattr(distance, "_BLOCK_BYTES", 1)
        enc = word_rows(300, 3, repeated=280)
        ranked, sorted_shapes = self.run(monkeypatch, enc, enc, 3, rows=np.arange(300))
        assert [rows for rows, _ in ranked] == [128, 128, 44]
        assert sorted_shapes == [(128, 300), (128, 300), (44, 300)]

    def test_a_query_without_columns_ranks_float64_zeros(self, monkeypatch):
        enc = np.zeros((5, 0)), np.zeros((5, 0), dtype=np.int64)
        ranked, _ = self.run(monkeypatch, enc, enc, 2, rows=np.arange(5))
        assert ranked == [(5, np.float64)]
        got = neighbors(prepare_reference(enc), 2)
        assert got.tolist() == [[1, 2], [0, 2], [0, 1], [0, 1], [0, 1]]

    def test_numeric_columns_keep_the_lower_floor(self, monkeypatch):
        # each row needs every other row: never estimated, and ranked on
        # float64 distances in blocks of 32 rows, below the product blocks' floor
        monkeypatch.setattr(distance, "_BLOCK_BYTES", 32 * 8 * 129)
        enc = encode_rows(NAN_FLOOR, 1, 4)
        ranked, _ = self.run(monkeypatch, enc, enc, 128, rows=np.arange(129))
        assert ranked == [(32, np.float64)] * 4 + [(1, np.float64)]

    def test_no_float64_block_buffers(self, monkeypatch):
        made = []

        class Recording(distance._Buffers):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(distance, "_Buffers", Recording)
        neighbors(prepare_reference(word_rows(50, 4)), 3)
        # each buffer is made on first use: a query of nominal columns makes only its counts'
        assert [sorted(vars(b).keys() - {"rows", "wide_rows", "reference"}) for b in made] == [
            ["count", "q_hot"]
        ]
        assert made[0].count.shape == (50, 50) and made[0].count.dtype == np.float32


def test_cells_one_ulp_apart_that_the_estimates_misorder(monkeypatch):
    """Rows a few ulps apart: their exact distances differ by single ulps, which the
    float32 estimates cannot resolve (they tie or misorder such cells); only
    the exact re-rank of the kept cells orders them."""
    paths = []

    def recording(name):
        real = getattr(distance, name)

        def record(*args):
            paths.append(name)
            return real(*args)

        return record

    for name in ("_pair_distances", "_exact_totals"):
        monkeypatch.setattr(distance, name, recording(name))
    unordered = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        base = rng.random(3)
        rows = base + rng.integers(-3, 4, (30, 3)) * np.spacing(base)
        # 40 far rows, so that the 30 close cells are under half of the row's and are kept
        far = 5.0 + rng.random((40, 3))
        query = (rng.random((1, 3)), np.zeros((1, 0), dtype=np.int64))
        reference = (np.vstack([rows, far]), np.zeros((70, 0), dtype=np.int64))
        prepared = prepare_reference(reference)
        fused = distance._fused_for(prepared, query[0])
        est, _ = distance._estimate(*query, prepared, fused, distance._Buffers(1, 1, prepared))
        est, exact = est[0].copy(), oracle_distances(query, reference)[0]
        unordered += sum(
            est[i] >= est[j]
            for i in range(30)
            for j in range(30)
            if exact[j] == np.nextafter(exact[i], math.inf)
        )
        for k in (1, 2, 7, 29):
            paths.clear()
            got = neighbors(prepared, k, query=query)
            assert got.tolist() == oracle_encoded_neighbors(query, reference, k).tolist()
            # the close cells were re-ranked one by one, not sent to the full sort
            assert paths == ["_pair_distances"]
    assert unordered


@pytest.mark.parametrize("noise", ["up", "down", "signs", "uniform", "adversarial"])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=100, deadline=None)
@given(case=encoded_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=rect_case(TINY_ROWS, TINY_ROWS, 2, rows=range(6)), seed=0)
@example(case=pinned_case([0.25] * 6, 3, exclude=True), seed=0)
def test_estimates_anywhere_within_their_bound_give_the_same_lists(noise, case, seed):
    """Replace every usable estimate by the exact squared cell plus noise up to its row's bound."""
    rng = np.random.default_rng(seed)
    m = case[2] + (case[3] is not None)
    real_estimate = distance._estimate

    def perturbed(q_num, q_nom, reference, *rest):
        est, bound = real_estimate(q_num, q_nom, reference, *rest)
        # in float64, so that the noise is not rounded away
        est = est.astype(np.float64)
        exact = oracle_squared_distances((q_num, q_nom), (reference.columns.T, reference.nominal))
        if noise == "adversarial":
            # the true nearest look farther and every other cell nearer
            kth = np.sort(exact, axis=1)[:, min(m, exact.shape[1]) - 1, None]
            sign = np.where(exact <= kth, 1.0, -1.0)
        else:
            sign = {
                "up": lambda: np.ones(est.shape),
                "down": lambda: -np.ones(est.shape),
                "signs": lambda: rng.choice([-1.0, 1.0], est.shape),
                "uniform": lambda: rng.uniform(-1.0, 1.0, est.shape),
            }[noise]()
        usable = np.isfinite(bound)
        est[usable] = exact[usable] + sign[usable] * bound[usable, None]
        return est, bound

    try:
        distance._estimate = perturbed
        check_engine(case)
    finally:
        distance._estimate = real_estimate


@st.composite
def bound_cases(draw):
    """(query, reference) of :func:`encoded_cases`, with the numeric values scaled
    from float32's subnormals up to near float64's overflow, past float32's,
    and the nominal codes spread over up to 40 values.  Unscaled codes keep
    the two-valued columns."""
    query, reference, *_ = draw(encoded_cases())
    scales = [1.0, 1e-40, 1e-22, 1e-10, 1e-8, 1e18, 1e19, 1e100, 1e152, 1e153, 2e153]
    scale = draw(st.sampled_from(scales))
    spread = draw(st.sampled_from([1, 5, 13]))

    def widen(pair):
        numeric, codes = pair
        return numeric * scale, np.where(codes >= 0, codes * spread, codes)

    return widen(query), widen(reference)


# tiny numeric terms beside matching codes: the product's partial sums pass
# through the nominal counts, and only the bound's nominal term covers that
TINY_MATCHING = [((1e-9 * i, 2e-9), (i % 3, 7, 1)) for i in range(6)]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=300, deadline=None)
@given(bound_cases())
@example(tuple(encode_rows(TINY_MATCHING, 2, 3) for _ in range(2)))
@example((encode_rows(HUGE_ROWS, 3, 0), encode_rows(HUGE_ROWS, 3, 0)))
@example((encode_rows(MISSING_ROWS, 2, 1), encode_rows(MISSING_ROWS[::-1], 2, 1)))
@example((encode_rows(BEYOND_FLOAT32, 1, 0), encode_rows(UNIT_GRID, 1, 0)))
@example((encode_rows(SUBNORMAL_ROWS, 2, 0), encode_rows(SUBNORMAL_ROWS[::-1], 2, 0)))
@example((encode_rows([((0.5,), ())] * 2, 1, 0), encode_rows(TIED_KEPT, 1, 0)))
def test_the_fused_estimate_errs_by_at_most_its_bound(case):
    """|E - X| <= bound + 4 gamma X for every cell of a row with a finite bound,
    where X is the kernel's own squared total."""
    query, reference = case
    if not query[0].shape[1]:
        return  # no numeric column to estimate with
    prepared = prepare_reference(reference)
    fused = distance._fused_for(prepared, query[0])
    buffers = distance._Buffers(query[0].shape[0], query[0].shape[0], prepared)
    est, bound = distance._estimate(*query, prepared, fused, buffers)
    gamma = distance._rounding_factor(fused[0])
    usable = np.isfinite(bound)
    est, bound = est[usable], bound[usable, None]
    exact = oracle_squared_distances(query, reference)[usable]
    # an infinite term makes both totals infinite; every other cell is finite
    assert np.array_equal(np.isinf(est), np.isinf(exact)) and not np.isnan(est).any()
    finite = np.isfinite(exact)
    error = np.abs(est - exact)[finite]
    assert (error <= (bound + 4 * gamma * exact)[finite]).all()


def run_recorded(monkeypatch, query, reference, k, rows=None, groups=None):
    """The engine's lists, checked against a full sort; returns the group counts
    it chose and whether it built an exact block."""
    real_groups, real_exact = distance._groups, distance._exact_totals
    chosen, exact_blocks = [], []

    def recording_groups(m, n_ref):
        chosen.append(real_groups(m, n_ref) if groups is None else groups)
        return chosen[-1]

    def recording_exact(*args):
        exact_blocks.append(args[0].shape[0])
        return real_exact(*args)

    monkeypatch.setattr(distance, "_groups", recording_groups)
    monkeypatch.setattr(distance, "_exact_totals", recording_exact)
    got = ask(query, reference, k, rows)
    assert got.tolist() == oracle_encoded_neighbors(query, reference, k, rows).tolist()
    return chosen, bool(exact_blocks)


def spread_rows(n, near):
    """``n`` rows of one numeric column at 1 + j/1000, except the rows in ``near``
    (index: value), and one nominal column of 0."""
    values = [near.get(j, 1.0 + j / 1000) for j in range(n)]
    return encode_rows([((v,), (0,)) for v in values], 1, 1)


class TestCutoff:
    """The estimated path's cutoff from the minima of strided column groups."""

    QUERY = encode_rows([((0.0,), (0,)), ((0.5,), (0,))], 1, 1)

    def test_the_nearest_rows_all_in_one_group(self, monkeypatch):
        # 100 rows, m = 2: 32 groups; rows 5, 37 and 69 are group 5
        reference = spread_rows(100, {5: 0.01, 37: 0.02, 69: 0.03})
        chosen, exact = run_recorded(monkeypatch, self.QUERY, reference, 2)
        assert chosen == [32] and not exact

    def test_the_nearest_rows_among_the_columns_past_the_last_whole_slice(self, monkeypatch):
        # 100 rows, 32 groups: columns 96-99 join groups 0-3
        reference = spread_rows(100, {97: 0.01, 99: 0.02, 98: 0.5})
        chosen, exact = run_recorded(monkeypatch, self.QUERY, reference, 3)
        assert chosen == [48] and not exact
        chosen, exact = run_recorded(monkeypatch, self.QUERY, reference, 1)
        assert chosen == [16] and not exact

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_as_many_groups_as_neighbours(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        reference = encode_rows([((v,), (c,)) for v, c in zip(rng.random(101), rng.integers(0, 3, 101))], 1, 1)
        query = encode_rows([((v,), (c,)) for v, c in zip(rng.random(40), rng.integers(0, 3, 40))], 1, 1)
        chosen, exact = run_recorded(monkeypatch, query, reference, m, groups=m)
        assert chosen == [m] and not exact

    def test_a_small_reference_has_one_group_per_column(self, monkeypatch):
        rng = np.random.default_rng(0)
        reference = encode_rows([((a, b), ()) for a, b in rng.random((20, 2))], 2, 0)
        chosen, exact = run_recorded(monkeypatch, reference, reference, 2, rows=np.arange(20))
        assert chosen == [20] and not exact

    def test_tie_heavy_rows_past_the_shortlist_share_take_the_exact_block(self, monkeypatch):
        # 150 identical rows of 200 tie with every such row's 3rd nearest
        rows = [((0.25,), (0,))] * 150 + [((1.0 + i,), (1,)) for i in range(50)]
        enc = encode_rows(rows, 1, 1)
        chosen, exact = run_recorded(monkeypatch, enc, enc, 2, rows=np.arange(200))
        assert chosen == [48] and exact


class TestMissingValues:
    """Missing values are estimated in the one fused product, a query's NaN in a
    column that the reference holds complete by a fused matrix built for it;
    a row holding an infinity takes the exact block."""

    def run(self, monkeypatch, query, reference, k, rows=None):
        """The engine's lists, checked against a full sort; returns the query rows
        of each exact block and the height of each fused matrix it used."""
        exact, heights = [], []
        real_exact, real_fused_for = distance._exact_totals, distance._fused_for

        def recording_exact(q_num, *rest):
            exact.append(q_num.copy())
            return real_exact(q_num, *rest)

        def recording_fused_for(*args):
            fused = real_fused_for(*args)
            heights.append(fused[0].shape[0])
            return fused

        monkeypatch.setattr(distance, "_exact_totals", recording_exact)
        monkeypatch.setattr(distance, "_fused_for", recording_fused_for)
        got = ask(query, reference, k, rows)
        monkeypatch.undo()
        assert got.tolist() == oracle_encoded_neighbors(query, reference, k, rows).tolist()
        return exact, heights

    def test_a_nan_in_every_numeric_column(self, monkeypatch):
        rng = np.random.default_rng(0)
        numeric = rng.random((60, 3))
        numeric[[5, 17, 40], [0, 1, 2]] = math.nan
        enc = numeric, rng.integers(0, 3, (60, 1))
        prepared = prepare_reference(enc)
        # 3 numeric rows, a presence and a square row per gappy column, 3 more
        # rows and 4 indicators
        assert prepared.gappy.all() and prepared.fused.shape[0] == 3 + 2 * 3 + 3 + 4
        for rows in np.arange(60), np.arange(0, 60, 7):
            exact, heights = self.run(monkeypatch, (numeric[rows], enc[1][rows]), enc, 3, rows)
            assert exact == [] and heights == [prepared.fused.shape[0]]

    def test_an_all_missing_row(self, monkeypatch):
        rng = np.random.default_rng(1)
        numeric, codes = rng.random((60, 2)), rng.integers(0, 3, (60, 2))
        numeric[7], codes[7] = math.nan, -1
        exact, _ = self.run(monkeypatch, (numeric, codes), (numeric, codes), 4, np.arange(60))
        assert exact == []
        # as a foreign row beside others, against a reference without it
        query = rng.random((10, 2)), rng.integers(0, 3, (10, 2))
        query[0][3], query[1][3] = math.nan, -1
        reference = np.delete(numeric, 7, axis=0), np.delete(codes, 7, axis=0)
        exact, heights = self.run(monkeypatch, query, reference, 4)
        assert exact == [] and heights == [prepare_reference(reference).fused.shape[0] + 2 * 2]

    def test_a_foreign_nan_where_the_reference_is_complete(self, monkeypatch):
        rng = np.random.default_rng(2)
        reference = rng.random((60, 4)), rng.integers(0, 3, (60, 1))
        reference[0][[3, 9], 1] = math.nan
        query = rng.random((8, 4)), rng.integers(0, 3, (8, 1))
        query[0][5, 2] = math.nan
        prepared = prepare_reference(reference)
        assert prepared.gappy.tolist() == [False, True, False, False]
        # the fused matrix is built for gappy columns 1 and 2: two rows more
        exact, heights = self.run(monkeypatch, query, reference, 3)
        assert exact == [] and heights == [prepared.fused.shape[0] + 2]

    def test_an_infinity_takes_the_exact_block(self, monkeypatch):
        rng = np.random.default_rng(3)
        reference = rng.random((60, 2)), rng.integers(0, 3, (60, 1))
        numeric = rng.random((6, 2))
        numeric[2, 0], numeric[4, 1] = math.inf, -math.inf
        query = numeric, rng.integers(0, 3, (6, 1))
        exact, _ = self.run(monkeypatch, query, reference, 3)
        assert len(exact) == 1 and np.array_equal(exact[0], numeric[[2, 4]])
        # an infinity in a hand-built reference sends every row there
        reference[0][10, 1] = math.inf
        exact, _ = self.run(monkeypatch, query, reference, 3)
        assert len(exact) == 1 and np.array_equal(exact[0], numeric)


@st.composite
def binary_datasets(draw, max_n=40):
    """Bag-of-words-like datasets: binary word columns, now and then a missing
    word, and rows that repeat a few distinct ones, so that most distances tie."""
    n_words = draw(st.integers(1, 6))
    attrs = [AttributeSpec(f"w{j}", values=("0", "1")) for j in range(n_words)]
    word = st.sampled_from([0, 1, None])
    distinct = draw(st.lists(st.tuples(*[word] * n_words), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=max_n))
    return make_dataset(attrs, ("A",), [(distinct[i], [0]) for i in picks])


@settings(max_examples=60, deadline=None)
@given(datasets(max_n=25) | binary_datasets())
def test_block_size_never_changes_the_answer(d):
    enc = FeatureSpace(d).encode(d)
    # a self-query of every row, or of the one row as a foreign query
    query = None if d.n > 1 else enc
    # every other row needs every cell; the nearest one leaves room for estimates
    for k in {max(d.n - 1, 1), 1}:
        whole = neighbors(prepare_reference(enc), k, query=query)
        original = distance._BLOCK_BYTES, distance._MIN_BLOCK_ROWS
        try:
            # one query row per block on the estimated path as well as the exact one
            distance._BLOCK_BYTES, distance._MIN_BLOCK_ROWS = 1, 1
            one_row = neighbors(prepare_reference(enc), k, query=query)
        finally:
            distance._BLOCK_BYTES, distance._MIN_BLOCK_ROWS = original
        assert np.array_equal(whole, one_row)


@settings(max_examples=60, deadline=None)
@given(datasets(max_n=25) | binary_datasets())
def test_a_self_query_of_every_row_names_them_all(d):
    """``rows=None`` reads every prepared row in place and gives the lists of
    ``rows=np.arange(n)`` bit for bit."""
    prepared = prepare_reference(FeatureSpace(d).encode(d))
    for k in {1, d.n - 1} if d.n > 1 else ():
        every = neighbors(prepared, k)
        named = neighbors(prepared, k, rows=np.arange(d.n))
        assert every.dtype == named.dtype and np.array_equal(every, named)


@st.composite
def nominal_pairs(draw):
    """(query codes, reference codes) with missing codes and mixed widths: per
    column two-valued, two-valued with -1 in the reference, all 0, all missing
    or up to six values, and query codes up to 7, past every width."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_query, n_ref = draw(st.integers(0, 40)), draw(st.integers(1, 40))
    n_nominal = draw(st.integers(1, 12))
    reference = np.empty((n_ref, n_nominal), dtype=np.int64)
    for c in range(n_nominal):
        low, high = draw(st.sampled_from([(0, 1), (-1, 1), (0, 0), (-1, -1), (-1, 5), (0, 5)]))
        reference[:, c] = rng.integers(low, high + 1, n_ref)
    return rng.integers(-1, 8, (n_query, n_nominal)), reference


@settings(max_examples=200, deadline=None)
@given(nominal_pairs())
@example((np.array([[0, 1, -1, 2]]), np.array([[0, 0, 0, 0], [1, 0, 1, 1]])))
@example((np.array([[0, 1], [-1, 3]]), np.array([[-1, 0], [1, 0], [0, 2]])))
def test_mismatch_counts_equal_the_full_one_hot_kernel(pair):
    """The counts of the kernel that gave every column one indicator per code, bit
    for bit in float32, without a numeric column and from the fused matrix's
    rows beside a finite one."""
    query, reference = pair
    want = oracle_one_hot_mismatches(query, reference)
    for n_numeric in 0, 1:
        prepared = prepare_reference((np.zeros((reference.shape[0], n_numeric)), reference))
        buffers = distance._Buffers(query.shape[0], query.shape[0], prepared)
        got = distance._mismatches(query, prepared, buffers)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(datasets(max_n=15))
@example(
    make_dataset(
        (AttributeSpec("x"), ATTRS[1]),
        ("A",),
        [((-1.7e308, 0), [0]), ((None, 1), [0]), ((1.7e308, None), []), ((2.0, 2), [0])],
    )
)
def test_distance_is_a_bounded_symmetric_dissimilarity(d):
    enc = FeatureSpace(d).encode(d)
    dist = full_matrix(enc, enc)
    assert np.isfinite(dist).all()
    assert (dist >= 0).all() and (dist <= math.sqrt(len(d.attributes))).all()
    assert np.array_equal(dist, dist.T)
    # a missing value is at distance 1 from everything, itself included
    missing = [sum(v is None for v in inst.features) for inst in rows(d)]
    assert np.array_equal(np.diag(dist), np.sqrt(missing))


class TestOverflowingRange:
    def test_column_spanning_more_than_the_float_maximum(self):
        d = make_dataset(
            [AttributeSpec("x")], ("A",), [((-1.7e308,), [0]), ((0.0,), [0]), ((1.7e308,), [0])]
        )
        numeric, _ = FeatureSpace(d).encode(d)
        assert numeric[:, 0].tolist() == [0.0, 0.5, 1.0]

    def test_finite_span_columns_keep_their_values(self):
        d = make_dataset([AttributeSpec("x")], ("A",), [((-3.0,), [0]), ((0.1,), [0]), ((7.0,), [0])])
        numeric, _ = FeatureSpace(d).encode(d)
        assert numeric[:, 0].tolist() == [0.0, (0.1 - -3.0) / 10.0, 1.0]


class TestScalingFromColumns:
    @pytest.mark.parametrize(
        "column, encoded",
        [
            ([0.0, -0.0, 1.0], [0.0, 0.0, 1.0]),
            ([-0.0, 0.0, None], [0.0, 0.0, math.nan]),
            ([-0.0, -0.0], [0.0, 0.0]),
            ([-1.7e308, 1.7e308, None], [0.0, 1.0, math.nan]),
            ([1.7e308, -1.7e308, 0.0], [1.0, 0.0, 0.5]),
            ([1.7e308, 1.7e308], [0.0, 0.0]),
            ([-1.7e308, 1e308], [0.0, 1.0]),
            ([None, None], [math.nan, math.nan]),
        ],
    )
    def test_pinned_columns(self, column, encoded):
        d = make_dataset([AttributeSpec("x")], ("A",), [((v,), [0]) for v in column])
        numeric, _ = FeatureSpace(d).encode(d)
        assert np.array_equal(numeric[:, 0], encoded, equal_nan=True)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(datasets(max_n=15))
    @example(
        make_dataset(
            (AttributeSpec("x"), AttributeSpec("y"), AttributeSpec("z")),
            ("A",),
            [((-0.0, 1.7e308, None), [0]), ((0.0, -1.7e308, None), [0]), ((-0.0, 2.0, None), [])],
        )
    )
    def test_scaling_equals_the_per_column_loop(self, d):
        space = FeatureSpace(d)
        scales, mins, spans = oracle_feature_scaling(d)
        assert space._scales.tolist() == scales
        assert space._mins.tolist() == mins
        assert space._spans.tolist() == spans


@settings(max_examples=100, deadline=None)
@given(datasets(max_n=15))
def test_the_prepared_reference_keeps_the_encoded_numeric_matrix_once(d):
    space = FeatureSpace(d)
    numeric, nominal = space.encode(d)
    # the scaling alone: each encode gives the same bits, and the codes are the dataset's
    assert not hasattr(space, "encoded")
    assert np.array_equal(space.encode(d)[0].view(np.uint64), numeric.view(np.uint64))
    assert nominal is d.nominal
    # the same bits as scaling a row-major matrix of the raw values
    columns = [i for i, a in enumerate(d.attributes) if not a.is_nominal]
    raw = np.array([[inst.features[i] for i in columns] for inst in rows(d)], dtype=float)
    raw = raw.reshape(d.n, len(columns))
    expected = (raw * space._scales - space._mins) / space._spans
    assert np.array_equal(numeric.view(np.uint64), expected.view(np.uint64))
    # one float64 numeric matrix, the encoded one itself; the fused matrix
    # holds the numeric columns rounded to float32
    prepared = prepare_reference((numeric, np.zeros((d.n, 0), dtype=np.int64)))
    columns = prepared.columns
    assert columns.flags.c_contiguous and np.array_equal(columns.T, numeric, equal_nan=True)
    assert numeric.size == 0 or np.shares_memory(columns, numeric)
    own = prepare_reference((numeric, nominal))
    assert numeric.size == 0 or np.shares_memory(own.columns, numeric)
    assert own.fused is None or own.fused.dtype == np.float32
    # the nominal indicators are held once: as the fused matrix's rows whenever it exists
    assert own.fused is None or np.shares_memory(own.one_hot, own.fused)
