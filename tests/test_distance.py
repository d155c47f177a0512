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
        got = neighbors(enc, prepare_reference(enc), k, exclude=np.arange(ref.n))
        assert got.tolist() == oracle_neighbors(ref, rows(ref), k, exclude_self=True)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [1, 4, 30])
    def test_square_including_self(self, seed, k):
        ref, _ = reference_and_query(seed, 30, 0)
        enc = FeatureSpace(ref).encode(ref)
        got = neighbors(enc, prepare_reference(enc), k)
        assert got.tolist() == oracle_neighbors(ref, rows(ref), k)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n_query", [0, 1, 17, 45])
    def test_rectangular(self, seed, n_query):
        ref, query = reference_and_query(seed, 25, n_query)
        space = FeatureSpace(ref)
        got = neighbors(space.encode(query), prepare_reference(space.encode(ref)), 5)
        assert got.shape == (n_query, 5)
        assert got.tolist() == oracle_neighbors(ref, rows(query), 5)

    @pytest.mark.parametrize("cells", [1, 100, 500])  # 1, 2 and 12 rows per block
    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_many_blocks(self, monkeypatch, cells, exclude_self):
        monkeypatch.setattr(distance, "_BLOCK_CELLS", cells)
        monkeypatch.setattr(distance, "_MIN_BLOCK_ROWS", 1)
        ref, _ = reference_and_query(11, 40, 0)
        enc = FeatureSpace(ref).encode(ref)
        exclude = np.arange(ref.n) if exclude_self else None
        got = neighbors(enc, prepare_reference(enc), 6, exclude=exclude)
        assert got.tolist() == oracle_neighbors(ref, rows(ref), 6, exclude_self)

    def test_duplicates_tie_to_lower_index(self):
        rows = [((1.0, 0, 1.0), [0])] * 5 + [((0.0, 1, 0.0), [1])]
        d = make_dataset(ATTRS, ("A", "B"), rows)
        enc = FeatureSpace(d).encode(d)
        assert neighbors(enc, prepare_reference(enc), 3, exclude=np.arange(6)).tolist() == [
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
        assert neighbors(enc, prepared, 4).tolist()[3] == [0, 1, 2, 3]
        assert neighbors(enc, prepared, 2, exclude=np.arange(5)).tolist()[3] == [0, 1]
        assert neighbors(enc, prepared, 4, exclude=np.arange(5)).tolist()[3] == [0, 1, 2, 4]


class TestNeighborsArguments:
    def test_k_out_of_range(self, toy6):
        enc = FeatureSpace(toy6).encode(toy6)
        with pytest.raises(ValueError):
            neighbors(enc, prepare_reference(enc), 0)
        with pytest.raises(ValueError):
            neighbors(enc, prepare_reference(enc), 6, exclude=np.arange(6))
        assert neighbors(enc, prepare_reference(enc), 6).shape == (6, 6)


def full_matrix(query, reference):
    """Every distance cell from the engine's exact kernel, one block of query rows
    at a time in the block buffers that every block reuses, blocked as the engine blocks."""
    prepared = prepare_reference(reference)
    q_num, q_nom = query
    rows = max(distance._MIN_BLOCK_ROWS, distance._BLOCK_CELLS // prepared.n)
    buffers = distance._Buffers(min(rows, q_num.shape[0]), prepared)
    nan_cols = distance._non_finite_columns(q_num, prepared)
    blocks = []
    for at in range(0, q_num.shape[0], rows):
        block = q_num[at : at + rows], q_nom[at : at + rows]
        blocks.append(np.sqrt(distance._exact_totals(*block, prepared, nan_cols, buffers)))
    return np.concatenate(blocks) if blocks else np.zeros((0, prepared.n))


def encode_rows(rows, n_numeric, n_nominal):
    numeric = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), n_numeric)
    nominal = np.array([r[1] for r in rows], dtype=np.int64).reshape(len(rows), n_nominal)
    return numeric, nominal


# coarse values make exact ties; inf - inf makes a NaN term without a NaN input
COARSE_VALUES = [0.0, 0.25, 1 / 3, 0.5, 1.0, math.nan, math.inf]
NUMERIC_VALUES = st.sampled_from(COARSE_VALUES) | st.floats(-2, 2)


ENGINE_BLOCKS = distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS


@st.composite
def encoded_cases(draw):
    """(query, reference, k, exclude, blocks) over a mixed schema with missing values.

    Rows repeat a few distinct ones, so many distances tie.  The query is the
    reference itself, a subset of its rows (as MLeNN asks) or other rows.
    ``blocks`` is the engine's (block cells, row floor).  In the binary-heavy
    mode the reference's codes lie in {0, 1} and some of its columns hold only
    0; the other query rows also hold codes of 2 or more, past the
    reference's width, and -1 appears in the reference's rows or in those
    other rows, never both.
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
        n_query = len(query_rows)
        own = draw(st.lists(st.integers(0, n_ref - 1), min_size=n_query, max_size=n_query))
    else:
        own = list(range(n_ref))
        if kind == "subset":
            own = sorted(set(draw(st.lists(st.integers(0, n_ref - 1), max_size=n_ref))))
        query_rows = [ref_rows[i] for i in own]
    query = encode_rows(query_rows, n_numeric, n_nominal)
    exclude = np.array(own, dtype=np.intp) if n_ref > 1 and draw(st.booleans()) else None
    k = draw(st.integers(1, n_ref - (exclude is not None)))
    return query, reference, k, exclude, draw(st.sampled_from([(1, 1), (7, 1), ENGINE_BLOCKS]))


def pinned_case(numeric, k, exclude, nominal=None):
    """A square case: one numeric column, and nominal codes (one column of 0 by default)."""
    nominal = nominal or [(0,)] * len(numeric)
    enc = encode_rows([((v,), codes) for v, codes in zip(numeric, nominal)], 1, len(nominal[0]))
    return enc, enc, k, np.arange(len(numeric)) if exclude else None, ENGINE_BLOCKS


def rect_case(query_rows, ref_rows, k, exclude=None, blocks=ENGINE_BLOCKS):
    """A case of explicit ``(numeric, nominal)`` rows."""
    shape = len(ref_rows[0][0]), len(ref_rows[0][1])
    exclude = None if exclude is None else np.array(exclude, dtype=np.intp)
    query, reference = encode_rows(query_rows, *shape), encode_rows(ref_rows, *shape)
    return query, reference, k, exclude, blocks


def binary_rows(n, seed, codes, zero_columns=()):
    """``n`` rows of four nominal codes drawn from ``codes`` (0 in ``zero_columns``),
    repeating five distinct rows so that distances tie."""
    rng = np.random.default_rng(seed)
    distinct = rng.choice(codes, (5, 4))
    distinct[:, list(zero_columns)] = 0
    return [((), tuple(distinct[i])) for i in rng.integers(0, 5, n)]


# one query row more, and one fewer, than the row floor, over one block cell
# per reference row, so that the floor alone sets the blocks.  The reference
# is two-valued and its third column holds only 0; the query holds missing
# codes, codes past the reference's width and 1 in that column.
FLOOR_BLOCKS = 1, distance._MIN_BLOCK_ROWS
FLOOR_SELF = binary_rows(FLOOR_BLOCKS[1] + 1, 0, (0, 1), zero_columns=[2])
FLOOR_QUERY = binary_rows(FLOOR_BLOCKS[1] - 1, 4, (-1, 0, 1, 2))


UNIT_GRID = [((v,), ()) for v in (0.0, 0.25, 0.5, 0.75, 1.0)]
# every norm overflows, while every difference is a finite, distinct few ulps
HUGE_ROWS = [((1e154 * (1 + i * 1e-15),) * 3, ()) for i in (0, 3, 1, 4, 2, 5)]
# squares below the smallest normal float: the estimate and the cells underflow
TINY_ROWS = [((v, 0.0), ()) for v in (0.0, 1e-162, 3e-162, 2e-162, 1e-160, 2.5e-162)]
MISSING_ROWS = [
    ((0.0, 1.0), (0,)), ((math.nan, math.nan), (0,)), ((1.0, 0.0), (1,)),
    ((0.5, 0.5), (-1,)), ((math.nan, math.nan), (-1,)),
]
NOMINAL_ROWS = [((), (a, b)) for a, b in [(0, 1), (1, 1), (-1, 0), (0, 1), (2, -1), (1, 0)]]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=300, deadline=None)
@given(encoded_cases())
# the first row's norm overflows and takes the exact block; the others are estimated
@example(rect_case([((1.3e154,), ()), ((0.5,), ()), ((0.2,), ())], UNIT_GRID, 2))
@example(rect_case(HUGE_ROWS, HUGE_ROWS, 2, exclude=range(6)))
@example(rect_case(TINY_ROWS, TINY_ROWS, 2, exclude=range(6)))
@example(rect_case(TINY_ROWS[:2], TINY_ROWS, 4))
# row 0 ties row 1 at distance 0, but only row 1's estimate underflows to 0
@example(rect_case([((3e-162,), ())], [((2e-162,), ()), ((3e-162,), ()), ((5e-162,), ())], 1))
# rows missing every numeric value, on both sides
@example(rect_case(MISSING_ROWS, MISSING_ROWS, 2, exclude=range(5)))
@example(rect_case(MISSING_ROWS[1:3], MISSING_ROWS[2:], 2))
# a reference without numeric columns: the nominal count is exact already
@example(rect_case(NOMINAL_ROWS, NOMINAL_ROWS, 3, exclude=range(6)))
@example(rect_case(NOMINAL_ROWS[2:4], NOMINAL_ROWS, 2))
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
# two-valued columns, blocked by the row floor: 33 rows in two blocks, 31 in one
@example(rect_case(FLOOR_SELF, FLOOR_SELF, 3, exclude=range(len(FLOOR_SELF)), blocks=FLOOR_BLOCKS))
@example(rect_case(FLOOR_QUERY, FLOOR_SELF, 4, blocks=FLOOR_BLOCKS))
def test_engine_matches_the_per_column_kernel_and_a_full_sort(case):
    check_engine(case)


def estimates(case):
    """Whether the engine ranks this case by estimates: some numeric column is
    finite on both sides and a row needs fewer cells than the reference holds."""
    query, reference, k, exclude, _ = case
    finite = np.isfinite(query[0]).all(axis=0) & np.isfinite(reference[0]).all(axis=0)
    return finite.any() and k + (exclude is not None) < reference[0].shape[0]


def check_engine(case):
    query, reference, k, exclude, blocks = case
    saved = distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS, distance._estimate
    real_estimate = saved[2]
    estimated = []

    def recording_estimate(*args):
        estimated.append(args[0].shape[0])
        return real_estimate(*args)

    try:
        # small cells and a floor of 1 give several blocks on either path
        distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS = blocks
        distance._estimate = recording_estimate
        got_cells = full_matrix(query, reference)
        got = neighbors(query, prepare_reference(reference), k, exclude=exclude)
    finally:
        distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS, distance._estimate = saved
    want_cells = oracle_distances(query, reference)
    assert np.array_equal(got_cells.view(np.uint64), want_cells.view(np.uint64))
    # the re-rank's cells, taken pair by pair, are the same bits
    rows, cols = np.indices(want_cells.shape).reshape(2, -1)
    if rows.size and query[0].shape[1]:
        pairs = distance._pair_distances(*query, rows, prepare_reference(reference), cols)
        assert np.array_equal(pairs.view(np.uint64), want_cells.ravel().view(np.uint64))
    assert got.tolist() == oracle_encoded_neighbors(query, reference, k, exclude).tolist()
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
    got = neighbors(enc, prepare_reference(enc), 2, exclude=np.arange(80))
    assert sorted_shapes == [(80, 80)]
    assert got.tolist() == oracle_encoded_neighbors(enc, enc, 2, np.arange(80)).tolist()


def test_cells_one_ulp_apart_that_the_estimates_misorder():
    """Rows a few ulps apart: their exact distances differ by single ulps, which the
    Gram estimates cannot resolve; only the exact re-rank orders them."""
    misordered = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        base = rng.random(3)
        rows = base + rng.integers(-3, 4, (30, 3)) * np.spacing(base)
        query = (rng.random((1, 3)), np.zeros((1, 0), dtype=np.int64))
        reference = (rows, np.zeros((30, 0), dtype=np.int64))
        prepared = prepare_reference(reference)
        nan_cols = distance._non_finite_columns(query[0], prepared)
        est, _ = distance._estimate(
            *query, prepared, prepared.gram(~nan_cols), nan_cols, distance._Buffers(1, prepared)
        )
        est, exact = est[0].copy(), oracle_distances(query, reference)[0]
        misordered += sum(
            est[i] > est[j]
            for i in range(30)
            for j in range(30)
            if exact[j] == np.nextafter(exact[i], math.inf)
        )
        for k in (1, 2, 7, 29):
            got = neighbors(query, prepared, k)
            assert got.tolist() == oracle_encoded_neighbors(query, reference, k).tolist()
    assert misordered


@pytest.mark.parametrize("noise", ["up", "down", "signs", "uniform", "adversarial"])
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@settings(max_examples=100, deadline=None)
@given(case=encoded_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=rect_case(TINY_ROWS, TINY_ROWS, 2, exclude=range(6)), seed=0)
@example(case=pinned_case([0.25] * 6, 3, exclude=True), seed=0)
def test_estimates_anywhere_within_their_bound_give_the_same_lists(noise, case, seed):
    """Replace every usable estimate by the exact squared cell plus noise up to its row's bound."""
    rng = np.random.default_rng(seed)
    m = case[2] + (case[3] is not None)
    real_estimate = distance._estimate

    def perturbed(q_num, q_nom, reference, *rest):
        est, bound = real_estimate(q_num, q_nom, reference, *rest)
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
    exclude = np.arange(d.n) if d.n > 1 else None
    # every other row needs every cell; the nearest one leaves room for estimates
    for k in {max(d.n - 1, 1), 1}:
        whole = neighbors(enc, prepare_reference(enc), k, exclude=exclude)
        original = distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS
        try:
            # one query row per block on the estimated path as well as the exact one
            distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS = 1, 1
            one_row = neighbors(enc, prepare_reference(enc), k, exclude=exclude)
        finally:
            distance._BLOCK_CELLS, distance._MIN_BLOCK_ROWS = original
        assert np.array_equal(whole, one_row)


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
    """Bit for bit the counts of the kernel that gave every column one indicator per code."""
    query, reference = pair
    prepared = prepare_reference((np.zeros((reference.shape[0], 0)), reference))
    got = distance._mismatches(query, prepared, distance._Buffers(query.shape[0], prepared))
    want = oracle_one_hot_mismatches(query, reference)
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
    # the reference's own pair, from the conversion that fitted the scaling
    assert np.array_equal(space.encoded[0].view(np.uint64), numeric.view(np.uint64))
    assert np.array_equal(space.encoded[1], nominal)
    # the same bits as scaling a row-major matrix of the raw values
    columns = [i for i, a in enumerate(d.attributes) if not a.is_nominal]
    raw = np.array([[inst.features[i] for i in columns] for inst in rows(d)], dtype=float)
    raw = raw.reshape(d.n, len(columns))
    expected = (raw * space._scales - space._mins) / space._spans
    assert np.array_equal(numeric.view(np.uint64), expected.view(np.uint64))
    columns = prepare_reference((numeric, np.zeros((d.n, 0), dtype=np.int64))).columns
    assert columns.flags.c_contiguous and np.array_equal(columns.T, numeric, equal_nan=True)
    assert numeric.size == 0 or np.shares_memory(columns, numeric)
    own = prepare_reference(space.encoded).columns
    assert numeric.size == 0 or np.shares_memory(own, space.encoded[0])
