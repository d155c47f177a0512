import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from mlresample import AttributeSpec, MultiLabelDataset, label_counts, write_mulan
from _oracles import rows
from conftest import datasets, make_dataset


NOMINAL_C = AttributeSpec("c", values=("x", "y"))


def arrays(numeric, nominal, k=1):
    """The (numeric, nominal, y) arrays of rows carrying every one of ``k`` labels."""
    numeric, nominal = np.array(numeric, dtype=np.float64), np.array(nominal, dtype=np.int64)
    return numeric, nominal, np.ones((len(numeric), k), dtype=bool)


class TestDatasetValidation:
    def test_feature_arity_checked(self):
        attrs = [AttributeSpec("a"), AttributeSpec("b")]
        with pytest.raises(ValueError, match=r"shapes .* do not fit 2 attributes, 0 of them nominal"):
            MultiLabelDataset(attrs, ("A",), *arrays([[1.0]], np.empty((1, 0))))

    def test_nominal_index_bounds(self):
        with pytest.raises(ValueError, match="out of range"):
            make_dataset([NOMINAL_C], ("A",), [((2,), [0])])

    def test_label_index_bounds(self):
        with pytest.raises(ValueError, match=r"shapes .* do not fit .* and 1 labels"):
            MultiLabelDataset([AttributeSpec("a")], ("A",), *arrays([[1.0]], np.empty((1, 0)), k=2))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate label"):
            make_dataset([AttributeSpec("a")], ("A", "A"), [((1.0,), [0])])
        with pytest.raises(ValueError, match="attribute and label"):
            make_dataset([AttributeSpec("A")], ("A",), [((1.0,), [0])])

    def test_nominal_spec_invariants(self):
        with pytest.raises(ValueError, match="no values"):
            AttributeSpec("c", values=())
        with pytest.raises(ValueError, match="duplicate"):
            AttributeSpec("c", values=("x", "x"))

    def test_missing_values_accepted(self):
        d = make_dataset([AttributeSpec("a"), NOMINAL_C], ("A",), [((None, None), [0])])
        assert rows(d)[0].features == (None, None)
        assert np.isnan(d.numeric[0, 0]) and d.nominal[0, 0] == -1

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_non_finite_numeric_rejected(self, value):
        with pytest.raises(ValueError, match="instance 1: numeric attribute 'a' needs a finite float"):
            make_dataset([AttributeSpec("a")], ("A",), [((1.0,), [0]), ((value,), [0])])

    def test_extreme_finite_values_accepted(self):
        # the column sum overflows although every value is finite
        rows = [((1.7e308,), [0]), ((1.7e308,), [0]), ((-1.7e308,), [])]
        assert make_dataset([AttributeSpec("a")], ("A",), rows).n == 3

    def test_first_failing_instance_is_reported(self):
        attrs = [AttributeSpec("a"), NOMINAL_C]
        numeric = [[1.0], [2.0], [math.inf], [math.inf]]
        with pytest.raises(ValueError, match="^instance 1: nominal index -2 out of range for attribute 'c'$"):
            MultiLabelDataset(attrs, ("A",), *arrays(numeric, [[0], [-2], [0], [5]]))
        with pytest.raises(ValueError, match="^instance 2: numeric attribute 'a' needs a finite float$"):
            MultiLabelDataset(attrs, ("A",), *arrays(numeric, [[0], [1], [0], [5]]))

    @pytest.mark.parametrize(
        "attrs, message",
        [
            ([AttributeSpec("a"), NOMINAL_C], "numeric attribute 'a' needs a finite float"),
            ([NOMINAL_C, AttributeSpec("a")], "nominal index 5 out of range for attribute 'c'"),
        ],
        ids=["numeric-first", "nominal-first"],
    )
    def test_first_bad_attribute_in_declaration_order(self, attrs, message):
        # rows 0-2 are valid (row 2's code is missing); row 3 holds a bad code and an infinity
        numeric, nominal = [[0.0], [1.0], [2.0], [math.inf]], [[0], [1], [-1], [5]]
        with pytest.raises(ValueError, match=f"^instance 3: {message}$"):
            MultiLabelDataset(attrs, ("A",), *arrays(numeric, nominal))

    def test_numeric_needs_a_float(self):
        _, nominal, y = arrays([[1.0]], np.empty((1, 0)))
        with pytest.raises(ValueError, match="^numeric must have dtype float64, got int64$"):
            MultiLabelDataset([AttributeSpec("a")], ("A",), np.ones((1, 1), np.int64), nominal, y)

    def test_float_subclass_accepted(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [((np.float64(0.5),), [0])])
        assert rows(d)[0].features == (0.5,)


class TestLabelCounts:
    def test_toy6(self, toy6):
        assert label_counts(toy6).tolist() == [5, 2, 1]

    def test_all_labels_single_instance(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B", "C"), [((0.0,), [0, 1, 2])])
        assert label_counts(d).tolist() == [1, 1, 1]

    def test_unused_label_counts_zero(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((0.0,), [0])])
        assert label_counts(d).tolist() == [1, 0]

    def test_counts_sum_matches_cardinality(self, toy6):
        from mlresample import profile

        assert label_counts(toy6).sum() == toy6.n * profile(toy6).card

    def test_label_matrix(self, toy6):
        m = toy6.y
        assert m.shape == (6, 3)
        assert m[3].tolist() == [True, True, False]
        assert m.sum() == 8


class TestSubset:
    def test_subset_preserves_order_and_schema(self, toy6):
        sub = toy6.subset([5, 1])
        assert sub.n == 2
        assert rows(sub)[0] == rows(toy6)[5]
        assert sub.attributes == toy6.attributes

    def test_an_integer_array_is_used_as_it_is(self, toy6):
        class Unwalked(np.ndarray):
            def __iter__(self):
                raise AssertionError("an index array was walked element by element")

        sub = toy6.subset(np.array([5, 1, 5], dtype=np.int64).view(Unwalked))
        assert [rows(sub)[i] for i in range(3)] == [rows(toy6)[i] for i in (5, 1, 5)]
        assert toy6.subset(np.array([], dtype=np.intp)).n == 0

    @pytest.mark.parametrize(
        "indices", [[4, 0], range(4, -1, -4), (i for i in (4, 0)), np.array([4, 0], dtype=np.uint8)]
    )
    def test_lists_ranges_and_generators_still_work(self, toy6, indices):
        assert toy6.subset(indices) == toy6.subset(np.array([4, 0]))
        assert toy6.subset([]).n == 0

    @pytest.mark.parametrize(
        "indices", [np.ones(6, dtype=bool), [True, False], np.array([1.5]), [0.0, 2.0]]
    )
    def test_bool_and_float_indices_are_refused(self, toy6, indices):
        with pytest.raises(ValueError, match="integer indices"):
            toy6.subset(indices)


class TestArrays:
    @settings(max_examples=150, deadline=None)
    @given(datasets())
    @example(make_dataset([AttributeSpec("a")], ("A",), [((-0.0,), [0]), ((1.7e308,), [])]))
    def test_instances_round_trip_bit_for_bit(self, d):
        again = make_dataset(d.attributes, d.labels, rows(d), d.name)
        assert again == d
        assert np.array_equal(again.numeric.view(np.uint64), d.numeric.view(np.uint64))
        assert np.array_equal(again.nominal, d.nominal) and np.array_equal(again.y, d.y)
        for array in (d.numeric, d.nominal, d.y):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0

    def test_label_indices_past_64_round_trip(self):
        labels = tuple(f"L{l}" for l in range(70))
        d = make_dataset([AttributeSpec("a")], labels, [((0.0,), [3, 64, 69])])
        assert np.flatnonzero(d.y[0]).tolist() == [3, 64, 69]
        assert rows(d)[0].labels == (3, 64, 69)
        assert make_dataset(d.attributes, d.labels, rows(d), "unnamed") == d.subset([0], "unnamed")

    def test_missing_nominal_value_is_written_as_missing(self):
        attrs = [AttributeSpec("c", values=("x", "y"))]
        d = make_dataset(attrs, ("A",), [((None,), [0]), ((1,), [])])
        assert d.nominal.tolist() == [[-1], [1]]
        assert write_mulan(d)[0].splitlines()[-2:] == ["?,1", "y,0"]

    def test_from_arrays_checks_every_row(self):
        attrs = (AttributeSpec("x"), AttributeSpec("c", values=("u", "v")))
        numeric = np.array([[0.0], [math.inf]])
        nominal = np.array([[0], [1]])
        y = np.ones((2, 1), dtype=bool)
        with pytest.raises(ValueError, match="^instance 1: numeric attribute 'x' needs a finite float$"):
            MultiLabelDataset(attrs, ("A",), numeric, nominal, y)
        with pytest.raises(ValueError, match="^instance 0: nominal index 2 out of range for attribute 'c'$"):
            MultiLabelDataset(attrs, ("A",), numeric[:1], nominal[:1] + 2, y[:1])
        with pytest.raises(ValueError, match="shapes"):
            MultiLabelDataset(attrs, ("A", "B"), numeric[:1], nominal[:1], y[:1])
        with pytest.raises(ValueError, match="dtype"):
            MultiLabelDataset(attrs, ("A",), numeric[:1], nominal[:1].astype(float), y[:1])

    def test_from_arrays_takes_over_owned_arrays_and_copies_views(self):
        numeric = np.zeros((3, 1))
        whole = np.zeros((3, 2), dtype=np.int64)
        d = MultiLabelDataset(
            (AttributeSpec("x"), AttributeSpec("c", values=("u",))), ("A",),
            numeric, whole[:, :1], np.zeros((3, 1), dtype=bool),
        )
        assert d.numeric is numeric and not numeric.flags.writeable
        whole[0, 0] = 7
        assert d.nominal[0, 0] == 0
