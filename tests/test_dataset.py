import math

import numpy as np
import pytest

from mlresample import AttributeSpec, Labelset, label_counts, label_matrix
from conftest import make_dataset


class TestLabelset:
    def test_from_indices_roundtrip(self):
        ls = Labelset.from_indices([4, 0, 2])
        assert ls.indices == (0, 2, 4)
        assert ls.active == frozenset({0, 2, 4})
        assert len(ls) == 3
        assert 2 in ls and 1 not in ls

    def test_set_operations(self):
        a = Labelset.from_indices([0, 1, 3])
        b = Labelset.from_indices([1, 2])
        assert (a | b).indices == (0, 1, 2, 3)
        assert (a & b).indices == (1,)
        assert (a - b).indices == (0, 3)
        assert a.hamming(b) == 3
        assert a.union_size(b) == 4

    def test_empty(self):
        ls = Labelset()
        assert not ls
        assert ls.indices == ()
        assert ls.hamming(ls) == 0

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Labelset.from_indices([-1])


class TestDatasetValidation:
    def test_feature_arity_checked(self):
        with pytest.raises(ValueError, match="feature values"):
            make_dataset([AttributeSpec("a"), AttributeSpec("b")], ("A",), [((1.0,), [0])])

    def test_nominal_index_bounds(self):
        attr = AttributeSpec("c", values=("x", "y"))
        with pytest.raises(ValueError, match="out of range"):
            make_dataset([attr], ("A",), [((2,), [0])])

    def test_label_index_bounds(self):
        with pytest.raises(ValueError, match="label index"):
            make_dataset([AttributeSpec("a")], ("A",), [((1.0,), [1])])

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
        d = make_dataset([AttributeSpec("a")], ("A",), [((None,), [0])])
        assert d.instances[0].features == (None,)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numeric_rejected(self, value):
        with pytest.raises(ValueError, match="instance 1: numeric attribute 'a' needs a finite float"):
            make_dataset([AttributeSpec("a")], ("A",), [((1.0,), [0]), ((value,), [0])])

    def test_extreme_finite_values_accepted(self):
        # the column sum overflows although every value is finite
        rows = [((1.7e308,), [0]), ((1.7e308,), [0]), ((-1.7e308,), [])]
        assert make_dataset([AttributeSpec("a")], ("A",), rows).n == 3

    def test_first_failing_instance_is_reported(self):
        attrs = [AttributeSpec("a"), AttributeSpec("c", values=("x", "y"))]
        rows = [((1.0, 0), [0]), ((2.0, True), [0]), ((3, 5), [0])]
        with pytest.raises(ValueError, match="instance 1: nominal attribute 'c' needs an int index"):
            make_dataset(attrs, ("A",), rows)

    def test_numeric_needs_a_float(self):
        with pytest.raises(ValueError, match="instance 0: numeric attribute 'a' needs a float"):
            make_dataset([AttributeSpec("a")], ("A",), [((1,), [0])])

    def test_float_subclass_accepted(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [((np.float64(0.5),), [0])])
        assert d.instances[0].features == (0.5,)


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
        from mlresample import card

        assert label_counts(toy6).sum() == toy6.n * card(toy6)

    def test_label_matrix(self, toy6):
        m = label_matrix(toy6)
        assert m.shape == (6, 3)
        assert m[3].tolist() == [True, True, False]
        assert m.sum() == 8


class TestSubset:
    def test_subset_preserves_order_and_schema(self, toy6):
        sub = toy6.subset([5, 1])
        assert sub.n == 2
        assert sub.instances[0] == toy6.instances[5]
        assert sub.attributes == toy6.attributes
