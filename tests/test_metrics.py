import math

import numpy as np
import pytest
from hypothesis import given, settings

from mlresample import (
    AttributeSpec,
    UndefinedIRLblError,
    card,
    concurrence_csv,
    concurrence_export,
    dens,
    distinct_labelsets,
    irlbl,
    mean_ir,
    profile,
    scumble,
    scumble_ins,
    scumble_values,
    tcs,
    tcs_from_counts,
)

from conftest import datasets, make_dataset
from _oracles import (
    oracle_card,
    oracle_dens,
    oracle_irlbl,
    oracle_mean_ir,
    oracle_label_counts,
    oracle_scumble,
    oracle_scumble_ins,
    oracle_scumble_values,
    rows,
)


class TestCardDens:
    def test_toy6(self, toy6):
        assert card(toy6) == pytest.approx(8 / 6, abs=1e-12)
        assert dens(toy6) == pytest.approx(8 / 18, abs=1e-12)

    def test_single_label_instances(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])])
        assert card(d) == 1.0

    def test_single_label_dataset_density_one(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [((0.0,), [0]), ((1.0,), [0])])
        assert dens(d) == 1.0

    def test_empty_dataset_rejected(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [])
        with pytest.raises(ValueError):
            card(d)


class TestIRLbl:
    def test_toy6_values(self, toy6):
        assert irlbl(toy6, 0) == 1.0
        assert irlbl(toy6, 1) == 2.5
        assert irlbl(toy6, 2) == 5.0

    def test_balanced_dataset_all_one(self):
        d = make_dataset(
            [AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])]
        )
        assert irlbl(d, 0) == irlbl(d, 1) == 1.0
        assert mean_ir(d) == 1.0

    def test_toy6_mean(self, toy6):
        assert mean_ir(toy6) == pytest.approx((1 + 2.5 + 5) / 3, abs=1e-12)

    def test_zero_count_label_errors(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((0.0,), [0])])
        with pytest.raises(UndefinedIRLblError, match="'B'"):
            irlbl(d, 1)
        with pytest.raises(UndefinedIRLblError):
            mean_ir(d)

    def test_minimum_is_most_frequent(self, toy6):
        values = [irlbl(toy6, l) for l in range(3)]
        assert min(values) == 1.0


class TestScumble:
    def test_toy6_instance_values(self, toy6):
        assert scumble_ins(toy6, 5) == pytest.approx(1 - math.sqrt(5) / 3, abs=1e-12)
        assert scumble_ins(toy6, 3) == pytest.approx(1 - math.sqrt(2.5) / 1.75, abs=1e-12)

    def test_single_label_instance_zero(self, toy6):
        assert scumble_ins(toy6, 0) == 0.0

    def test_empty_labelset_zero(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [((0.0,), []), ((1.0,), [0])])
        assert scumble_ins(d, 0) == 0.0

    def test_equal_irlbl_labels_zero(self):
        # both labels appear twice, so their ratios coincide and AM = GM
        d = make_dataset(
            [AttributeSpec("a")],
            ("A", "B"),
            [((0.0,), [0, 1]), ((1.0,), [0, 1])],
        )
        assert scumble_ins(d, 0) == 0.0

    def test_dataset_level_mean(self, toy6):
        expected = (scumble_ins(toy6, 3) + scumble_ins(toy6, 5)) / 6
        assert scumble(toy6) == pytest.approx(expected, abs=1e-15)
        assert scumble(toy6) == pytest.approx(0.0585, abs=5e-5)

    def test_all_single_label_zero(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])])
        assert scumble(d) == 0.0


class TestTCS:
    def test_degenerate_is_zero(self):
        assert tcs_from_counts(1, 1, 1) == 0.0

    def test_published_reference_rows(self):
        assert tcs_from_counts(103, 14, 198) == pytest.approx(12.562, abs=5e-4)
        assert tcs_from_counts(1449, 45, 94) == pytest.approx(15.629, abs=5e-4)

    def test_dataset_tcs(self, toy6):
        assert tcs(toy6) == pytest.approx(math.log(2 * 3 * 4), abs=1e-12)

    def test_requires_positive_factors(self):
        with pytest.raises(ValueError):
            tcs_from_counts(0, 3, 4)


class TestProfile:
    def test_toy6_bundle(self, toy6):
        p = profile(toy6)
        assert p.card == pytest.approx(8 / 6, abs=1e-12)
        assert p.dens == pytest.approx(p.card / 3, abs=1e-15)
        assert p.irlbl == (1.0, 2.5, 5.0)
        assert p.mean_ir == pytest.approx(2.8333, abs=5e-5)
        assert p.distinct_labelsets == 4
        assert p.scumble == pytest.approx(np.mean(p.scumble_ins), abs=1e-15)
        assert p.undefined_labels == ()

    def test_single_instance(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((0.0,), [0, 1])])
        p = profile(d)
        assert p.card == 2.0
        assert p.scumble == scumble_ins(d, 0)

    def test_zero_count_label_marked_and_excluded(self):
        d = make_dataset(
            [AttributeSpec("a")], ("A", "B", "C"), [((0.0,), [0]), ((1.0,), [0, 1])]
        )
        p = profile(d)
        assert p.irlbl[2] is None
        assert p.undefined_labels == (2,)
        assert p.mean_ir == pytest.approx((1.0 + 2.0) / 2, abs=1e-12)

    def test_json_is_flat_and_ordered(self, toy6):
        import json

        payload = json.loads(profile(toy6).to_json())
        assert list(payload) == [
            "card",
            "dens",
            "irlbl",
            "mean_ir",
            "scumble",
            "scumble_ins",
            "tcs",
            "distinct_labelsets",
        ]


class TestConcurrenceExport:
    def test_toy6_top1_top1(self, toy6):
        rows = concurrence_export(toy6, 1, 1)
        assert len(rows) == 1
        r = rows[0]
        assert (r.label_a, r.label_b, r.count, r.irlbl_a, r.irlbl_b) == ("A", "C", 1, 1.0, 5.0)

    def test_disjoint_groups_zero_counts(self):
        d = make_dataset(
            [AttributeSpec("a")],
            ("A", "B"),
            [((0.0,), [0]), ((1.0,), [0]), ((2.0,), [1])],
        )
        rows = concurrence_export(d, 1, 1)
        assert [r.count for r in rows] == [0]

    def test_symmetry_of_pair_counts(self, toy6):
        from mlresample.metrics import co_occurrence_count

        for a in range(3):
            for b in range(3):
                assert co_occurrence_count(toy6, a, b) == co_occurrence_count(toy6, b, a)

    def test_sorted_by_count_descending(self):
        d = make_dataset(
            [AttributeSpec("a")],
            ("A", "B", "C"),
            [((0.0,), [0, 1]), ((1.0,), [0, 1]), ((2.0,), [0, 2]), ((3.0,), [2])],
        )
        rows = concurrence_export(d, 3, 3)
        counts = [r.count for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_zero_top_empty_with_header(self, toy6):
        rows = concurrence_export(toy6, 0, 0)
        assert rows == ()
        assert concurrence_csv(rows) == "label_a,label_b,count,irlbl_a,irlbl_b\n"

    def test_top_bounds_checked(self, toy6):
        with pytest.raises(ValueError):
            concurrence_export(toy6, 4, 0)
        with pytest.raises(ValueError):
            concurrence_export(toy6, -1, 0)


@settings(max_examples=100, deadline=None)
@given(datasets(ensure_all_labels=True, allow_empty_labelsets=True))
def test_metrics_match_brute_force(d):
    assert card(d) == pytest.approx(oracle_card(d), abs=1e-12)
    assert dens(d) == pytest.approx(oracle_dens(d), abs=1e-12)
    expected_ir = oracle_irlbl(d)
    for l in range(d.k):
        assert irlbl(d, l) == pytest.approx(expected_ir[l], abs=1e-12)
    assert mean_ir(d) == pytest.approx(oracle_mean_ir(d), abs=1e-12)
    for i in range(d.n):
        assert scumble_ins(d, i) == pytest.approx(oracle_scumble_ins(d, i), abs=1e-12)
    assert scumble(d) == pytest.approx(oracle_scumble(d), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(datasets(max_n=40, max_k=8))
def test_per_labelset_statistics_equal_the_per_instance_loops(d):
    from mlresample import label_counts
    from mlresample.metrics import co_occurrence_count

    assert label_counts(d).tolist() == oracle_label_counts(d)
    values = scumble_values(d)
    want = np.array(oracle_scumble_values(d))
    assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
    for i in range(d.n):
        assert values[i] == pytest.approx(oracle_scumble_ins(d, i), abs=1e-12)
    p = profile(d)
    assert p.scumble_ins == tuple(want.tolist())
    assert p.scumble == float(np.mean(want))
    labelsets = [row.labels for row in rows(d)]
    assert p.card == sum(len(ls) for ls in labelsets) / d.n
    assert p.distinct_labelsets == len(set(labelsets))
    for a in range(d.k):
        for b in range(d.k):
            both = sum(a in ls and b in ls for ls in labelsets)
            assert co_occurrence_count(d, a, b) == both


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_scumble_ins_bounded(d):
    values = scumble_values(d)
    assert np.all(values >= 0.0)
    assert np.all(values <= 1.0)


@settings(max_examples=60, deadline=None)
@given(datasets(ensure_all_labels=True))
def test_duplication_leaves_frequency_metrics_unchanged(d):
    doubled = d.subset([*range(d.n)] * 2)
    assert card(doubled) == pytest.approx(card(d), abs=1e-12)
    assert dens(doubled) == pytest.approx(dens(d), abs=1e-12)
    for l in range(d.k):
        assert irlbl(doubled, l) == pytest.approx(irlbl(d, l), abs=1e-12)
    assert mean_ir(doubled) == pytest.approx(mean_ir(d), abs=1e-12)
    assert scumble(doubled) == pytest.approx(scumble(d), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(datasets(ensure_all_labels=True))
def test_irlbl_floor_and_argmin(d):
    from mlresample import label_counts

    counts = label_counts(d)
    values = [irlbl(d, l) for l in range(d.k)]
    assert min(values) == 1.0
    best = int(np.argmin(values))
    assert counts[best] == counts.max()
