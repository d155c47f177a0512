import math

import numpy as np
import pytest
from hypothesis import given, settings

from mlresample import (
    AttributeSpec,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    concurrence_csv,
    concurrence_export,
    label_counts,
    profile,
    remedial,
    resample,
    tcs_from_counts,
)

from mlresample import metrics
from mlresample.synthetic import imbalanced_dataset

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
        p = profile(toy6)
        assert p.card == pytest.approx(8 / 6, abs=1e-12)
        assert p.dens == pytest.approx(8 / 18, abs=1e-12)

    def test_single_label_instances(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])])
        assert profile(d).card == 1.0

    def test_single_label_dataset_density_one(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [((0.0,), [0]), ((1.0,), [0])])
        assert profile(d).dens == 1.0

    def test_empty_dataset_rejected(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [])
        with pytest.raises(ValueError):
            profile(d)


class TestIRLbl:
    def test_toy6_values(self, toy6):
        assert profile(toy6).irlbl == (1.0, 2.5, 5.0)

    def test_balanced_dataset_all_one(self):
        d = make_dataset(
            [AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])]
        )
        p = profile(d)
        assert p.irlbl == (1.0, 1.0)
        assert p.mean_ir == 1.0

    def test_toy6_mean(self, toy6):
        assert profile(toy6).mean_ir == pytest.approx((1 + 2.5 + 5) / 3, abs=1e-12)

    def test_minimum_is_most_frequent(self, toy6):
        assert min(profile(toy6).irlbl) == 1.0


class TestScumble:
    def test_toy6_instance_values(self, toy6):
        values = profile(toy6).scumble_ins
        assert values[5] == pytest.approx(1 - math.sqrt(5) / 3, abs=1e-12)
        assert values[3] == pytest.approx(1 - math.sqrt(2.5) / 1.75, abs=1e-12)

    def test_single_label_instance_zero(self, toy6):
        assert profile(toy6).scumble_ins[0] == 0.0

    def test_empty_labelset_zero(self):
        d = make_dataset([AttributeSpec("a")], ("A",), [((0.0,), []), ((1.0,), [0])])
        assert profile(d).scumble_ins[0] == 0.0

    def test_equal_irlbl_labels_zero(self):
        # both labels appear twice, so their ratios coincide and AM = GM
        d = make_dataset(
            [AttributeSpec("a")],
            ("A", "B"),
            [((0.0,), [0, 1]), ((1.0,), [0, 1])],
        )
        assert profile(d).scumble_ins[0] == 0.0

    def test_dataset_level_mean(self, toy6):
        p = profile(toy6)
        expected = (p.scumble_ins[3] + p.scumble_ins[5]) / 6
        assert p.scumble == pytest.approx(expected, abs=1e-15)
        assert p.scumble == pytest.approx(0.0585, abs=5e-5)

    def test_all_single_label_zero(self):
        d = make_dataset([AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])])
        assert profile(d).scumble == 0.0


class TestTCS:
    def test_degenerate_is_zero(self):
        assert tcs_from_counts(1, 1, 1) == 0.0

    def test_published_reference_rows(self):
        assert tcs_from_counts(103, 14, 198) == pytest.approx(12.562, abs=5e-4)
        assert tcs_from_counts(1449, 45, 94) == pytest.approx(15.629, abs=5e-4)

    def test_dataset_tcs(self, toy6):
        assert profile(toy6).tcs == pytest.approx(math.log(2 * 3 * 4), abs=1e-12)

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
        assert p.scumble == p.scumble_ins[0]

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

        from mlresample.jsontext import dumps_indented

        payload = json.loads(dumps_indented(profile(toy6).to_dict()))
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


class TestMinority:
    def test_toy6(self, toy6):
        # IRLbl 1, 2.5 and 5 against MeanIR 2.8333: only C
        assert profile(toy6).minority.tolist() == [False, False, True]

    def test_a_label_that_never_occurs_is_not_minority(self, toy6):
        # {A,B} and {B}: IRLbl 2 and 1 against MeanIR 1.5; C never occurs
        assert profile(toy6.subset([3, 4])).minority.tolist() == [True, False, False]


# each statistic is a field of the profile, and reading one derives them all
FIELDS = ("card", "dens", "irlbl", "mean_ir", "scumble", "scumble_ins", "distinct_labelsets", "tcs")
METRICS = {
    **{field: lambda d, field=field: getattr(profile(d), field) for field in FIELDS},
    "profile": profile,
    "concurrence_export": lambda d: concurrence_export(d, 0, 0),
}


@pytest.mark.parametrize("metric", METRICS.values(), ids=METRICS.keys())
@pytest.mark.parametrize(
    "labels, rows",
    [(("A", "B"), []), ((), [((0.0,), []), ((1.0,), [])])],
    ids=["no-instances", "no-labels"],
)
def test_every_metric_needs_an_instance_and_a_label(metric, labels, rows):
    d = make_dataset([AttributeSpec("a")], labels, rows)
    with pytest.raises(ValueError):
        metric(d)


STAGES = {
    "remedial": remedial,
    "mlros": lambda d: resample(d, MLROSConfig(25.0)),
    "mlenn": lambda d: resample(d, MLENNConfig()),
    "mlsmote": lambda d: resample(d, MLSMOTEConfig(5)),
}


@pytest.mark.parametrize("stage", STAGES.values(), ids=STAGES.keys())
def test_a_stage_derives_label_statistics_once_for_its_input_and_once_for_its_output(
    stage, monkeypatch
):
    seen = []
    count = metrics.label_counts

    def counted(d):
        seen.append(d)
        return count(d)

    monkeypatch.setattr(metrics, "label_counts", counted)
    d = imbalanced_dataset(0, n=200)
    out, _ = stage(d)
    assert len(seen) == 2
    assert seen[0] is d and seen[1] is out


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
    p = profile(d)
    assert p.card == pytest.approx(oracle_card(d), abs=1e-12)
    assert p.dens == pytest.approx(oracle_dens(d), abs=1e-12)
    assert p.irlbl == pytest.approx(oracle_irlbl(d), abs=1e-12)
    assert p.mean_ir == pytest.approx(oracle_mean_ir(d), abs=1e-12)
    assert p.scumble_ins == pytest.approx(oracle_scumble_ins(d), abs=1e-12)
    assert p.scumble == pytest.approx(oracle_scumble(d), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(datasets(max_n=40, max_k=8))
def test_per_labelset_statistics_equal_the_per_instance_loops(d):
    assert label_counts(d).tolist() == oracle_label_counts(d)
    p = profile(d)
    want = np.array(oracle_scumble_values(d))
    values = np.array(p.scumble_ins)
    assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
    assert values.tolist() == pytest.approx(oracle_scumble_ins(d), abs=1e-12)
    assert p.scumble == float(np.mean(want))
    labelsets = [row.labels for row in rows(d)]
    assert p.card == sum(len(ls) for ls in labelsets) / d.n
    assert p.distinct_labelsets == len(set(labelsets))


@settings(max_examples=100, deadline=None)
@given(datasets(max_n=40, max_k=8))
def test_concurrence_pairs_equal_the_per_row_counts(d):
    """Every pair of occurring labels, its joint count and both IRLbl values."""
    labelsets = [row.labels for row in rows(d)]
    index = {name: l for l, name in enumerate(d.labels)}
    irlbl = oracle_irlbl(d)
    occurring = [l for l in range(d.k) if irlbl[l] is not None]
    exported = concurrence_export(d, d.k, d.k)
    pairs = {(index[r.label_a], index[r.label_b]) for r in exported}
    assert len(pairs) == len(exported)
    assert pairs == {(a, b) for a in occurring for b in occurring if a < b}
    for r in exported:
        a, b = index[r.label_a], index[r.label_b]
        assert r.count == sum(a in ls and b in ls for ls in labelsets)
        assert (r.irlbl_a, r.irlbl_b) == pytest.approx((irlbl[a], irlbl[b]), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_scumble_ins_bounded(d):
    values = np.array(profile(d).scumble_ins)
    assert np.all(values >= 0.0)
    assert np.all(values <= 1.0)


@settings(max_examples=60, deadline=None)
@given(datasets(ensure_all_labels=True))
def test_duplication_leaves_frequency_metrics_unchanged(d):
    p, doubled = profile(d), profile(d.subset([*range(d.n)] * 2))
    assert doubled.card == pytest.approx(p.card, abs=1e-12)
    assert doubled.dens == pytest.approx(p.dens, abs=1e-12)
    assert doubled.irlbl == pytest.approx(p.irlbl, abs=1e-12)
    assert doubled.mean_ir == pytest.approx(p.mean_ir, abs=1e-12)
    assert doubled.scumble == pytest.approx(p.scumble, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(datasets(ensure_all_labels=True))
def test_irlbl_floor_and_argmin(d):
    counts = label_counts(d)
    values = profile(d).irlbl
    assert min(values) == 1.0
    best = int(np.argmin(values))
    assert counts[best] == counts.max()
