import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlresample import (
    AttributeSpec,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    MultiLabelDataset,
    mean_ir,
    ml_ros,
    mlenn,
    mlsmote,
    remedial,
    resample,
)
from mlresample import resampling
from mlresample.synthetic import random_dataset

from conftest import float_range_dataset, make_dataset
from _oracles import (
    Row,
    oracle_distance,
    oracle_minmax,
    oracle_minority_labels as minority_label_set,
    oracle_ml_ros_clones,
    oracle_mlenn_removed as brute_mlenn_removed,
    oracle_most_frequent_nominal,
    rows,
)


def pure_minority_fixture():
    """Four equally common labels plus one rare label occurring alone."""
    rng = np.random.default_rng(99)
    rows = []
    for i in range(40):
        if i < 2:
            active = [4]
        else:
            active = [0, 1] if i % 2 else [2, 3]
        rows.append(((float(rng.normal()), float(rng.normal())), active))
    return make_dataset(
        [AttributeSpec("x"), AttributeSpec("y")],
        ("A", "B", "C", "D", "E"),
        rows,
        name="pure-minority",
    )


def wide_label_fixture():
    """70 labels; the six minority labels are the ones with index 64 and up.

    Every instance carries the 48 common labels ``l`` with ``(l + i) % 4 != 0``
    (45 of 60 instances each, IRLbl 1); instances 0-17 also carry one rare
    label ``64 + i // 3`` (3 instances each, IRLbl 15).  MeanIR is
    (64 + 6 * 15) / 70 = 2.2, so exactly labels 64-69 are minority.
    """
    rng = np.random.default_rng(64)
    rows = []
    for i in range(60):
        active = [l for l in range(64) if (l + i) % 4 != 0]
        if i < 18:
            active.append(64 + i // 3)
        rows.append(((float(rng.normal()), float(rng.normal())), active))
    return make_dataset(
        [AttributeSpec("x"), AttributeSpec("y")],
        tuple(f"L{l}" for l in range(70)),
        rows,
        name="wide-labels",
    )


class TestLabelIndicesPast64:
    """Minority labels beyond a 64-bit word must survive into the bitmasks."""

    def test_fixture_minority(self):
        assert minority_label_set(wide_label_fixture()) == set(range(64, 70))

    def test_ml_ros(self):
        d = wide_label_fixture()
        out, report = ml_ros(d, 20, np.random.default_rng(5))
        expected = oracle_ml_ros_clones(d, 20, np.random.default_rng(5))
        assert [a.source for a in report.added] == expected
        assert all(source < 18 for source in expected)

    def test_mlenn(self):
        d = wide_label_fixture()
        out, report = mlenn(d, ht=0.4, nn=3)
        assert list(report.removed) == brute_mlenn_removed(d, 0.4, 3)
        assert report.removed and min(report.removed) >= 18

    def test_mlsmote(self):
        d = wide_label_fixture()
        out, report = mlsmote(d, 5, np.random.default_rng(0))
        assert [a.source for a in report.added] == list(range(18))
        for a, synthetic in zip(report.added, rows(out)[d.n :]):
            assert 64 + a.source // 3 in synthetic.labels

    def test_remedial(self):
        d = wide_label_fixture()
        out, report = remedial(d)
        assert report.decoupled == tuple(range(18))
        before, after = rows(d), rows(out)
        for i in range(18):
            assert after[i].labels == (64 + i // 3,)
            assert after[d.n + i].labels == before[i].labels[:-1]


class TestMLROS:
    def test_toy6_hand_trace(self, toy6):
        out, report = ml_ros(toy6, 25, np.random.default_rng(7))
        assert out.n == 7
        assert rows(out) == rows(toy6) + [rows(toy6)[5]]
        assert report.added == (report.added[0],)
        assert report.added[0].kind == "clone" and report.added[0].source == 5

    def test_zero_budget_identity(self, toy6):
        out, report = ml_ros(toy6, 10, np.random.default_rng(0))  # floor(0.6) = 0
        assert out == toy6
        assert report.added == () and report.removed == ()

    def test_balanced_dataset_identity(self):
        d = make_dataset(
            [AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])]
        )
        out, report = ml_ros(d, 100, np.random.default_rng(0))
        assert out == d and report.added == ()

    def test_invalid_percentage(self, toy6):
        with pytest.raises(ValueError):
            ml_ros(toy6, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ml_ros(toy6, 2000, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(25))
    def test_clone_properties(self, seed):
        d = random_dataset(seed, max_n=18, max_k=5, allow_empty_labelsets=False)
        minority = minority_label_set(d)
        out, report = ml_ros(d, 40, np.random.default_rng(seed))
        budget = int(d.n * 40 // 100)
        before, after = rows(d), rows(out)
        assert after[: d.n] == before
        assert out.n == d.n + len(report.added) <= d.n + budget
        for record in report.added:
            assert record.kind == "clone"
            clone = after[d.n + report.added.index(record)]
            assert clone == before[record.source]
            assert set(before[record.source].labels) & minority

    def test_budget_spent_unless_bags_retired(self):
        d = pure_minority_fixture()
        out, report = ml_ros(d, 25, np.random.default_rng(3))
        # bag E retires once 20 / count <= 2.8, i.e. at count 8: six clones
        assert len(report.added) == 6
        assert all(rows(d)[r.source].labels == (4,) for r in report.added)

    def test_mean_ir_not_increased_on_pure_minority_fixture(self):
        d = pure_minority_fixture()
        out, _ = ml_ros(d, 25, np.random.default_rng(5))
        assert mean_ir(out) <= mean_ir(d)

    def test_deterministic_given_seed(self, toy6):
        a, _ = ml_ros(toy6, 200, np.random.default_rng(42))
        b, _ = ml_ros(toy6, 200, np.random.default_rng(42))
        assert a == b


def adjusted_hamming(a, b, k=3):
    """``resampling._adjusted_hamming`` between two label index lists over ``k`` labels."""
    y = np.zeros((2, k), dtype=bool)
    y[0, a] = y[1, b] = True
    return float(resampling._adjusted_hamming(y[0], y[1]))


class TestLabelsetDistance:
    """The adjusted Hamming distance MLeNN compares labelsets with."""

    def test_disjoint_singletons(self):
        assert adjusted_hamming([0], [1]) == 1.0

    def test_identical_sets(self):
        assert adjusted_hamming([0, 2], [0, 2]) == 0.0

    def test_both_empty(self):
        assert adjusted_hamming([], []) == 0.0

    def test_partial_overlap(self):
        assert adjusted_hamming([0, 1], [1, 2]) == pytest.approx(2 / 3)


class TestMLeNN:
    def test_hand_trace_removal(self):
        # candidate 0 carries the non-minority label A; its nearest three
        # neighbors carry {B}, {B}, {A}: two labelset distances of 1.0 exceed
        # ht, and 2 >= 3/2, so it goes.  The far cluster agrees internally
        # and stays.
        d = make_dataset(
            [AttributeSpec("x")],
            ("A", "B"),
            [
                ((0.0,), [0]),
                ((1.0,), [1]),
                ((1.5,), [1]),
                ((2.0,), [0]),
                ((20.0,), [0]),
                ((20.1,), [0]),
                ((20.2,), [0]),
            ],
        )
        out, report = mlenn(d, ht=0.75, nn=3)
        assert 0 in report.removed
        assert {4, 5, 6} & set(report.removed) == set()
        assert out.n >= 3

    def test_everything_removed_yields_empty_profile(self):
        d = make_dataset(
            [AttributeSpec("x")],
            ("A", "B"),
            [
                ((0.0,), [0]),
                ((1.0,), [1]),
                ((2.0,), [0]),
                ((3.0,), [1]),
            ],
        )
        out, report = mlenn(d, ht=0.5, nn=3)
        assert out.n == 0
        assert report.profile_after is None

    def test_minority_instances_never_removed(self):
        d = make_dataset(
            [AttributeSpec("x")],
            ("A", "B"),
            [
                ((0.0,), [1]),
                ((0.1,), [0]),
                ((0.2,), [0]),
                ((0.3,), [0]),
                ((0.4,), [0]),
            ],
        )
        # B is rare (IRLbl 4 > MeanIR 2.5): instance 0 is protected even
        # though every neighbor disagrees with it.
        out, report = mlenn(d, ht=0.5, nn=3)
        assert 0 not in report.removed
        assert rows(d)[0] in rows(out)

    def test_uniform_labelsets_nothing_removed(self):
        d = make_dataset(
            [AttributeSpec("x")],
            ("A",),
            [((float(i),), [0]) for i in range(6)],
        )
        out, report = mlenn(d, ht=0.75, nn=3)
        assert out == d and report.removed == ()

    def test_too_few_instances(self, toy6):
        with pytest.raises(ValueError):
            mlenn(toy6, ht=0.75, nn=6)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        d = random_dataset(
            seed + 1000, max_n=16, max_k=4, allow_missing=False, allow_empty_labelsets=False
        )
        if d.n <= 3:
            return
        out, report = mlenn(d, ht=0.75, nn=3)
        assert list(report.removed) == brute_mlenn_removed(d, 0.75, 3)
        kept = [row for i, row in enumerate(rows(d)) if i not in set(report.removed)]
        assert rows(out) == kept


def synthesize(attrs, seed, ref, neighbors, rng):
    """The row ``resampling._synthesize`` makes from a seed, its reference and its
    neighbours, each given as (features, label indices)."""
    d = make_dataset(attrs, ("A", "B", "C"), [seed, ref, *neighbors])
    nearest, sizes = np.arange(2, d.n)[None, :], resampling._nominal_sizes(attrs)
    arrays = d.numeric, d.nominal, d.y
    made = resampling._synthesize(arrays, np.array([0]), nearest, lambda i: 1, sizes, rng)
    return rows(MultiLabelDataset(attrs, d.labels, *made))[0]


class TestNewSample:
    """One synthetic row from a seed and its neighbourhood, as MLSMOTE builds it."""

    def test_labelset_vote(self):
        attrs = (AttributeSpec("x"),)
        n1, n2 = ((1.0,), [0]), ((2.0,), [0, 2])
        synth = synthesize(attrs, ((0.0,), [0, 2]), n1, [n1, n2], np.random.default_rng(0))
        assert synth.labels == (0, 2)  # counts 3 and 2, threshold 1.5

    def test_zero_interpolation_span(self):
        attrs = (AttributeSpec("x"), AttributeSpec("y"))
        seed = ((1.5, -2.0), [0])
        synth = synthesize(attrs, seed, seed, [seed], np.random.default_rng(0))
        assert synth.features == (1.5, -2.0)

    def test_numeric_within_interval(self):
        attrs = (AttributeSpec("x"),)
        seed, ref = ((0.0,), [0]), ((10.0,), [0])
        for s in range(20):
            synth = synthesize(attrs, seed, ref, [ref], np.random.default_rng(s))
            assert 0.0 <= synth.features[0] <= 10.0

    def test_nominal_majority_with_tie_to_lowest(self):
        attrs = (AttributeSpec("c", values=("u", "v", "w")),)
        n1, n2 = ((2,), [0]), ((1,), [0])
        synth = synthesize(attrs, ((0,), [0]), n1, [n1, n2], np.random.default_rng(0))
        assert synth.features == (1,)

    def test_span_past_the_float_maximum(self):
        attrs = (AttributeSpec("x"), AttributeSpec("y"))
        seed, ref = ((-1.7e308, 1.0), [0]), ((1.7e308, 3.0), [0])
        synth = synthesize(attrs, seed, ref, [ref], np.random.default_rng(0))
        r_x, r_y = np.random.default_rng(0).random(2)
        # only the overflowing feature takes the weighted mean
        assert synth.features == (-1.7e308 * (1 - r_x) + r_x * 1.7e308, 1.0 + r_y * 2.0)
        assert -1.7e308 <= synth.features[0] <= 1.7e308

    def test_missing_endpoint_falls_back(self):
        attrs = (AttributeSpec("x"),)
        seed, ref = ((None,), [0]), ((3.0,), [0])
        synth = synthesize(attrs, seed, ref, [ref], np.random.default_rng(0))
        assert synth.features == (3.0,)


class TestMLSMOTE:
    def test_toy6_identity(self, toy6):
        out, report = mlsmote(toy6, 1, np.random.default_rng(3))
        assert out == toy6 and report.added == ()

    def test_balanced_identity(self):
        d = make_dataset(
            [AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])]
        )
        out, report = mlsmote(d, 1, np.random.default_rng(0))
        assert out == d

    def test_neighbour_count_must_be_below_the_dataset_size(self, toy6):
        message = r"k_neighbors \(6\) must be smaller than the dataset size \(6\)"
        with pytest.raises(ValueError, match=message):
            mlsmote(toy6, toy6.n, np.random.default_rng(0))
        with pytest.raises(ValueError, match=message):
            resample(toy6, MLSMOTEConfig(k_neighbors=toy6.n))
        mlsmote(toy6, toy6.n - 1, np.random.default_rng(0))

    def test_pure_minority_fixture_counts(self):
        d = pure_minority_fixture()
        out, report = mlsmote(d, 1, np.random.default_rng(0))
        assert len(report.added) == 2
        assert all(r.kind == "synthetic" for r in report.added)
        for synth in rows(out)[d.n :]:
            assert synth.labels == (4,)
        assert mean_ir(out) <= mean_ir(d)

    @pytest.mark.parametrize("seed", range(25))
    def test_synthetic_properties(self, seed):
        d = random_dataset(seed + 500, max_n=16, max_k=4, allow_missing=False,
                           allow_empty_labelsets=False)
        k_neighbors = 3
        if d.n <= k_neighbors:
            with pytest.raises(ValueError, match="must be smaller than the dataset size"):
                mlsmote(d, k_neighbors, np.random.default_rng(seed))
            return
        out, report = mlsmote(d, k_neighbors, np.random.default_rng(seed))
        before = rows(d)
        assert rows(out)[: d.n] == before
        mins, spans = oracle_minmax(d)
        minority = minority_label_set(d)

        # reconstruct the seed enumeration independently: minority labels in
        # ascending order, bags in instance order, one synthetic per member
        expected = []
        for label in sorted(minority):
            bag = [i for i, x in enumerate(before) if label in x.labels]
            if len(bag) < 2:
                continue
            expected.extend((s, bag) for s in bag)
        assert [r.source for r in report.added] == [s for s, _ in expected]
        assert all(r.kind == "synthetic" for r in report.added)

        for (source, bag), synth in zip(expected, rows(out)[d.n :]):
            seed_inst = before[source]
            ranked = sorted(
                (oracle_distance(d, seed_inst.features, before[j].features, mins, spans), j)
                for j in bag
                if j != source
            )
            neighbors = [j for _, j in ranked[:k_neighbors]]
            votes = {}
            for inst in [seed_inst] + [before[j] for j in neighbors]:
                for l in inst.labels:
                    votes[l] = votes.get(l, 0) + 1
            threshold = (len(neighbors) + 1) / 2
            assert set(synth.labels) == {l for l, c in votes.items() if c > threshold}
            for idx, attr in enumerate(d.attributes):
                pool = [seed_inst.features[idx]] + [before[j].features[idx] for j in neighbors]
                if attr.is_nominal:
                    # most frequent among the neighbors only, ties to lowest index
                    neighbor_values = pool[1:]
                    top = max(neighbor_values.count(v) for v in set(neighbor_values))
                    allowed = {v for v in set(neighbor_values) if neighbor_values.count(v) == top}
                    assert synth.features[idx] == min(allowed)
                else:
                    assert min(pool) <= synth.features[idx] <= max(pool)

    @pytest.mark.parametrize("seed", range(4))
    def test_values_spanning_the_float_range(self, seed):
        d = float_range_dataset()
        out, _ = resample(d, MLSMOTEConfig(k_neighbors=2), seed)
        synthetic = [row.features[0] for row in rows(out)[d.n :]]
        assert len(synthetic) == 4
        assert all(-1.7e308 <= x <= 1.7e308 for x in synthetic)

    def test_deterministic_given_seed(self):
        d = pure_minority_fixture()
        a, _ = mlsmote(d, 2, np.random.default_rng(11))
        b, _ = mlsmote(d, 2, np.random.default_rng(11))
        assert a == b

    def test_bad_synthetic_row_keeps_its_absolute_index(self, monkeypatch):
        d = float_range_dataset()
        made = []
        real = resampling._synthesize

        def second_one_infinite(*args):
            numeric, nominal, y = real(*args)
            made.append(len(numeric))
            numeric[1] = math.inf
            return numeric, nominal, y

        monkeypatch.setattr(resampling, "_synthesize", second_one_infinite)
        with pytest.raises(ValueError, match=f"^instance {d.n + 1}: numeric attribute 'x' needs a finite float$"):
            mlsmote(d, 2, np.random.default_rng(0))
        assert made == [4]


class TestDispatcher:
    def test_config_validation(self, toy6):
        with pytest.raises(ValueError):
            MLROSConfig(p=0)
        with pytest.raises(ValueError):
            MLENNConfig(ht=0)
        with pytest.raises(ValueError):
            MLSMOTEConfig(k_neighbors=0)
        with pytest.raises(ValueError, match="^unknown resampling method: 'mlros'$"):
            resample(toy6, "mlros")

    def test_seeded_dispatch_reproducible(self, toy6):
        a, _ = resample(toy6, MLROSConfig(p=100), seed=9)
        b, _ = resample(toy6, MLROSConfig(p=100), seed=9)
        assert a == b

    def test_mlsmote_neighbor_bound(self, toy6):
        with pytest.raises(ValueError, match="smaller than the dataset"):
            resample(toy6, MLSMOTEConfig(k_neighbors=10))


@st.composite
def vote_cases(draw):
    """(codes, nearest, sizes): nominal codes with missing values and the rows voting for each row."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=4))
    n = draw(st.integers(1, 8))
    codes = [[draw(st.integers(-1, size - 1)) for size in sizes] for _ in range(n)]
    want = draw(st.integers(1, 6))
    voters = st.lists(st.integers(0, n - 1), min_size=want, max_size=want)
    nearest = draw(st.lists(voters, min_size=1, max_size=n))
    return (
        np.array(codes, dtype=np.int64).reshape(n, len(sizes)),
        np.array(nearest, dtype=np.intp),
        np.array(sizes, dtype=np.int64),
    )


@settings(max_examples=300, deadline=None)
@given(vote_cases())
def test_nominal_votes_equal_the_per_attribute_count(case):
    codes, nearest, sizes = case
    instances = [Row(tuple(None if v < 0 else v for v in row), ()) for row in codes.tolist()]
    votes = resampling._nominal_votes(codes, nearest, sizes)
    assert votes.shape == (len(nearest), len(sizes)) and votes.dtype == np.int64
    for row, voters in zip(votes.tolist(), nearest.tolist()):
        neighbors = [instances[i] for i in voters]
        expected = [oracle_most_frequent_nominal(neighbors, c) for c in range(len(sizes))]
        assert row == [-1 if v is None else v for v in expected]
