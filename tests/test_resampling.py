import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlresample import (
    AttributeSpec,
    Instance,
    Labelset,
    MLENNConfig,
    MultiLabelDataset,
    MLROSConfig,
    MLSMOTEConfig,
    ResampleConfig,
    labelset_distance,
    mean_ir,
    ml_ros,
    mlenn,
    mlsmote,
    new_sample,
    remedial,
    resample,
)
from mlresample import resampling
from mlresample.synthetic import random_dataset

from conftest import float_range_dataset, make_dataset
from _oracles import (
    oracle_distance,
    oracle_minmax,
    oracle_minority_labels as minority_label_set,
    oracle_ml_ros_clones,
    oracle_mlenn_removed as brute_mlenn_removed,
    oracle_most_frequent_nominal,
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
        for a, synthetic in zip(report.added, out.instances[d.n :]):
            assert 64 + a.source // 3 in synthetic.labels

    def test_remedial(self):
        d = wide_label_fixture()
        out, report = remedial(d)
        assert report.decoupled == tuple(range(18))
        for i in range(18):
            labels = d.instances[i].labels.indices
            assert out.instances[i].labels.indices == (64 + i // 3,)
            assert out.instances[d.n + i].labels.indices == labels[:-1]


class TestMLROS:
    def test_toy6_hand_trace(self, toy6):
        out, report = ml_ros(toy6, 25, np.random.default_rng(7))
        assert out.n == 7
        assert out.instances[:6] == toy6.instances
        assert out.instances[6] == toy6.instances[5]
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
        assert out.instances[: d.n] == d.instances
        assert out.n == d.n + len(report.added) <= d.n + budget
        for record in report.added:
            assert record.kind == "clone"
            clone = out.instances[d.n + report.added.index(record)]
            assert clone == d.instances[record.source]
            assert set(d.instances[record.source].labels.indices) & minority

    def test_budget_spent_unless_bags_retired(self):
        d = pure_minority_fixture()
        out, report = ml_ros(d, 25, np.random.default_rng(3))
        # bag E retires once 20 / count <= 2.8, i.e. at count 8: six clones
        assert len(report.added) == 6
        assert all(d.instances[r.source].labels.indices == (4,) for r in report.added)

    def test_mean_ir_not_increased_on_pure_minority_fixture(self):
        d = pure_minority_fixture()
        out, _ = ml_ros(d, 25, np.random.default_rng(5))
        assert mean_ir(out) <= mean_ir(d)

    def test_deterministic_given_seed(self, toy6):
        a, _ = ml_ros(toy6, 200, np.random.default_rng(42))
        b, _ = ml_ros(toy6, 200, np.random.default_rng(42))
        assert a == b


class TestLabelsetDistance:
    def test_disjoint_singletons(self):
        a = Labelset.from_indices([0])
        b = Labelset.from_indices([1])
        assert labelset_distance(a, b) == 1.0

    def test_identical_sets(self):
        a = Labelset.from_indices([0, 2])
        assert labelset_distance(a, a) == 0.0

    def test_both_empty(self):
        assert labelset_distance(Labelset(), Labelset()) == 0.0

    def test_partial_overlap(self):
        a = Labelset.from_indices([0, 1])
        b = Labelset.from_indices([1, 2])
        assert labelset_distance(a, b) == pytest.approx(2 / 3)


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
        assert d.instances[0] in out.instances

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
        kept = [inst for i, inst in enumerate(d.instances) if i not in set(report.removed)]
        assert list(out.instances) == kept


class TestNewSample:
    def test_labelset_vote(self):
        attrs = (AttributeSpec("x"),)
        seed = Instance((0.0,), Labelset.from_indices([0, 2]))
        n1 = Instance((1.0,), Labelset.from_indices([0]))
        n2 = Instance((2.0,), Labelset.from_indices([0, 2]))
        synth = new_sample(attrs, seed, n1, [n1, n2], np.random.default_rng(0))
        assert synth.labels.indices == (0, 2)  # counts 3 and 2, threshold 1.5

    def test_zero_interpolation_span(self):
        attrs = (AttributeSpec("x"), AttributeSpec("y"))
        seed = Instance((1.5, -2.0), Labelset.from_indices([0]))
        synth = new_sample(attrs, seed, seed, [seed], np.random.default_rng(0))
        assert synth.features == (1.5, -2.0)

    def test_numeric_within_interval(self):
        attrs = (AttributeSpec("x"),)
        seed = Instance((0.0,), Labelset.from_indices([0]))
        ref = Instance((10.0,), Labelset.from_indices([0]))
        for s in range(20):
            synth = new_sample(attrs, seed, ref, [ref], np.random.default_rng(s))
            assert 0.0 <= synth.features[0] <= 10.0

    def test_nominal_majority_with_tie_to_lowest(self):
        attrs = (AttributeSpec("c", values=("u", "v", "w")),)
        seed = Instance((0,), Labelset.from_indices([0]))
        n1 = Instance((2,), Labelset.from_indices([0]))
        n2 = Instance((1,), Labelset.from_indices([0]))
        synth = new_sample(attrs, seed, n1, [n1, n2], np.random.default_rng(0))
        assert synth.features == (1,)

    def test_span_past_the_float_maximum(self):
        attrs = (AttributeSpec("x"), AttributeSpec("y"))
        seed = Instance((-1.7e308, 1.0), Labelset.from_indices([0]))
        ref = Instance((1.7e308, 3.0), Labelset.from_indices([0]))
        synth = new_sample(attrs, seed, ref, [ref], np.random.default_rng(0))
        r_x, r_y = np.random.default_rng(0).random(2)
        # only the overflowing feature takes the weighted mean
        assert synth.features == (-1.7e308 * (1 - r_x) + r_x * 1.7e308, 1.0 + r_y * 2.0)
        assert -1.7e308 <= synth.features[0] <= 1.7e308

    def test_missing_endpoint_falls_back(self):
        attrs = (AttributeSpec("x"),)
        seed = Instance((None,), Labelset.from_indices([0]))
        ref = Instance((3.0,), Labelset.from_indices([0]))
        synth = new_sample(attrs, seed, ref, [ref], np.random.default_rng(0))
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

    def test_pure_minority_fixture_counts(self):
        d = pure_minority_fixture()
        out, report = mlsmote(d, 1, np.random.default_rng(0))
        assert len(report.added) == 2
        assert all(r.kind == "synthetic" for r in report.added)
        for synth in out.instances[d.n :]:
            assert synth.labels.indices == (4,)
        assert mean_ir(out) <= mean_ir(d)

    @pytest.mark.parametrize("seed", range(25))
    def test_synthetic_properties(self, seed):
        d = random_dataset(seed + 500, max_n=16, max_k=4, allow_missing=False,
                           allow_empty_labelsets=False)
        k_neighbors = 3
        out, report = mlsmote(d, k_neighbors, np.random.default_rng(seed))
        assert out.instances[: d.n] == d.instances
        mins, spans = oracle_minmax(d)
        minority = minority_label_set(d)

        # reconstruct the seed enumeration independently: minority labels in
        # ascending order, bags in instance order, one synthetic per member
        expected = []
        for label in sorted(minority):
            bag = [i for i, x in enumerate(d.instances) if label in x.labels]
            if len(bag) < 2:
                continue
            expected.extend((s, bag) for s in bag)
        assert [r.source for r in report.added] == [s for s, _ in expected]
        assert all(r.kind == "synthetic" for r in report.added)

        for (source, bag), synth in zip(expected, out.instances[d.n :]):
            seed_inst = d.instances[source]
            ranked = sorted(
                (oracle_distance(d, seed_inst.features, d.instances[j].features, mins, spans), j)
                for j in bag
                if j != source
            )
            neighbors = [j for _, j in ranked[:k_neighbors]]
            votes = {}
            for inst in [seed_inst] + [d.instances[j] for j in neighbors]:
                for l in inst.labels:
                    votes[l] = votes.get(l, 0) + 1
            threshold = (len(neighbors) + 1) / 2
            assert set(synth.labels.indices) == {l for l, c in votes.items() if c > threshold}
            for idx, attr in enumerate(d.attributes):
                pool = [seed_inst.features[idx]] + [d.instances[j].features[idx] for j in neighbors]
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
        out, _ = resample(d, ResampleConfig(MLSMOTEConfig(k_neighbors=2), seed=seed))
        synthetic = [inst.features[0] for inst in out.instances[d.n :]]
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

        def second_one_infinite(attributes, seed_instance, *args):
            made.append(seed_instance)
            value = math.inf if len(made) == 2 else 0.0
            return Instance(features=(value,), labels=seed_instance.labels)

        monkeypatch.setattr(resampling, "new_sample", second_one_infinite)
        with pytest.raises(ValueError, match=f"^instance {d.n + 1}: numeric attribute 'x' needs a finite float$"):
            mlsmote(d, 2, np.random.default_rng(0))
        assert len(made) == 4


class TestDispatcher:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MLROSConfig(p=0)
        with pytest.raises(ValueError):
            MLENNConfig(ht=0)
        with pytest.raises(ValueError):
            MLSMOTEConfig(k_neighbors=0)
        with pytest.raises(ValueError):
            ResampleConfig(method="mlros")

    def test_method_names(self):
        assert ResampleConfig(MLROSConfig()).method_name == "mlros"
        assert ResampleConfig(MLENNConfig()).method_name == "mlenn"
        assert ResampleConfig(MLSMOTEConfig()).method_name == "mlsmote"

    def test_seeded_dispatch_reproducible(self, toy6):
        config = ResampleConfig(MLROSConfig(p=100), seed=9)
        a, _ = resample(toy6, config)
        b, _ = resample(toy6, config)
        assert a == b

    def test_mlsmote_neighbor_bound(self, toy6):
        with pytest.raises(ValueError, match="smaller than the dataset"):
            resample(toy6, ResampleConfig(MLSMOTEConfig(k_neighbors=10)))


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
    instances = [
        Instance(tuple(None if v < 0 else v for v in row), Labelset()) for row in codes.tolist()
    ]
    votes = resampling._nominal_votes(codes, nearest, sizes)
    assert len(votes) == len(nearest)
    for row, voters in zip(votes, nearest.tolist()):
        neighbors = [instances[i] for i in voters]
        assert row == [oracle_most_frequent_nominal(neighbors, c) for c in range(len(sizes))]
        # Python ints: the row check rejects numpy integers
        assert all(v is None or type(v) is int for v in row)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 2**70 - 1), max_size=30),
    st.lists(st.integers(0, 69), unique=True).map(sorted),
)
def test_bags_equal_the_per_label_scan(masks, labels):
    d = MultiLabelDataset(
        (AttributeSpec("x"),),
        tuple(f"L{l}" for l in range(70)),
        tuple(Instance((0.0,), Labelset(mask)) for mask in masks),
    )
    bags = resampling._bags(d, labels)
    assert list(bags) == labels
    assert bags == {l: [i for i, inst in enumerate(d.instances) if l in inst.labels] for l in labels}
