import numpy as np
import pytest
from hypothesis import given, settings

from mlresample import (
    AttributeSpec,
    DecoupleConfig,
    HybridConfig,
    Labelset,
    MLROSConfig,
    MLSMOTEConfig,
    PERCENTILE_PRESETS,
    ResampleConfig,
    hybrid_resample,
    resample,
    imbalance_summary,
    nearest_rank_quantile,
    remedial,
    scumble,
    scumble_values,
)

from conftest import datasets, make_dataset


class TestConfig:
    def test_presets_are_valid(self):
        for q in PERCENTILE_PRESETS:
            DecoupleConfig(mode="percentile", q=q)

    def test_from_spec(self):
        assert DecoupleConfig.from_spec("mean") == DecoupleConfig()
        assert DecoupleConfig.from_spec("p25").q == 0.25
        assert DecoupleConfig.from_spec("p62").q == 0.62
        assert DecoupleConfig.from_spec("p07").q == 0.07
        with pytest.raises(ValueError):
            DecoupleConfig.from_spec("p0")
        with pytest.raises(ValueError):
            DecoupleConfig.from_spec("median")

    def test_spec_string_round_trip(self):
        for text in ("mean", "p25", "p37", "p50", "p62", "p75"):
            assert DecoupleConfig.from_spec(text).spec_string() == text

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            DecoupleConfig(mode="percentile")
        with pytest.raises(ValueError):
            DecoupleConfig(mode="mean", q=0.5)
        with pytest.raises(ValueError):
            DecoupleConfig(mode="percentile", q=1.5)


class TestNearestRankQuantile:
    def test_small_vector(self):
        values = np.array([0.0, 0.0, 0.0, 0.0, 0.0965, 0.2546])
        assert nearest_rank_quantile(values, 0.50) == 0.0
        assert nearest_rank_quantile(values, 0.75) == 0.0965
        assert nearest_rank_quantile(values, 0.99) == 0.2546

    def test_matches_sorted_rank_definition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = rng.random(int(rng.integers(1, 30)))
            q = float(rng.uniform(0.01, 0.99))
            ordered = sorted(values)
            import math

            expected = ordered[max(1, math.ceil(q * len(values))) - 1]
            assert nearest_rank_quantile(values, q) == expected


class TestRemedialToy6:
    def test_mean_mode_hand_trace(self, toy6):
        out, report = remedial(toy6)
        assert out.n == 8
        assert report.decoupled == (3, 5)
        # untouched rows pass through bit-identical, in order
        for i in (0, 1, 2, 4):
            assert out.instances[i] == toy6.instances[i]
        # the {A,B} instance keeps no labels (both on the majority side)
        assert out.instances[3].features == toy6.instances[3].features
        assert out.instances[3].labels.indices == ()
        # the {A,C} instance keeps the rare C, its clone keeps A
        assert out.instances[5].labels.indices == (2,)
        assert out.instances[6].features == toy6.instances[3].features
        assert out.instances[6].labels.indices == (0, 1)
        assert out.instances[7].features == toy6.instances[5].features
        assert out.instances[7].labels.indices == (0,)

    def test_mean_threshold_equals_scumble_exactly(self, toy6):
        out, report = remedial(toy6)
        threshold = scumble(toy6)
        expected_split = tuple(
            i for i, v in enumerate(scumble_values(toy6)) if v > threshold
        )
        assert report.decoupled == expected_split

    def test_percentile_75_splits_only_top_instance(self, toy6):
        out, report = remedial(toy6, DecoupleConfig(mode="percentile", q=0.75))
        assert report.decoupled == (5,)
        assert out.n == 7

    def test_threshold_hit_exactly_is_not_split(self, toy6):
        # p99 makes the threshold the maximum score; strict > splits nothing
        out, report = remedial(toy6, DecoupleConfig.from_spec("p99"))
        assert out == toy6
        assert report.decoupled == ()

    def test_all_zero_scores_identity(self):
        d = make_dataset(
            [AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])]
        )
        out, report = remedial(d)
        assert out == d
        assert report.added == () and report.decoupled == ()

    def test_drop_empty_discards_empty_minority_side(self, toy6):
        out, report = remedial(toy6, DecoupleConfig(drop_empty=True))
        # i4's minority side is empty and gets dropped; its majority clone stays
        assert report.removed == (3,)
        assert out.n == 7
        masks = [inst.labels.mask for inst in out.instances]
        assert Labelset.from_indices([0, 1]).mask in masks

    def test_deterministic(self, toy6):
        a, _ = remedial(toy6)
        b, _ = remedial(toy6)
        assert a == b


@settings(max_examples=80, deadline=None)
@given(datasets(allow_empty_labelsets=False, ensure_all_labels=True))
def test_split_pair_postconditions(d):
    summary = imbalance_summary(d)
    out, report = remedial(d)
    assert out.n == d.n + len(report.decoupled)
    assert len(report.added) == len(report.decoupled)
    minority = {
        l for l in range(d.k) if summary.counts[l] > 0 and summary.irlbl[l] > summary.mean_ir
    }
    split = set(report.decoupled)
    for i in range(d.n):
        if i not in split:
            assert out.instances[i] == d.instances[i]
    for j, i in enumerate(report.decoupled):
        source = d.instances[i]
        kept = out.instances[i]
        clone = out.instances[d.n + j]
        assert report.added[j].source == i
        assert kept.features == source.features == clone.features
        assert (kept.labels & clone.labels).mask == 0
        assert (kept.labels | clone.labels) == source.labels
        assert set(kept.labels.indices) <= minority
        assert not set(clone.labels.indices) & minority


def concurrence_fixture():
    """Eight pure-majority instances plus two mixing the rare label in.

    Label B never occurs, so the fixture also exercises the undefined-ratio
    path inside the decoupling and resampling stages.
    """
    rows = [((float(i), float(i) * 0.5), [0]) for i in range(8)]
    rows += [((8.0, 4.0), [0, 2]), ((9.0, 4.5), [0, 2])]
    return make_dataset(
        [AttributeSpec("x"), AttributeSpec("y")],
        ("A", "B", "C"),
        rows,
        name="concurrent",
    )


class TestHybrid:
    def test_mlros_runs_on_decoupled_dataset(self, toy6):
        config = HybridConfig(
            decouple=DecoupleConfig(),
            resample=ResampleConfig(MLROSConfig(p=25), seed=7),
        )
        out, report = hybrid_resample(toy6, config)
        first, second = report.stages
        assert first.instances_after == 8
        assert second.instances_before == 8
        # budget floor(8 * 25 / 100) = 2, but the only minority bag ({C})
        # retires after one clone brings its ratio under the decoupled mean
        assert len(second.added) == 1
        assert report.instances_before == 6
        assert report.instances_after == out.n == 9
        assert report.decoupled == (3, 5)

    def test_identity_when_nothing_to_do(self):
        d = make_dataset(
            [AttributeSpec("a")], ("A", "B"), [((0.0,), [0]), ((1.0,), [1])]
        )
        config = HybridConfig(
            decouple=DecoupleConfig.from_spec("p75"),
            resample=ResampleConfig(MLROSConfig(p=100), seed=1),
        )
        out, report = hybrid_resample(d, config)
        assert out == d

    def test_mlsmote_seeds_are_pure_sides(self):
        d = concurrence_fixture()
        config = HybridConfig(
            decouple=DecoupleConfig(),
            resample=ResampleConfig(MLSMOTEConfig(k_neighbors=1), seed=0),
        )
        out, report = hybrid_resample(d, config)
        first, second = report.stages
        decoupled_d, _ = remedial(d)
        summary = imbalance_summary(decoupled_d)
        minority = {
            l
            for l in range(decoupled_d.k)
            if summary.counts[l] > 0 and summary.irlbl[l] > summary.mean_ir
        }
        assert second.added, "the hybrid should synthesize something here"
        for record in second.added:
            seed_labels = set(decoupled_d.instances[record.source].labels.indices)
            assert seed_labels <= minority or not seed_labels & minority
        # synthetic labelsets stay on the minority side for this fixture
        for synth in out.instances[decoupled_d.n :]:
            assert set(synth.labels.indices) <= minority

    @pytest.mark.parametrize("spec", ["mean", "p25"])
    @pytest.mark.parametrize("method", [MLROSConfig(p=50), MLSMOTEConfig(k_neighbors=1)])
    def test_stage_records_equal_the_stages_run_alone(self, spec, method):
        d = concurrence_fixture()
        config = HybridConfig(DecoupleConfig.from_spec(spec), ResampleConfig(method, seed=4))
        out, report = hybrid_resample(d, config)
        decoupled_d, first = remedial(d, config.decouple)
        alone, second = resample(decoupled_d, config.resample)
        assert report.stages == (first, second)
        assert out == alone

    def test_report_chains_counts(self, toy6):
        config = HybridConfig(
            decouple=DecoupleConfig(),
            resample=ResampleConfig(MLROSConfig(p=25), seed=3),
        )
        _, report = hybrid_resample(toy6, config)
        first, second = report.stages
        assert report.added == first.added + second.added
        assert report.instances_after == (
            report.instances_before + len(report.added) - len(report.removed)
        )
        assert report.profile_before == first.profile_before
        assert report.profile_after == second.profile_after
