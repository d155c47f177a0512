import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlresample import (
    AttributeSpec,
    DecoupleConfig,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    PERCENTILE_PRESETS,
    hybrid_resample,
    nearest_rank_quantile,
    profile,
    resample,
    remedial,
    stratified_kfold,
)
from mlresample import decoupling

from _oracles import rows
from conftest import datasets, make_dataset


class TestConfig:
    def test_presets_are_valid(self):
        for q in PERCENTILE_PRESETS:
            DecoupleConfig(q=q)

    def test_from_spec(self):
        assert DecoupleConfig.from_spec("mean") == DecoupleConfig()
        assert DecoupleConfig.from_spec("p25").q == 0.25
        assert DecoupleConfig.from_spec("p62").q == 0.62
        assert DecoupleConfig.from_spec("p07").q == 0.07
        with pytest.raises(ValueError):
            DecoupleConfig.from_spec("p0")
        with pytest.raises(ValueError):
            DecoupleConfig.from_spec("median")

    # Arabic-Indic 12, superscript 2, fullwidth 25, a superscript after a digit, no digits, sign, space
    @pytest.mark.parametrize(
        "spec", ["p\u0661\u0662", "p\u00b2", "p\uff12\uff15", "p2\u2075", "p", "p+25", "p 25"]
    )
    def test_from_spec_takes_ascii_digits_only(self, spec):
        with pytest.raises(ValueError, match="^bad decoupling threshold"):
            DecoupleConfig.from_spec(spec)

    def test_spec_string_round_trip(self):
        for text in ("mean", "p25", "p37", "p50", "p62", "p75"):
            assert DecoupleConfig.from_spec(text).spec_string() == text

    def test_invalid_combinations(self):
        for q in (0, 1, 1.5, -0.25, float("nan")):
            with pytest.raises(ValueError, match=r"needs q in \(0, 1\)"):
                DecoupleConfig(q=q)


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
            expected = ordered[max(1, math.ceil(Fraction(repr(q)) * len(values))) - 1]
            assert nearest_rank_quantile(values, q) == expected

    # for each of these percents, the smallest n at which q * n rounds to just
    # above the whole number q * n, so that a float ceil gives one rank too many
    @pytest.mark.parametrize(
        "percent, n",
        [(7, 100), (14, 50), (17, 300), (27, 900), (28, 25), (34, 150),
         (54, 450), (55, 100), (56, 25), (67, 1500), (68, 75), (81, 300)],
    )
    def test_rank_is_exact_on_the_decimal(self, percent, n):
        q, rank = DecoupleConfig.from_spec(f"p{percent:02d}").q, percent * n // 100
        assert math.ceil(q * n) == rank + 1
        assert nearest_rank_quantile(np.arange(1.0, n + 1.0), q) == rank

    def test_every_spec_picks_its_exact_rank(self):
        for n in (*range(1, 101), 300, 450, 900, 1500, 4999, 5000):
            values = np.arange(1.0, n + 1.0)
            for percent in range(1, 100):
                q = DecoupleConfig.from_spec(f"p{percent:02d}").q
                assert nearest_rank_quantile(values, q) == max(1, -(-percent * n // 100))


class TestRemedialToy6:
    def test_mean_mode_hand_trace(self, toy6):
        out, report = remedial(toy6)
        assert out.n == 8
        assert report.decoupled == (3, 5)
        # untouched rows pass through bit-identical, in order
        before, after = rows(toy6), rows(out)
        for i in (0, 1, 2, 4):
            assert after[i] == before[i]
        # the {A,B} instance keeps no labels (both on the majority side)
        assert after[3].features == before[3].features
        assert after[3].labels == ()
        # the {A,C} instance keeps the rare C, its clone keeps A
        assert after[5].labels == (2,)
        assert after[6].features == before[3].features
        assert after[6].labels == (0, 1)
        assert after[7].features == before[5].features
        assert after[7].labels == (0,)

    def test_mean_threshold_equals_scumble_exactly(self, toy6):
        out, report = remedial(toy6)
        prof = profile(toy6)
        expected_split = tuple(i for i, v in enumerate(prof.scumble_ins) if v > prof.scumble)
        assert report.decoupled == expected_split

    def test_percentile_75_splits_only_top_instance(self, toy6):
        out, report = remedial(toy6, DecoupleConfig(q=0.75))
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
        assert (0, 1) in [row.labels for row in rows(out)]

    def test_deterministic(self, toy6):
        a, _ = remedial(toy6)
        b, _ = remedial(toy6)
        assert a == b


@settings(max_examples=80, deadline=None)
@given(datasets(allow_empty_labelsets=False, ensure_all_labels=True))
def test_split_pair_postconditions(d):
    prof = profile(d)
    out, report = remedial(d)
    assert out.n == d.n + len(report.decoupled)
    assert len(report.added) == len(report.decoupled)
    minority = {l for l, v in enumerate(prof.irlbl) if v is not None and v > prof.mean_ir}
    split = set(report.decoupled)
    before, after = rows(d), rows(out)
    for i in range(d.n):
        if i not in split:
            assert after[i] == before[i]
    for j, i in enumerate(report.decoupled):
        source, kept, clone = before[i], after[i], after[d.n + j]
        assert report.added[j].source == i
        assert kept.features == source.features == clone.features
        assert not set(kept.labels) & set(clone.labels)
        assert set(kept.labels) | set(clone.labels) == set(source.labels)
        assert set(kept.labels) <= minority
        assert not set(clone.labels) & minority


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
        out, report = hybrid_resample(toy6, DecoupleConfig(), MLROSConfig(p=25), seed=7)
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
        out, report = hybrid_resample(d, DecoupleConfig.from_spec("p75"), MLROSConfig(p=100), seed=1)
        assert out == d

    def test_mlsmote_seeds_are_pure_sides(self):
        d = concurrence_fixture()
        out, report = hybrid_resample(d, DecoupleConfig(), MLSMOTEConfig(k_neighbors=1), seed=0)
        first, second = report.stages
        decoupled_d, _ = remedial(d)
        prof = profile(decoupled_d)
        minority = {l for l, v in enumerate(prof.irlbl) if v is not None and v > prof.mean_ir}
        assert second.added, "the hybrid should synthesize something here"
        for record in second.added:
            seed_labels = set(rows(decoupled_d)[record.source].labels)
            assert seed_labels <= minority or not seed_labels & minority
        # synthetic labelsets stay on the minority side for this fixture
        for synth in rows(out)[decoupled_d.n :]:
            assert set(synth.labels) <= minority

    @pytest.mark.parametrize("spec", ["mean", "p25"])
    @pytest.mark.parametrize("method", [MLROSConfig(p=50), MLSMOTEConfig(k_neighbors=1)])
    def test_stage_records_equal_the_stages_run_alone(self, spec, method):
        d = concurrence_fixture()
        decouple = DecoupleConfig.from_spec(spec)
        out, report = hybrid_resample(d, decouple, method, seed=4)
        decoupled_d, first = remedial(d, decouple)
        alone, second = resample(decoupled_d, method, seed=4)
        assert report.stages == (first, second)
        assert out == alone

    def test_report_chains_counts(self, toy6):
        _, report = hybrid_resample(toy6, DecoupleConfig(), MLROSConfig(p=25), seed=3)
        first, second = report.stages
        assert report.added == first.added + second.added
        assert report.instances_after == (
            report.instances_before + len(report.added) - len(report.removed)
        )
        assert report.profile_before == first.profile_before
        assert report.profile_after == second.profile_after

    def test_method_and_seed_are_checked_before_decoupling(self, toy6, monkeypatch):
        monkeypatch.setattr(decoupling, "remedial", lambda *args: pytest.fail("decoupled"))
        with pytest.raises(ValueError, match="^seed must fit in an unsigned 64-bit integer$"):
            hybrid_resample(toy6, DecoupleConfig(), MLROSConfig(), seed=-1)
        with pytest.raises(ValueError, match="^unknown resampling method: 'mlros'$"):
            hybrid_resample(toy6, DecoupleConfig(), "mlros")


def same_features(out, d, sources):
    """Whether every row of ``out`` with a source holds the numeric bits and
    nominal codes of row ``sources[i]`` of ``d``."""
    taken = np.flatnonzero(sources >= 0)
    numeric = out.numeric[taken].view(np.uint64) == d.numeric[sources[taken]].view(np.uint64)
    return numeric.all() and (out.nominal[taken] == d.nominal[sources[taken]]).all()


@settings(max_examples=80, deadline=None)
@given(
    datasets(ensure_all_labels=True),
    st.sampled_from([MLROSConfig(p=60), MLENNConfig(nn=1), MLSMOTEConfig(k_neighbors=1)]),
    st.sampled_from([None, "mean", "p25", "p75"]),
    st.booleans(),
    st.integers(0, 2**32),
)
def test_sources_gather_rows_with_the_outputs_features(d, method, spec, drop_empty, seed):
    """The sources that a report derives, for every method alone or after
    REMEDIAL, and a fold's index lists, name for each output row an input
    row with its features; only synthetic rows have none."""
    assume(d.n > 2)
    # a synthetic value beyond the float range is rejected
    assume(not isinstance(method, MLSMOTEConfig) or (np.abs(np.nan_to_num(d.numeric)) < 1e300).all())
    if spec is None:
        out, report = resample(d, method, seed)
    else:
        decouple = DecoupleConfig.from_spec(spec, drop_empty=drop_empty)
        out, report = hybrid_resample(d, decouple, method, seed)
    sources = report.sources()
    assert sources.shape == (out.n,)
    assert (sources < d.n).all() and same_features(out, d, sources)
    synthetic = sum(a.kind == "synthetic" for a in report.added)
    assert np.count_nonzero(sources < 0) == synthetic
    fold_of = stratified_kfold(d, 2, seed)
    for picked in np.flatnonzero(fold_of != 0), np.flatnonzero(fold_of == 0):
        assert same_features(d.subset(picked), d, picked)
