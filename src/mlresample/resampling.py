"""Resampling algorithms that rebalance the label distribution of a dataset.

:func:`resample` runs one of three methods, chosen by the type of its config:

* random oversampling (:class:`MLROSConfig`): clones random instances from
  each minority-label bag up to a percentage budget;
* edited-nearest-neighbor undersampling (:class:`MLENNConfig`): removes
  majority-only instances whose labelsets disagree with most of their
  nearest neighbors;
* synthetic oversampling (:class:`MLSMOTEConfig`): one synthetic instance per
  minority-bag member, interpolating features toward a random near neighbor
  and voting the labelset among the neighborhood.

A label is *minority* when its imbalance ratio exceeds the dataset MeanIR;
both are computed once on the input (zero-count labels excluded from the
mean).  Randomized methods draw from a PCG64 generator seeded with
``resample``'s seed, so the output is bit-identical across runs and
platforms.  Draw order: random oversampling makes one ``integers`` draw per
clone in bag rotation order; synthetic oversampling makes, per seed
instance, one ``integers`` draw for the reference neighbor followed by one
``random`` draw per numeric feature with both interpolation endpoints
present.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import AttributeSpec, MultiLabelDataset
from .distance import FeatureSpace, neighbors, prepare_reference
from .metrics import ImbalanceProfile, profile

_SEED_MAX = 2**64 - 1


@dataclass(frozen=True)
class MLROSConfig:
    """Random oversampling: grow the dataset by ``p`` percent."""

    p: float = 25.0

    def __post_init__(self):
        if not 0 < self.p <= 1000:
            raise ValueError(f"percentage must be in (0, 1000], got {self.p}")


@dataclass(frozen=True)
class MLENNConfig:
    """Neighbor-edited undersampling with labelset-difference threshold ``ht``."""

    ht: float = 0.75
    nn: int = 3

    def __post_init__(self):
        if not 0 < self.ht <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {self.ht}")
        if self.nn < 1:
            raise ValueError(f"neighbor count must be positive, got {self.nn}")


@dataclass(frozen=True)
class MLSMOTEConfig:
    """Synthetic oversampling with ``k_neighbors`` nearest bag members."""

    k_neighbors: int = 5

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ValueError(f"neighbor count must be positive, got {self.k_neighbors}")


ResampleMethod = MLROSConfig | MLENNConfig | MLSMOTEConfig


def _check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` fits in an unsigned 64-bit integer,
    the range of every command's ``--seed``."""
    if not 0 <= seed <= _SEED_MAX:
        raise ValueError("seed must fit in an unsigned 64-bit integer")


def _check_run(method: ResampleMethod, seed: int) -> None:
    """Raise ValueError unless ``method`` is a method config and ``seed`` is in range."""
    if not isinstance(method, ResampleMethod):
        raise ValueError(f"unknown resampling method: {method!r}")
    _check_seed(seed)


@dataclass(frozen=True)
class AddedInstance:
    """Provenance of one appended instance: a clone of, or synthetic from, ``source``."""

    kind: str  # "clone" | "synthetic"
    source: int

    def to_dict(self) -> dict:
        return {"kind": self.kind, "source": self.source}


@dataclass(frozen=True)
class ResampleReport:
    """What a transformation did to a dataset.

    ``added``/``removed``/``decoupled`` indices refer to the dataset the
    producing stage ran on; a report with ``stages`` concatenates the stage
    records and keeps the outermost before/after profiles.  ``profile_after``
    is ``None`` when undersampling removed every instance.

    In JSON, a report with ``stages`` writes only its instance counts,
    ``added``, ``removed`` and the stage records, each in the one-stage form,
    since its ``decoupled`` and profiles would repeat the stages' own.
    """

    instances_before: int
    instances_after: int
    added: tuple[AddedInstance, ...]
    removed: tuple[int, ...]
    profile_before: ImbalanceProfile
    profile_after: ImbalanceProfile | None
    decoupled: tuple[int, ...] = ()
    stages: tuple[ResampleReport, ...] = ()

    def __post_init__(self):
        if self.instances_after != self.instances_before + len(self.added) - len(self.removed):
            raise ValueError("inconsistent report: after != before + added - removed")

    def sources(self) -> np.ndarray:
        """Per output row, the input row it was taken from, or -1 for a synthetic
        row; every stage outputs the rows it keeps, in order, then those it adds."""
        if self.stages:
            sources = np.arange(self.instances_before)
            for stage in self.stages:
                # a -1 at the end, which a -1 of the next stage picks
                sources = np.append(sources, -1)[stage.sources()]
            return sources
        kept = np.delete(np.arange(self.instances_before), self.removed)
        added = [a.source if a.kind == "clone" else -1 for a in self.added]
        return np.concatenate([kept, np.array(added, np.intp)])

    def to_dict(self) -> dict:
        totals = {
            "instances_before": self.instances_before,
            "instances_after": self.instances_after,
            "added": [a.to_dict() for a in self.added],
            "removed": list(self.removed),
        }
        if self.stages:
            return {**totals, "stages": [s.to_dict() for s in self.stages]}
        return {
            **totals,
            "decoupled": list(self.decoupled),
            "profile_before": self.profile_before.to_dict(),
            "profile_after": None if self.profile_after is None else self.profile_after.to_dict(),
        }


def _report(
    d: MultiLabelDataset,
    out: MultiLabelDataset,
    profile_before: ImbalanceProfile,
    added: Sequence[AddedInstance],
    removed: Sequence[int],
    decoupled: Sequence[int] = (),
) -> ResampleReport:
    """The record of one stage that turned ``d``, whose profile is ``profile_before``, into ``out``."""
    return ResampleReport(
        instances_before=d.n,
        instances_after=out.n,
        added=tuple(added),
        removed=tuple(removed),
        profile_before=profile_before,
        profile_after=profile(out) if out.n else None,
        decoupled=tuple(decoupled),
    )


def _ml_ros(
    d: MultiLabelDataset, config: MLROSConfig, rng: np.random.Generator
) -> tuple[MultiLabelDataset, ResampleReport]:
    """Random oversampling of minority-label bags.

    The clone budget is ``floor(n * p / 100)``.  Minority bags are fixed up
    front (labels whose input IRLbl exceeds the input MeanIR, members being
    the input instances carrying the label).  Cloning round-robins over the
    bags, appending one random bit-exact copy per turn; after each clone the
    bag label's IRLbl is re-evaluated against the live counts and the bag is
    retired once it no longer exceeds the initial MeanIR.  The loop ends when
    the budget is spent or every bag is retired.
    """
    before = profile(d)
    budget = math.floor(d.n * config.p / 100.0)
    minority = np.flatnonzero(before.minority).tolist()
    if not minority or budget == 0:
        return d, _report(d, d, before, [], [])

    bags = {label: np.flatnonzero(d.y[:, label]) for label in minority}
    counts = d.y.sum(axis=0, dtype=np.int64)
    active = list(minority)
    added: list[AddedInstance] = []
    while budget > 0 and active:
        for label in list(active):
            if budget == 0:
                break
            members = bags[label]
            pick = int(members[int(rng.integers(0, len(members)))])
            added.append(AddedInstance(kind="clone", source=pick))
            budget -= 1
            counts += d.y[pick]
            max_count = int(counts.max())
            if max_count / counts[label] <= before.mean_ir:
                active.remove(label)
    out = d.subset([*range(d.n), *(a.source for a in added)])
    return out, _report(d, out, before, added, [])


def _adjusted_hamming(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Adjusted Hamming distance between the label rows of ``a`` and ``b`` (bool, broadcast
    over the last axis): differing labels over labels active in either, 0 when both are empty."""
    differ = np.count_nonzero(a ^ b, axis=-1)
    union = np.count_nonzero(a | b, axis=-1)
    return np.where(union > 0, differ / np.maximum(union, 1), 0.0)


def _mlenn(d: MultiLabelDataset, config: MLENNConfig) -> tuple[MultiLabelDataset, ResampleReport]:
    """Edited-nearest-neighbor undersampling.

    An instance is a removal candidate only when none of its labels is a
    minority label.  A candidate is marked when at least ``nn / 2`` of its
    ``nn`` nearest neighbors (whole dataset, feature space) have a labelset
    farther than ``ht`` in adjusted Hamming distance.  Marks are computed
    against the unmodified input and deleted in one final pass, so the result
    is independent of iteration order.
    """
    ht, nn = config.ht, config.nn
    if nn >= d.n:
        raise ValueError(f"need more instances ({d.n}) than neighbors ({nn})")
    before = profile(d)
    candidates = np.flatnonzero(~d.y[:, before.minority].any(axis=1))
    reference = prepare_reference(FeatureSpace(d).encoded)
    query = (reference.columns.T[candidates], reference.nominal[candidates])
    nearest = neighbors(query, reference, nn, exclude=candidates)
    far = _adjusted_hamming(d.y[candidates, None, :], d.y[nearest]) > ht
    marked = candidates[np.count_nonzero(far, axis=1) >= nn / 2]
    out = d.subset(np.delete(np.arange(d.n), marked))
    return out, _report(d, out, before, [], marked.tolist())


def _nominal_votes(codes: np.ndarray, nearest: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per row ``i``, each nominal column's most frequent code among the rows ``nearest[i]``.

    ``codes`` holds the nominal codes (-1 = missing) and ``sizes`` each
    column's number of declared values.  Missing codes do not vote, ties go
    to the lowest code, and a column no voter holds gets -1.
    """
    n_rows, n_columns = nearest.shape[0], codes.shape[1]
    if not n_columns:
        return np.empty((n_rows, 0), dtype=np.int64)
    offsets = np.cumsum(sizes) - sizes
    # one-hot sums: counts[i, offsets[c] + v] voters of row i with code v in column c
    counts = np.zeros((n_rows, int(sizes.sum())), dtype=np.int64)
    for voters in nearest.T:
        held = codes[voters]
        rows, columns = np.nonzero(held >= 0)
        counts[rows, offsets[columns] + held[rows, columns]] += 1
    # the largest count * (top + 1) + (top - code) per column holds the most
    # frequent code, and among equally frequent codes the lowest
    top = int(sizes.max())
    code = np.arange(counts.shape[1]) - np.repeat(offsets, sizes)
    best = np.maximum.reduceat(counts * (top + 1) + (top - code), offsets, axis=1)
    count, rest = np.divmod(best, top + 1)
    return np.where(count > 0, top - rest, -1)


def _nominal_sizes(attributes: Sequence[AttributeSpec]) -> np.ndarray:
    return np.array([len(a.values) for a in attributes if a.is_nominal], dtype=np.int64)


def _synthesize(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    seeds: np.ndarray,
    nearest: np.ndarray,
    choose: Callable[[int], int],
    sizes: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``numeric``, ``nominal`` and ``y`` arrays of one synthetic row per seed.

    Numeric features interpolate between seed and reference (fresh uniform
    draw per feature; a missing endpoint degrades to the available one; a
    span that overflows a float is interpolated as a weighted mean).
    Nominal features take the most frequent value among the neighbours (ties
    to the lowest value index, missing ignored).  The labelset keeps each
    label active in more than half of seed-plus-neighbours.

    ``rows`` holds the arrays that the indices refer to: seed ``i`` is row
    ``seeds[i]``, its neighbours are rows ``nearest[i]``, and its reference
    row is ``choose(i)``, called just before that seed's draws: one per
    numeric column with both endpoints present, in column order
    (``rng.random(c)`` gives the same values as ``c`` single draws).
    """
    numeric, nominal, y = rows
    made = numeric[seeds]
    for i, seed in enumerate(made):
        ref = numeric[choose(i)]
        both = np.flatnonzero(~np.isnan(seed) & ~np.isnan(ref))
        r, sv, rv = rng.random(both.size), seed[both], ref[both]
        with np.errstate(over="ignore", invalid="ignore"):
            span = rv - sv
            # a span past the float maximum overflows; the weighted mean never does
            seed[both] = np.where(np.isfinite(span), sv + r * span, sv * (1 - r) + r * rv)
        seed[np.isnan(seed)] = ref[np.isnan(seed)]  # a missing endpoint degrades to the other
    votes = y[seeds] + np.count_nonzero(y[nearest], axis=1)
    return made, _nominal_votes(nominal, nearest, sizes), votes > (nearest.shape[1] + 1) / 2


def _mlsmote(
    d: MultiLabelDataset, config: MLSMOTEConfig, rng: np.random.Generator
) -> tuple[MultiLabelDataset, ResampleReport]:
    """Synthetic minority oversampling.

    For each minority label (input IRLbl above input MeanIR), every input
    instance carrying it acts as a seed: its ``k_neighbors`` nearest other
    bag members (fewer when the bag is small, ties to the lower index) form
    the neighborhood, a uniformly drawn reference neighbor anchors feature
    interpolation, and one synthetic instance is appended per seed
    (:func:`_synthesize`).  Bags with a single member yield nothing.
    """
    k_neighbors = config.k_neighbors
    if k_neighbors >= d.n:
        raise ValueError(f"k_neighbors ({k_neighbors}) must be smaller than the dataset size ({d.n})")
    before = profile(d)
    encoded = FeatureSpace(d).encoded
    sizes = _nominal_sizes(d.attributes)
    rows = d.numeric, d.nominal, d.y
    parts = [rows]
    added: list[AddedInstance] = []
    for label in np.flatnonzero(before.minority):
        bag = np.flatnonzero(d.y[:, label])
        if len(bag) < 2:
            continue
        bag_encoded = (encoded[0][bag], encoded[1][bag])
        want = min(k_neighbors, len(bag) - 1)
        reference = prepare_reference(bag_encoded)
        nearest = bag[neighbors(bag_encoded, reference, want, exclude=np.arange(len(bag)))]
        parts.append(
            _synthesize(rows, bag, nearest, lambda i: nearest[i, rng.integers(0, want)], sizes, rng)
        )
        added.extend(AddedInstance(kind="synthetic", source=i) for i in bag.tolist())
    # synthetic rows are checked with the rest, numbered after the input's
    numeric, nominal, y = (np.concatenate(arrays) for arrays in zip(*parts))
    out = MultiLabelDataset(d.attributes, d.labels, numeric, nominal, y, d.name)
    return out, _report(d, out, before, added, [])


def resample(
    d: MultiLabelDataset, method: ResampleMethod, seed: int = 0
) -> tuple[MultiLabelDataset, ResampleReport]:
    """Run ``method`` with a fresh PCG64 generator from ``seed``, in 0 to 2**64 - 1."""
    _check_run(method, seed)
    rng = np.random.default_rng(seed)
    if isinstance(method, MLROSConfig):
        return _ml_ros(d, method, rng)
    if isinstance(method, MLENNConfig):
        return _mlenn(d, method)
    return _mlsmote(d, method, rng)
