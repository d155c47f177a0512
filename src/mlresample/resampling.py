"""Resampling algorithms that rebalance the label distribution of a dataset.

Three methods are provided:

* random oversampling (``ml_ros``): clones random instances from each
  minority-label bag up to a percentage budget;
* edited-nearest-neighbor undersampling (``mlenn``): removes majority-only
  instances whose labelsets disagree with most of their nearest neighbors;
* synthetic oversampling (``mlsmote``): one synthetic instance per
  minority-bag member, interpolating features toward a random near neighbor
  and voting the labelset among the neighborhood.

A label is *minority* when its imbalance ratio exceeds the dataset MeanIR;
both are computed once on the input (zero-count labels excluded from the
mean).  Randomized methods take a ``numpy.random.Generator``; given the same
PCG64 seed the output is bit-identical across runs and platforms.  Draw
order: ``ml_ros`` makes one ``integers`` draw per clone in bag rotation
order; ``mlsmote`` makes, per seed instance, one ``integers`` draw for the
reference neighbor followed by one ``random`` draw per numeric feature with
both interpolation endpoints present.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import AttributeSpec, Instance, Labelset, MultiLabelDataset, _check_rows
from .distance import FeatureSpace, _nominal_codes, neighbors, prepare_reference
from .metrics import ImbalanceProfile, imbalance_summary, profile

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


@dataclass(frozen=True)
class ResampleConfig:
    """Method choice plus the seed that fixes every stochastic draw."""

    method: ResampleMethod
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.method, (MLROSConfig, MLENNConfig, MLSMOTEConfig)):
            raise ValueError(f"unknown resampling method: {self.method!r}")
        if not 0 <= self.seed <= _SEED_MAX:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    @property
    def method_name(self) -> str:
        return {MLROSConfig: "mlros", MLENNConfig: "mlenn", MLSMOTEConfig: "mlsmote"}[
            type(self.method)
        ]


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

    def to_dict(self) -> dict:
        return {
            "instances_before": self.instances_before,
            "instances_after": self.instances_after,
            "added": [a.to_dict() for a in self.added],
            "removed": list(self.removed),
            "decoupled": list(self.decoupled),
            "profile_before": self.profile_before.to_dict(),
            "profile_after": None if self.profile_after is None else self.profile_after.to_dict(),
            "stages": [s.to_dict() for s in self.stages],
        }


def _report(
    d: MultiLabelDataset,
    out: MultiLabelDataset,
    added: Sequence[AddedInstance],
    removed: Sequence[int],
    decoupled: Sequence[int] = (),
) -> ResampleReport:
    return ResampleReport(
        instances_before=d.n,
        instances_after=out.n,
        added=tuple(added),
        removed=tuple(removed),
        profile_before=profile(d),
        profile_after=profile(out) if out.n else None,
        decoupled=tuple(decoupled),
    )


def _bags(d: MultiLabelDataset, labels: Sequence[int]) -> dict[int, list[int]]:
    """Per label, the indices of the instances carrying it, ascending; one pass over the masks.

    Masks stay Python ints, since a label index may pass 63.
    """
    bags: dict[int, list[int]] = {l: [] for l in labels}
    wanted = Labelset.from_indices(labels).mask
    for i, inst in enumerate(d.instances):
        hit = inst.labels.mask & wanted
        while hit:
            low = hit & -hit
            bags[low.bit_length() - 1].append(i)
            hit ^= low
    return bags


def ml_ros(
    d: MultiLabelDataset, p: float, rng: np.random.Generator | None = None
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
    MLROSConfig(p=p)
    if rng is None:
        rng = np.random.default_rng()
    summary = imbalance_summary(d)
    budget = math.floor(d.n * p / 100.0)
    minority = np.flatnonzero(summary.minority).tolist()
    bags = _bags(d, minority)
    if not minority or budget == 0:
        return d, _report(d, d, [], [])

    counts = summary.counts.astype(np.int64).copy()
    max_count = int(counts.max())
    active = list(minority)
    added: list[AddedInstance] = []
    while budget > 0 and active:
        for label in list(active):
            if budget == 0:
                break
            members = bags[label]
            pick = members[int(rng.integers(0, len(members)))]
            clone = d.instances[pick]
            added.append(AddedInstance(kind="clone", source=pick))
            budget -= 1
            for l in clone.labels:
                counts[l] += 1
                if counts[l] > max_count:
                    max_count = int(counts[l])
            if max_count / counts[label] <= summary.mean_ir:
                active.remove(label)
    # clones are the input's own instances, so the rows need no new check
    out = d.subset([*range(d.n), *(a.source for a in added)])
    return out, _report(d, out, added, [])


def labelset_distance(a: Labelset, b: Labelset) -> float:
    """Adjusted Hamming distance: differing labels over labels active in either set."""
    union = a.union_size(b)
    if union == 0:
        return 0.0
    return a.hamming(b) / union


def mlenn(d: MultiLabelDataset, ht: float = 0.75, nn: int = 3) -> tuple[MultiLabelDataset, ResampleReport]:
    """Edited-nearest-neighbor undersampling.

    An instance is a removal candidate only when none of its labels is a
    minority label.  A candidate is marked when at least ``nn / 2`` of its
    ``nn`` nearest neighbors (whole dataset, feature space) have a labelset
    farther than ``ht`` in adjusted Hamming distance.  Marks are computed
    against the unmodified input and deleted in one final pass, so the result
    is independent of iteration order.
    """
    MLENNConfig(ht=ht, nn=nn)
    if nn >= d.n:
        raise ValueError(f"need more instances ({d.n}) than neighbors ({nn})")
    minority_mask = Labelset.from_indices(np.flatnonzero(imbalance_summary(d).minority).tolist())
    candidates = np.array(
        [i for i, inst in enumerate(d.instances) if not inst.labels & minority_mask], dtype=np.intp
    )
    encoded = FeatureSpace(d).encode(d.instances)
    query = (encoded[0][candidates], encoded[1][candidates])
    nearest = neighbors(query, prepare_reference(encoded), nn, exclude=candidates)
    marked: list[int] = []
    for i, near in zip(candidates.tolist(), nearest.tolist()):
        labels = d.instances[i].labels
        differing = sum(1 for j in near if labelset_distance(labels, d.instances[j].labels) > ht)
        if differing >= nn / 2:
            marked.append(i)
    marked_set = set(marked)
    keep = [i for i in range(d.n) if i not in marked_set]
    out = d.subset(keep)
    return out, _report(d, out, [], marked)


def _nominal_votes(
    codes: np.ndarray, nearest: np.ndarray, sizes: np.ndarray
) -> list[list[int | None]]:
    """Per row ``i``, each nominal column's most frequent code among the rows ``nearest[i]``.

    ``codes`` holds the nominal codes (-1 = missing) and ``sizes`` each
    column's number of declared values.  Missing codes do not vote, ties go
    to the lowest code, and a column no voter holds gets ``None``.
    """
    n_rows, n_columns = nearest.shape[0], codes.shape[1]
    if not n_columns:
        return [[] for _ in range(n_rows)]
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
    return [
        [None if v < 0 else v for v in row]
        for row in np.where(count > 0, top - rest, -1).tolist()
    ]


def _nominal_sizes(attributes: Sequence[AttributeSpec]) -> np.ndarray:
    return np.array([len(a.values) for a in attributes if a.is_nominal], dtype=np.int64)


def new_sample(
    attributes: tuple[AttributeSpec, ...],
    seed_instance: Instance,
    ref_neighbor: Instance,
    neighbors: Sequence[Instance],
    rng: np.random.Generator,
    nominal: Sequence[int | None] | None = None,
) -> Instance:
    """Build one synthetic instance from a seed and its neighborhood.

    Numeric features interpolate between seed and reference (fresh uniform
    draw per feature; a missing endpoint degrades to the available one; a
    span that overflows a float is interpolated as a weighted mean).
    Nominal features take the most frequent value among the neighbors (ties
    to the lowest value index, missing ignored).  The labelset keeps each
    label active in more than half of seed-plus-neighbors.

    ``nominal``, when given, must be that vote over ``neighbors``, one value
    per nominal attribute in attribute order; it is used as given, unchecked.
    :func:`mlsmote` passes the votes of a whole bag, counted at once.
    """
    if not neighbors:
        raise ValueError("need at least one neighbor")
    if nominal is None:
        columns = [i for i, a in enumerate(attributes) if a.is_nominal]
        codes = _nominal_codes([inst.features for inst in neighbors], columns)
        everyone = np.arange(len(neighbors))[None, :]
        nominal = _nominal_votes(codes, everyone, _nominal_sizes(attributes))[0]
    voted = iter(nominal)
    features: list[float | int | None] = []
    for idx, attr in enumerate(attributes):
        if attr.is_nominal:
            features.append(next(voted))
            continue
        sv = seed_instance.features[idx]
        rv = ref_neighbor.features[idx]
        if sv is None or rv is None:
            features.append(sv if sv is not None else rv)
            continue
        r = rng.random()
        span = rv - sv
        # a span past the float maximum overflows; the weighted mean never does
        features.append(sv + r * span if math.isfinite(span) else sv * (1 - r) + r * rv)
    votes: dict[int, int] = {}
    for inst in (seed_instance, *neighbors):
        for l in inst.labels:
            votes[l] = votes.get(l, 0) + 1
    threshold = (len(neighbors) + 1) / 2
    labels = Labelset.from_indices(sorted(l for l, c in votes.items() if c > threshold))
    return Instance(features=tuple(features), labels=labels)


def mlsmote(
    d: MultiLabelDataset, k_neighbors: int = 5, rng: np.random.Generator | None = None
) -> tuple[MultiLabelDataset, ResampleReport]:
    """Synthetic minority oversampling.

    For each minority label (input IRLbl above input MeanIR), every input
    instance carrying it acts as a seed: its ``k_neighbors`` nearest other
    bag members (fewer when the bag is small, ties to the lower index) form
    the neighborhood, a uniformly drawn reference neighbor anchors feature
    interpolation, and one synthetic instance is appended per seed.  Bags
    with a single member yield nothing.
    """
    MLSMOTEConfig(k_neighbors=k_neighbors)
    if rng is None:
        rng = np.random.default_rng()
    encoded = FeatureSpace(d).encode(d.instances)
    sizes = _nominal_sizes(d.attributes)
    synthetic: list[Instance] = []
    added: list[AddedInstance] = []
    minority = np.flatnonzero(imbalance_summary(d).minority).tolist()
    for bag in _bags(d, minority).values():
        if len(bag) < 2:
            continue
        bag_encoded = (encoded[0][bag], encoded[1][bag])
        want = min(k_neighbors, len(bag) - 1)
        reference = prepare_reference(bag_encoded)
        nearest = neighbors(bag_encoded, reference, want, exclude=np.arange(len(bag)))
        votes = _nominal_votes(bag_encoded[1], nearest, sizes)
        for pos, seed_idx in enumerate(bag):
            neighbor_idx = [bag[j] for j in nearest[pos]]
            ref = neighbor_idx[int(rng.integers(0, len(neighbor_idx)))]
            synthetic.append(
                new_sample(
                    d.attributes,
                    d.instances[seed_idx],
                    d.instances[ref],
                    [d.instances[j] for j in neighbor_idx],
                    rng,
                    votes[pos],
                )
            )
            added.append(AddedInstance(kind="synthetic", source=seed_idx))
    # only the synthetic rows are new; they are numbered after the input's
    _check_rows(synthetic, d.attributes, d.k, start=d.n)
    out = MultiLabelDataset._trusted(d.attributes, d.labels, d.instances + tuple(synthetic), d.name)
    return out, _report(d, out, added, [])


def resample(d: MultiLabelDataset, config: ResampleConfig) -> tuple[MultiLabelDataset, ResampleReport]:
    """Run the configured method with a fresh PCG64 generator from the seed."""
    rng = np.random.default_rng(config.seed)
    m = config.method
    if isinstance(m, MLROSConfig):
        return ml_ros(d, m.p, rng)
    if isinstance(m, MLENNConfig):
        return mlenn(d, m.ht, m.nn)
    if m.k_neighbors >= d.n:
        raise ValueError(
            f"k_neighbors ({m.k_neighbors}) must be smaller than the dataset size ({d.n})"
        )
    return mlsmote(d, m.k_neighbors, rng)
