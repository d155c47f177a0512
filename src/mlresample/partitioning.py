"""Label-stratified k-fold partitioning.

Instances are assigned label by label, rarest label first, each one going to
the fold with the greatest remaining demand for that label (ties: most
remaining capacity, then a seeded draw).  Fold capacities are fixed up front
to floor/ceil(n / folds), so fold sizes differ by at most one and every fold
is non-empty whenever n >= folds.  Deterministic for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import MultiLabelDataset


def _check_folds(folds: int) -> None:
    """Raise ValueError unless ``folds`` is at least two."""
    if folds < 2:
        raise ValueError("need at least two folds")


@dataclass(frozen=True)
class FoldAssignment:
    """Fold index per instance."""

    fold_of: tuple[int, ...]
    folds: int

    def __post_init__(self):
        _check_folds(self.folds)
        if any(not 0 <= f < self.folds for f in self.fold_of):
            raise ValueError("fold index out of range")

    def test_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.fold_of) if f == fold)

    def train_indices(self, fold: int) -> tuple[int, ...]:
        return tuple(i for i, f in enumerate(self.fold_of) if f != fold)

    def to_csv(self) -> str:
        lines = ["instance_index,fold"]
        lines.extend(f"{i},{f}" for i, f in enumerate(self.fold_of))
        return "\n".join(lines) + "\n"


def stratified_kfold(d: MultiLabelDataset, folds: int, seed: int = 0) -> FoldAssignment:
    """Partition a dataset into label-stratified folds."""
    _check_folds(folds)
    if folds > d.n:
        raise ValueError(f"cannot make {folds} folds from {d.n} instances")
    rng = np.random.default_rng(seed)
    n = d.n
    y = d.y

    sizes = np.full(folds, n // folds, dtype=np.int64)
    sizes[: n % folds] += 1
    capacity = sizes.tolist()
    # Per-fold demand for each label, proportional to the fold's size, one list per fold.
    demand = (y.sum(axis=0, dtype=float)[None, :] * (sizes[:, None] / n)).tolist()
    # each instance's label indices
    rows, labels = np.nonzero(y)
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    labels = labels.tolist()
    labels_of = [labels[start:end] for start, end in zip([0, *ends], ends)]

    fold_of = np.full(n, -1, dtype=np.int64)
    remaining = y.sum(axis=0).astype(np.int64)

    def place(i: int, label: int | None) -> int:
        open_folds = [f for f, room in enumerate(capacity) if room > 0]
        if label is not None:
            wanted = [demand[f][label] for f in open_folds]
            best = max(wanted)
            # np.isclose(wanted, best) with its default tolerances
            limit = 1e-08 + 1e-05 * abs(best)
            open_folds = [
                f for f, a in zip(open_folds, wanted) if abs(a - best) <= limit or a == best
            ]
        if len(open_folds) > 1:
            most_room = max(capacity[f] for f in open_folds)
            open_folds = [f for f in open_folds if capacity[f] == most_room]
        if len(open_folds) == 1:
            pick = open_folds[0]
        else:
            pick = int(rng.choice(np.array(open_folds, dtype=np.int64)))
        capacity[pick] -= 1
        row = demand[pick]
        for l in labels_of[i]:
            row[l] -= 1.0
        return pick

    while True:
        open_labels = np.flatnonzero(remaining > 0)
        if open_labels.size == 0:
            break
        label = int(open_labels[np.argmin(remaining[open_labels])])
        pool = np.flatnonzero(y[:, label] & (fold_of < 0))
        if pool.size > 1:
            pool = rng.permutation(pool)
        fold_of[pool] = [place(i, label) for i in pool.tolist()]
        remaining -= y[pool].sum(axis=0)

    leftovers = np.flatnonzero(fold_of < 0)
    if leftovers.size > 1:
        leftovers = rng.permutation(leftovers)
    fold_of[leftovers] = [place(i, None) for i in leftovers.tolist()]

    return FoldAssignment(fold_of=tuple(fold_of.tolist()), folds=folds)


def fold_datasets(
    d: MultiLabelDataset, assignment: FoldAssignment, fold: int
) -> tuple[MultiLabelDataset, MultiLabelDataset]:
    """(train, test) datasets for one fold, instance order preserved."""
    train = d.subset(assignment.train_indices(fold), name=f"{d.name}-f{fold}-train")
    test = d.subset(assignment.test_indices(fold), name=f"{d.name}-f{fold}-test")
    return train, test
