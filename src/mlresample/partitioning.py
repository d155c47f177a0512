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


@dataclass(frozen=True)
class FoldAssignment:
    """Fold index per instance."""

    fold_of: tuple[int, ...]
    folds: int

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("need at least two folds")
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
    if folds < 2:
        raise ValueError("need at least two folds")
    if folds > d.n:
        raise ValueError(f"cannot make {folds} folds from {d.n} instances")
    rng = np.random.default_rng(seed)
    n, k = d.n, d.k
    y = d.y

    base = n // folds
    capacity = np.full(folds, base, dtype=np.int64)
    capacity[: n % folds] += 1
    sizes = capacity.copy()
    # Per-fold demand for each label, proportional to the fold's size.
    demand = y.sum(axis=0, dtype=float)[None, :] * (sizes[:, None] / n)

    fold_of = np.full(n, -1, dtype=np.int64)
    remaining = y.sum(axis=0).astype(np.int64)

    def place(i: int, label: int | None) -> None:
        open_folds = np.flatnonzero(capacity > 0)
        if label is not None:
            best = demand[open_folds, label].max()
            open_folds = open_folds[np.isclose(demand[open_folds, label], best)]
        if open_folds.size > 1:
            most_room = capacity[open_folds].max()
            open_folds = open_folds[capacity[open_folds] == most_room]
        pick = open_folds[0] if open_folds.size == 1 else rng.choice(open_folds)
        fold_of[i] = pick
        capacity[pick] -= 1
        demand[pick, y[i]] -= 1.0
        remaining[y[i]] -= 1

    while True:
        open_labels = np.flatnonzero(remaining > 0)
        if open_labels.size == 0:
            break
        label = open_labels[np.argmin(remaining[open_labels])]
        pool = np.flatnonzero(y[:, label] & (fold_of < 0))
        if pool.size > 1:
            pool = rng.permutation(pool)
        for i in pool:
            place(int(i), int(label))

    leftovers = np.flatnonzero(fold_of < 0)
    if leftovers.size > 1:
        leftovers = rng.permutation(leftovers)
    for i in leftovers:
        place(int(i), None)

    return FoldAssignment(fold_of=tuple(int(f) for f in fold_of), folds=folds)


def fold_datasets(
    d: MultiLabelDataset, assignment: FoldAssignment, fold: int
) -> tuple[MultiLabelDataset, MultiLabelDataset]:
    """(train, test) datasets for one fold, instance order preserved."""
    train = d.subset(assignment.train_indices(fold), name=f"{d.name}-f{fold}-train")
    test = d.subset(assignment.test_indices(fold), name=f"{d.name}-f{fold}-test")
    return train, test
