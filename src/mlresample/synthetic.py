"""Seeded dataset generators for experiments and property suites.

``random_dataset`` draws small unconstrained datasets for oracle and
round-trip testing.  ``imbalanced_dataset`` builds a larger fixture with a
steep label-frequency ramp and deliberate co-occurrence of rare labels with
the frequent ones, so that both the global imbalance and the concurrence
score are high.  ``separable_clusters`` builds an easy two-cluster,
two-label problem for classifier smoke checks.
"""

from __future__ import annotations

import numpy as np

from .dataset import AttributeSpec, MultiLabelDataset


def random_dataset(
    seed: int | np.random.Generator,
    max_n: int = 20,
    max_k: int = 5,
    max_attrs: int = 4,
    allow_missing: bool = True,
    allow_empty_labelsets: bool = True,
    ensure_all_labels: bool = False,
    name: str | None = None,
) -> MultiLabelDataset:
    """One random small dataset with mixed numeric and nominal attributes."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(1, max_k + 1))
    n_attrs = int(rng.integers(1, max_attrs + 1))

    attributes = []
    for j in range(n_attrs):
        if rng.random() < 0.35:
            size = int(rng.integers(2, 5))
            attributes.append(
                AttributeSpec(name=f"a{j}", values=tuple(f"v{j}_{u}" for u in range(size)))
            )
        else:
            attributes.append(AttributeSpec(name=f"a{j}"))

    cells = np.full((n, n_attrs), np.nan)  # a float holds every nominal code exactly
    y = np.zeros((n, k), dtype=bool)
    for i in range(n):
        for j, attr in enumerate(attributes):
            if allow_missing and rng.random() < 0.06:
                continue
            elif attr.is_nominal:
                cells[i, j] = rng.integers(0, len(attr.values))
            else:
                cells[i, j] = np.round(rng.normal(0, 3), 6)
        active = [l for l in range(k) if rng.random() < 0.4]
        if not active and not allow_empty_labelsets:
            active = [int(rng.integers(0, k))]
        y[i, active] = True

    if ensure_all_labels:
        for l in np.flatnonzero(~y.any(axis=0)):
            y[int(rng.integers(0, n)), l] = True

    nominal = np.array([attr.is_nominal for attr in attributes])
    return MultiLabelDataset.from_arrays(
        attributes,
        tuple(chr(ord("A") + l) if k <= 26 else f"L{l}" for l in range(k)),
        cells[:, ~nominal],
        np.nan_to_num(cells[:, nominal], nan=-1.0).astype(np.int64),
        y,
        name or f"random-{n}x{k}",
    )


def imbalanced_dataset(
    seed: int,
    n: int = 500,
    k: int = 8,
    n_numeric: int = 6,
    concurrence_rate: float = 0.45,
) -> MultiLabelDataset:
    """High-imbalance, high-concurrence fixture.

    The first two labels are frequent; the rest follow a steep frequency
    ramp and, when drawn, almost always ride along with a frequent label
    (that co-occurrence is what drives the concurrence score up).  Features
    are noisy sums of per-label centroids plus one nominal marker.
    """
    if k < 4:
        raise ValueError("need at least four labels for the frequency ramp")
    rng = np.random.default_rng(seed)
    rare = np.arange(2, k)
    rare_weights = 0.7 ** np.arange(rare.size)
    rare_weights /= rare_weights.sum()
    centroids = rng.uniform(-3, 3, size=(k, n_numeric))

    y = np.zeros((n, k), dtype=bool)
    numeric = np.empty((n, n_numeric))
    group = np.empty((n, 1), dtype=np.int64)
    for i in range(n):
        active = set()
        if rng.random() < 0.80:
            active.add(0)
        if rng.random() < 0.45:
            active.add(1)
        if rng.random() < concurrence_rate:
            active.add(int(rng.choice(rare, p=rare_weights)))
            if rng.random() < 0.25:
                active.add(int(rng.choice(rare, p=rare_weights)))
            if not active & {0, 1} and rng.random() < 0.9:
                active.add(0)
        if not active:
            active.add(0)
        ordered = sorted(active)
        y[i, ordered] = True
        numeric[i] = rng.normal(centroids[ordered].mean(axis=0), 0.6)
        group[i] = min(ordered) % 3

    # Rare tail labels can miss small samples entirely; pin a floor of two
    # occurrences so every label keeps a defined imbalance ratio.
    for l in range(k):
        for _ in range(max(0, 2 - int(y[:, l].sum()))):
            y[int(rng.integers(0, n)), [0, l]] = True

    attributes = tuple(AttributeSpec(name=f"x{j}") for j in range(n_numeric)) + (
        AttributeSpec(name="group", values=("g0", "g1", "g2")),
    )
    labels = tuple(f"L{l}" for l in range(k))
    return MultiLabelDataset.from_arrays(
        attributes, labels, numeric, group, y, f"synthetic-imbalanced-{seed}"
    )


def separable_clusters(
    seed: int, n_train_per: int = 20, n_test_per: int = 5
) -> tuple[MultiLabelDataset, MultiLabelDataset]:
    """(train, test) pair of two widely separated single-label clusters."""
    rng = np.random.default_rng(seed)
    attributes = (AttributeSpec(name="x0"), AttributeSpec(name="x1"))
    labels = ("left", "right")

    def draw(count: int, center: float, label: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        y = np.zeros((count, 2), dtype=bool)
        y[:, label] = True
        return rng.normal(center, 0.3, size=(count, 2)), np.empty((count, 0), np.int64), y

    train = draw(n_train_per, -5.0, 0), draw(n_train_per, 5.0, 1)
    test = draw(n_test_per, -5.0, 0), draw(n_test_per, 5.0, 1)
    return tuple(
        MultiLabelDataset.from_arrays(attributes, labels, *map(np.concatenate, zip(*parts)), name)
        for parts, name in ((train, "clusters-train"), (test, "clusters-test"))
    )
