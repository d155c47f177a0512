"""Nearest-neighbour (ML-kNN) multilabel classifier using label priors and neighbor counts.

Training estimates, per label, a smoothed prior from the label's frequency
and smoothed conditional distributions of "how many of an instance's nearest
neighbors carry the label" separately for carriers and non-carriers.
Prediction scores a test instance by the posterior odds of those two
hypotheses given its own neighbor count.  This is the standard formulation
of the classic method; it is deterministic (neighbor ties break toward the
lower training index) and uses the same feature-space distance as the
resampling algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import MultiLabelDataset
from .distance import FeatureSpace, Reference, neighbors, prepare_reference
from .evaluation import PredictionSet


@dataclass(frozen=True)
class MLkNNModel:
    """Frozen training state: scaling, prepared training rows, priors and conditionals."""

    space: FeatureSpace
    reference: Reference
    train_labels: np.ndarray        # (n_train, k) bool
    labels: tuple[str, ...]
    k_nn: int
    smoothing: float
    prior: np.ndarray               # (k,) P(label active)
    cond_active: np.ndarray         # (k, k_nn + 1) P(count | active)
    cond_inactive: np.ndarray       # (k, k_nn + 1) P(count | inactive)


def mlknn_train(d_train: MultiLabelDataset, k_nn: int = 10, smoothing: float = 1.0) -> MLkNNModel:
    """Fit the model on a training dataset.

    ``smoothing`` is the additive estimate regularizer: 0 gives raw
    frequencies, larger values pull priors toward 1/2 and conditionals
    toward uniform.
    """
    if k_nn < 1:
        raise ValueError("k_nn must be positive")
    if k_nn >= d_train.n:
        raise ValueError(f"k_nn ({k_nn}) must be smaller than the training size ({d_train.n})")
    # a nan, an infinity or a value whose denominators overflow scores every label nan
    if not 0 <= smoothing * (k_nn + 1) < math.inf:
        raise ValueError(
            f"smoothing must be non-negative, with smoothing * (k_nn + 1) finite, got {smoothing}"
        )
    space = FeatureSpace(d_train)
    encoded = space.encoded
    reference = prepare_reference(encoded)
    y = d_train.y
    n, k = y.shape

    prior = (smoothing + y.sum(axis=0)) / (2 * smoothing + n)

    neighbor_counts = y[neighbors(encoded, reference, k_nn, exclude=np.arange(n))].sum(axis=1)

    # histogram[a, l, c]: training rows with label l active (a = 1) or not (a = 0)
    # whose neighbours carry l c times
    cells = (y * k + np.arange(k)) * (k_nn + 1) + neighbor_counts
    histogram = np.bincount(cells.ravel(), minlength=2 * k * (k_nn + 1)).reshape(2, k, k_nn + 1)
    denominator = smoothing * (k_nn + 1) + histogram.sum(axis=2, keepdims=True)
    observed = denominator > 0
    # a hypothesis never observed, with no smoothing, is uninformative
    cond_inactive, cond_active = np.where(
        observed, (smoothing + histogram) / np.where(observed, denominator, 1.0), 1.0 / (k_nn + 1)
    )
    return MLkNNModel(
        space=space,
        reference=reference,
        train_labels=y,
        labels=d_train.labels,
        k_nn=k_nn,
        smoothing=smoothing,
        prior=prior,
        cond_active=cond_active,
        cond_inactive=cond_inactive,
    )


def mlknn_predict(model: MLkNNModel, d_test: MultiLabelDataset) -> PredictionSet:
    """Score every test instance and label; the bipartition keeps scores above 1/2.

    Scores are posterior probabilities in [0, 1]; an exactly even posterior
    resolves to negative.  A doubly-unsupported neighbor count (possible only
    with zero smoothing) scores the uninformative 1/2.
    """
    if d_test.labels != model.labels:
        raise ValueError("test dataset declares different labels than the model")
    if tuple(d_test.attributes) != tuple(model.space.attributes):
        raise ValueError("test dataset schema does not match the model")
    test_encoded = model.space.encode(d_test)
    nearest = neighbors(test_encoded, model.reference, model.k_nn)
    neighbor_counts = model.train_labels[nearest].sum(axis=1)

    # column l of each lookup reads label l's row of the conditionals
    labels = np.arange(len(model.labels))
    p_active = model.prior * model.cond_active[labels, neighbor_counts]
    p_inactive = (1 - model.prior) * model.cond_inactive[labels, neighbor_counts]
    total = p_active + p_inactive
    scores = np.where(total > 0, p_active / np.where(total > 0, total, 1.0), 0.5)
    return PredictionSet(scores=scores, bipartition=scores > 0.5)
