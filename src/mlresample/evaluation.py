"""Example-based evaluation metrics for multilabel predictions.

``evaluate(truth, pred)`` is the one call: it checks the truth matrix once and
returns all six metrics on an ``EvaluationReport``, with no separate function
per metric.  All six live in [0, 1].  Degenerate cases follow fixed conventions:

* instances predicting no label contribute 0 to the precision mean, and
  instances with an empty true labelset contribute 0 to recall; both counts
  are surfaced on the report;
* ranking loss skips instances whose true labelset is empty or full (their
  pair set is empty) and is 0 when every instance is skipped;
* the ranking AUC uses a greater-or-equal comparator, so a degenerate
  all-equal score matrix scores 1.  This deliberately differs from
  tie-splitting AUC conventions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


@dataclass(frozen=True)
class PredictionSet:
    """Per-instance per-label confidence scores plus thresholded decisions."""

    scores: np.ndarray
    bipartition: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        bipartition = np.asarray(self.bipartition, dtype=bool)
        if scores.ndim != 2 or bipartition.shape != scores.shape:
            raise ValueError("scores and bipartition must be matching 2-D matrices")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "bipartition", bipartition)


@dataclass(frozen=True)
class EvaluationReport:
    """The six metric values, plus how many degenerate terms were zeroed.

    ``hamming_loss`` is the fraction of label assignments that disagree with
    the truth; ``precision`` and ``recall`` are the per-instance means of the
    predicted labels that are true and of the true labels that were
    predicted, and ``f_measure`` is their harmonic mean (0 when both are 0).
    """

    hamming_loss: float
    ranking_loss: float
    precision: float
    recall: float
    f_measure: float
    auc: float
    empty_predictions: int = 0
    empty_truths: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _ranking_loss(truth: np.ndarray, scores: np.ndarray) -> float:
    """Fraction of (relevant, irrelevant) label pairs ranked the wrong way round.

    A pair counts when the irrelevant label scores strictly above the
    relevant one.  Instances with an empty or full true labelset have no
    pairs and are excluded from the average.
    """
    per_instance = []
    for i in range(truth.shape[0]):
        relevant = scores[i, truth[i]]
        irrelevant = scores[i, ~truth[i]]
        if relevant.size == 0 or irrelevant.size == 0:
            continue
        ordered = np.sort(irrelevant, kind="stable")
        above = irrelevant.size - np.searchsorted(ordered, relevant, side="right")
        per_instance.append(above.sum() / (relevant.size * irrelevant.size))
    if not per_instance:
        return 0.0
    return float(np.mean(per_instance))


def _micro_auc(truth: np.ndarray, scores: np.ndarray) -> float:
    """Fraction of (positive, negative) assignment pairs with score(pos) >= score(neg).

    Pairs range over the whole matrix, not per instance.  With no positives
    or no negatives the pair set is empty and the result is 1.
    """
    positive = np.sort(scores[truth], kind="stable")
    negative = scores[~truth]
    if positive.size == 0 or negative.size == 0:
        return 1.0
    at_least = positive.size - np.searchsorted(positive, negative, side="left")
    return float(at_least.sum() / (positive.size * negative.size))


def evaluate(truth: np.ndarray, pred: PredictionSet) -> EvaluationReport:
    """All six metrics for one prediction set against the true label matrix."""
    truth = np.asarray(truth, dtype=bool)
    if truth.shape != pred.scores.shape:
        raise ValueError(
            f"truth shape {truth.shape} does not match predictions {pred.scores.shape}"
        )
    if truth.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    decided = pred.bipartition
    hits = (truth & decided).sum(axis=1)
    predicted = decided.sum(axis=1)
    actual = truth.sum(axis=1)
    p = float(np.mean(np.where(predicted > 0, hits / np.maximum(predicted, 1), 0.0)))
    r = float(np.mean(np.where(actual > 0, hits / np.maximum(actual, 1), 0.0)))
    return EvaluationReport(
        hamming_loss=float(np.mean(truth ^ decided)),
        ranking_loss=_ranking_loss(truth, pred.scores),
        precision=p,
        recall=r,
        f_measure=0.0 if p + r == 0 else 2 * p * r / (p + r),
        auc=_micro_auc(truth, pred.scores),
        empty_predictions=int((predicted == 0).sum()),
        empty_truths=int((actual == 0).sum()),
    )
