"""Imbalance and label-concurrence characterization of multilabel datasets.

The suite covers label cardinality and density, the per-label imbalance
ratio (IRLbl) and its mean (MeanIR), the concurrence score between minority
and majority labels (SCUMBLE, globally and per instance), the theoretical
complexity score (TCS) and the distinct-labelset count.

Conventions for degenerate inputs:

* A label active in no instance has an undefined IRLbl.  ``irlbl`` and
  ``mean_ir`` raise :class:`UndefinedIRLblError`; ``profile`` marks such
  labels with ``None`` and averages MeanIR over the defined entries only.
* Instances with zero or one active label have SCUMBLE_ins 0, and empty
  labelsets contribute 0 to Card.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .dataset import Labelset, MultiLabelDataset, counts_per_label, label_counts, labelset_counts


class UndefinedIRLblError(ValueError):
    """IRLbl requested for a label that never occurs (division by zero)."""


class ImbalanceSummary(NamedTuple):
    """Shared intermediate state: counts, nan-marked IRLbl and defined-mean IR."""

    counts: np.ndarray
    irlbl: np.ndarray
    mean_ir: float

    @property
    def minority(self) -> np.ndarray:
        """Boolean mask of the minority labels: occurring, with IRLbl above MeanIR."""
        return (self.counts > 0) & (self.irlbl > self.mean_ir)


def _require_instances(d: MultiLabelDataset) -> None:
    if d.n < 1:
        raise ValueError("metric requires a dataset with at least one instance")


def imbalance_summary(d: MultiLabelDataset) -> ImbalanceSummary:
    """Counts, IRLbl per label (NaN where undefined) and MeanIR over defined labels."""
    _require_instances(d)
    return _summary(label_counts(d))


def _summary(counts: np.ndarray) -> ImbalanceSummary:
    irlbl = np.full(counts.size, np.nan)
    max_count = counts.max() if counts.size else 0
    defined = counts > 0
    if max_count > 0:
        irlbl[defined] = max_count / counts[defined]
    mean = float(np.mean(irlbl[defined])) if defined.any() else float("nan")
    return ImbalanceSummary(counts=counts, irlbl=irlbl, mean_ir=mean)


def card(d: MultiLabelDataset) -> float:
    """Mean labelset size."""
    _require_instances(d)
    return _card(labelset_counts(d), d.n)


def _card(labelsets: dict[int, int], n: int) -> float:
    return sum(mask.bit_count() * times for mask, times in labelsets.items()) / n


def _require_labels(d: MultiLabelDataset) -> None:
    if d.k < 1:
        raise ValueError("density requires at least one label")


def dens(d: MultiLabelDataset) -> float:
    """Label cardinality normalized by the number of labels."""
    _require_labels(d)
    return card(d) / d.k


def irlbl(d: MultiLabelDataset, label: int) -> float:
    """Imbalance ratio of one label: most frequent label's count over this one's.

    The most frequent label scores exactly 1; rarer labels score higher.
    """
    _require_instances(d)
    if not 0 <= label < d.k:
        raise ValueError(f"label index {label} out of range")
    counts = label_counts(d)
    if counts[label] == 0:
        raise UndefinedIRLblError(
            f"IRLbl undefined for label {d.labels[label]!r}: it never occurs"
        )
    return float(counts.max() / counts[label])


def mean_ir(d: MultiLabelDataset) -> float:
    """Average IRLbl over all labels; raises if any label has no occurrences."""
    _require_instances(d)
    counts = label_counts(d)
    zero = np.flatnonzero(counts == 0)
    if zero.size:
        names = [d.labels[i] for i in zero]
        raise UndefinedIRLblError(f"IRLbl undefined for zero-count labels: {names}")
    return float(np.mean(counts.max() / counts))


def _scumble_one(active_irlbl: list[float]) -> float:
    if len(active_irlbl) <= 1:
        return 0.0
    logs = [math.log(v) for v in active_irlbl]
    geometric = math.exp(sum(logs) / len(logs))
    arithmetic = sum(active_irlbl) / len(active_irlbl)
    # AM-GM keeps this in [0, 1]; the max() guards the floating-point edge.
    return max(0.0, 1.0 - geometric / arithmetic)


def _scumble_rows(d: MultiLabelDataset, labelsets: dict[int, int], irlbl: np.ndarray) -> np.ndarray:
    """Per-instance scores, computed once per distinct labelset."""
    score = {
        mask: _scumble_one([float(irlbl[l]) for l in Labelset(mask).indices])
        for mask in labelsets
    }
    masks = map(attrgetter("labels.mask"), d.instances)
    return np.fromiter(map(score.__getitem__, masks), dtype=float, count=d.n)


def scumble_values(d: MultiLabelDataset) -> np.ndarray:
    """Per-instance concurrence scores, in instance order."""
    _require_instances(d)
    labelsets = labelset_counts(d)
    return _scumble_rows(d, labelsets, _summary(counts_per_label(labelsets, d.k)).irlbl)


def scumble_ins(d: MultiLabelDataset, i: int) -> float:
    """Concurrence score of one instance.

    One minus the ratio of geometric to arithmetic mean of the IRLbl values
    of the instance's active labels; 0 for instances with fewer than two
    active labels.
    """
    if not 0 <= i < d.n:
        raise ValueError(f"instance index {i} out of range")
    return float(scumble_values(d)[i])


def scumble(d: MultiLabelDataset) -> float:
    """Dataset concurrence score: mean of the per-instance scores."""
    return float(np.mean(scumble_values(d)))


def distinct_labelsets(d: MultiLabelDataset) -> int:
    """Number of distinct label combinations present."""
    _require_instances(d)
    return len(labelset_counts(d))


def tcs_from_counts(attributes: int, labels: int, labelsets: int) -> float:
    """Theoretical complexity score from raw counts: ln(attributes * labels * labelsets)."""
    if attributes < 1 or labels < 1 or labelsets < 1:
        raise ValueError("TCS requires all three factors to be >= 1")
    return math.log(attributes) + math.log(labels) + math.log(labelsets)


def tcs(d: MultiLabelDataset) -> float:
    """Theoretical complexity score of a dataset."""
    return tcs_from_counts(len(d.attributes), d.k, distinct_labelsets(d))


@dataclass(frozen=True)
class ImbalanceProfile:
    """Full characterization of one dataset.

    ``irlbl`` holds ``None`` for labels that never occur; those labels are
    excluded from ``mean_ir``.
    """

    card: float
    dens: float
    irlbl: tuple[float | None, ...]
    mean_ir: float
    scumble: float
    scumble_ins: tuple[float, ...]
    tcs: float
    distinct_labelsets: int

    @property
    def undefined_labels(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.irlbl) if v is None)

    def to_dict(self) -> dict:
        return {
            "card": self.card,
            "dens": self.dens,
            "irlbl": list(self.irlbl),
            "mean_ir": self.mean_ir,
            "scumble": self.scumble,
            "scumble_ins": list(self.scumble_ins),
            "tcs": self.tcs,
            "distinct_labelsets": self.distinct_labelsets,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def profile(d: MultiLabelDataset) -> ImbalanceProfile:
    """Compute every metric of the suite in one pass over the distinct labelsets."""
    _require_instances(d)
    labelsets = labelset_counts(d)
    summary = _summary(counts_per_label(labelsets, d.k))
    per_label = tuple(None if math.isnan(v) else float(v) for v in summary.irlbl)
    s_values = _scumble_rows(d, labelsets, summary.irlbl)
    cardinality = _card(labelsets, d.n)
    _require_labels(d)
    return ImbalanceProfile(
        card=cardinality,
        dens=cardinality / d.k,
        irlbl=per_label,
        mean_ir=summary.mean_ir,
        scumble=float(np.mean(s_values)),
        scumble_ins=tuple(s_values.tolist()),
        tcs=tcs_from_counts(len(d.attributes), d.k, len(labelsets)),
        distinct_labelsets=len(labelsets),
    )


@dataclass(frozen=True)
class ConcurrenceRow:
    """Co-occurrence of one label pair, with each label's imbalance ratio."""

    label_a: str
    label_b: str
    count: int
    irlbl_a: float
    irlbl_b: float


def co_occurrence_count(d: MultiLabelDataset, label_a: int, label_b: int) -> int:
    """Number of instances in which both labels are active (symmetric)."""
    return _co_occurrences(labelset_counts(d), label_a, label_b)


def _co_occurrences(labelsets: dict[int, int], label_a: int, label_b: int) -> int:
    both = 1 << label_a | 1 << label_b
    return sum(times for mask, times in labelsets.items() if mask & both == both)


def concurrence_export(
    d: MultiLabelDataset, top_majority: int, top_minority: int
) -> tuple[ConcurrenceRow, ...]:
    """Plot-ready co-occurrence table over the most and least frequent labels.

    Selects the ``top_majority`` most frequent and ``top_minority`` least
    frequent labels (zero-count labels excluded, ties broken by label index),
    then emits one row per unordered pair of selected labels, sorted by joint
    count descending with a stable pair-index order.
    """
    if top_majority < 0 or top_minority < 0:
        raise ValueError("top counts must be non-negative")
    if top_majority > d.k or top_minority > d.k:
        raise ValueError("top counts cannot exceed the number of labels")
    summary = imbalance_summary(d)
    occurring = [l for l in range(d.k) if summary.counts[l] > 0]
    majority = sorted(occurring, key=lambda l: (-summary.counts[l], l))[:top_majority]
    minority = sorted(occurring, key=lambda l: (summary.counts[l], l))[:top_minority]
    selected = sorted(set(majority) | set(minority))
    labelsets = labelset_counts(d)
    rows = []
    for i, a in enumerate(selected):
        for b in selected[i + 1 :]:
            rows.append(
                ConcurrenceRow(
                    label_a=d.labels[a],
                    label_b=d.labels[b],
                    count=_co_occurrences(labelsets, a, b),
                    irlbl_a=float(summary.irlbl[a]),
                    irlbl_b=float(summary.irlbl[b]),
                )
            )
    rows.sort(key=lambda r: -r.count)
    return tuple(rows)


def concurrence_csv(rows: tuple[ConcurrenceRow, ...]) -> str:
    """CSV serialization of a concurrence table."""
    lines = ["label_a,label_b,count,irlbl_a,irlbl_b"]
    for r in rows:
        lines.append(f"{r.label_a},{r.label_b},{r.count},{r.irlbl_a!r},{r.irlbl_b!r}")
    return "\n".join(lines) + "\n"
