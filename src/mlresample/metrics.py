"""Imbalance and label-concurrence characterization of multilabel datasets.

The suite covers label cardinality and density, the per-label imbalance
ratio (IRLbl) and its mean (MeanIR), the concurrence score between minority
and majority labels (SCUMBLE, globally and per instance), the theoretical
complexity score (TCS) and the distinct-labelset count.  :func:`profile`
derives them all at once, each as one field of an :class:`ImbalanceProfile`.

``profile`` needs a dataset with at least one instance, one label and (for
TCS's logarithm) one attribute, and raises ``ValueError`` otherwise.  Within
that domain:

* A label active in no instance has an undefined IRLbl, marked ``None``;
  MeanIR averages the defined entries only, so it is NaN (``null`` in JSON)
  when no label occurs.
* Instances with zero or one active label have SCUMBLE_ins 0, and empty
  labelsets contribute 0 to Card.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MultiLabelDataset, label_counts


def _require_domain(d: MultiLabelDataset) -> None:
    if d.n < 1:
        raise ValueError("metric requires a dataset with at least one instance")
    if d.k < 1:
        raise ValueError("metric requires a dataset with at least one label")


def _scumble_one(active_irlbl: list[float]) -> float:
    if len(active_irlbl) <= 1:
        return 0.0
    logs = [math.log(v) for v in active_irlbl]
    geometric = math.exp(sum(logs) / len(logs))
    arithmetic = sum(active_irlbl) / len(active_irlbl)
    # AM-GM keeps this in [0, 1]; the max() guards the floating-point edge.
    return max(0.0, 1.0 - geometric / arithmetic)


def _labelsets(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a label matrix, and the index of each row's distinct row.

    Rows are grouped by their packed bits, viewed as one opaque value each.
    """
    packed = np.packbits(y, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1])))
    _, first, inverse = np.unique(keys.reshape(-1), return_index=True, return_inverse=True)
    return y[first], inverse.reshape(-1)


def tcs_from_counts(attributes: int, labels: int, labelsets: int) -> float:
    """Theoretical complexity score from raw counts: ln(attributes * labels * labelsets)."""
    if attributes < 1 or labels < 1 or labelsets < 1:
        raise ValueError("TCS requires all three factors to be >= 1")
    return math.log(attributes) + math.log(labels) + math.log(labelsets)


@dataclass(frozen=True)
class ImbalanceProfile:
    """Full characterization of one dataset.

    ``irlbl`` holds ``None`` for labels that never occur; those labels are
    excluded from ``mean_ir``, which is NaN when no label occurs.
    """

    card: float  # mean labelset size
    dens: float  # card over the number of labels
    irlbl: tuple[float | None, ...]  # per label: the largest label count over its own
    mean_ir: float
    scumble: float  # mean of scumble_ins
    # per instance: 1 - geometric / arithmetic mean of its labels' IRLbl, 0 below two labels
    scumble_ins: tuple[float, ...]
    tcs: float  # ln(attributes * labels * distinct labelsets)
    distinct_labelsets: int

    @property
    def undefined_labels(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.irlbl) if v is None)

    @property
    def minority(self) -> np.ndarray:
        """Boolean mask of the minority labels: occurring, with IRLbl above MeanIR."""
        return np.array([v is not None and v > self.mean_ir for v in self.irlbl], dtype=bool)

    def to_dict(self) -> dict:
        return {
            "card": self.card,
            "dens": self.dens,
            "irlbl": list(self.irlbl),
            "mean_ir": None if math.isnan(self.mean_ir) else self.mean_ir,
            "scumble": self.scumble,
            "scumble_ins": list(self.scumble_ins),
            "tcs": self.tcs,
            "distinct_labelsets": self.distinct_labelsets,
        }


def profile(d: MultiLabelDataset) -> ImbalanceProfile:
    """Compute every metric of the suite from one count per label and one score per labelset."""
    _require_domain(d)
    counts = label_counts(d)
    defined = counts > 0
    irlbl = np.full(d.k, np.nan)
    irlbl[defined] = counts.max() / counts[defined]
    mean = float(np.mean(irlbl[defined])) if defined.any() else float("nan")
    distinct, row_labelset = _labelsets(d.y)
    scores = [_scumble_one([float(irlbl[l]) for l in np.flatnonzero(row)]) for row in distinct]
    s_values = np.array(scores, dtype=float)[row_labelset]
    cardinality = int(counts.sum()) / d.n
    return ImbalanceProfile(
        card=cardinality,
        dens=cardinality / d.k,
        irlbl=tuple(None if math.isnan(v) else v for v in irlbl.tolist()),
        mean_ir=mean,
        scumble=float(np.mean(s_values)),
        scumble_ins=tuple(s_values.tolist()),
        tcs=tcs_from_counts(len(d.attributes), d.k, len(distinct)),
        distinct_labelsets=len(distinct),
    )


@dataclass(frozen=True)
class ConcurrenceRow:
    """Co-occurrence of one label pair, with each label's imbalance ratio."""

    label_a: str
    label_b: str
    count: int
    irlbl_a: float
    irlbl_b: float


def _check_tops(top_majority: int, top_minority: int) -> None:
    """Raise ValueError unless both top counts are non-negative."""
    if top_majority < 0 or top_minority < 0:
        raise ValueError("top counts must be non-negative")


def concurrence_export(
    d: MultiLabelDataset, top_majority: int, top_minority: int
) -> tuple[ConcurrenceRow, ...]:
    """Plot-ready co-occurrence table over the most and least frequent labels.

    Selects the ``top_majority`` most frequent and ``top_minority`` least
    frequent labels (zero-count labels excluded, ties broken by label index),
    then emits one row per unordered pair of selected labels, sorted by joint
    count descending with a stable pair-index order.
    """
    _check_tops(top_majority, top_minority)
    if top_majority > d.k or top_minority > d.k:
        raise ValueError("top counts cannot exceed the number of labels")
    _require_domain(d)
    counts = label_counts(d)
    most = counts.max()
    occurring = [l for l in range(d.k) if counts[l] > 0]
    majority = sorted(occurring, key=lambda l: (-counts[l], l))[:top_majority]
    minority = sorted(occurring, key=lambda l: (counts[l], l))[:top_minority]
    selected = sorted(set(majority) | set(minority))
    # every product sums 0/1 terms, so the float counts are exact
    columns = d.y[:, selected].astype(float)
    together = (columns.T @ columns).astype(np.int64).tolist()
    rows = []
    for i, a in enumerate(selected):
        for j, b in enumerate(selected[i + 1 :], i + 1):
            rows.append(
                ConcurrenceRow(
                    label_a=d.labels[a],
                    label_b=d.labels[b],
                    count=together[i][j],
                    irlbl_a=float(most / counts[a]),
                    irlbl_b=float(most / counts[b]),
                )
            )
    rows.sort(key=lambda r: -r.count)
    return tuple(rows)


def concurrence_csv(rows: tuple[ConcurrenceRow, ...]) -> str:
    """CSV serialization of a concurrence table."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("label_a", "label_b", "count", "irlbl_a", "irlbl_b"))
    writer.writerows((r.label_a, r.label_b, r.count, r.irlbl_a, r.irlbl_b) for r in rows)
    return out.getvalue()
