"""Feature-space distance and the one k-nearest-neighbor query.

Numeric attributes are min-max scaled to the reference dataset's observed
range (computed from halved values where the range itself overflows a
float) and compared by squared difference; nominal attributes contribute 0
when equal and 1 otherwise; a missing value is maximally distant (term 1)
from everything, including another missing value.  The distance is the
Euclidean norm over the per-attribute terms.

:class:`FeatureSpace` encodes instances into arrays; :func:`neighbors`
answers "which k reference rows are nearest?" for MLeNN, MLSMOTE and ML-kNN
alike, nearest first with ties to the lower index.  It never holds the full
distance matrix, only one block of query rows at a time.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .dataset import Instance, MultiLabelDataset

# Distance cells per query block.  It bounds the block's distance, temporary
# and sort arrays whatever the dataset size; at 256 KB per array they stay in
# cache, which measured faster than 2 MB blocks on 2000-8000 rows.
_BLOCK_CELLS = 1 << 15


class FeatureSpace:
    """Precomputed scaling for one attribute schema, anchored to a reference dataset."""

    def __init__(self, reference: MultiLabelDataset):
        self.attributes = reference.attributes
        self._numeric = [i for i, a in enumerate(self.attributes) if not a.is_nominal]
        self._nominal = [i for i, a in enumerate(self.attributes) if a.is_nominal]
        # a value v encodes as (v * scale - min) / span
        scales = np.ones(len(self._numeric))
        mins = np.zeros(len(self._numeric))
        spans = np.ones(len(self._numeric))
        for col, attr_idx in enumerate(self._numeric):
            values = [
                inst.features[attr_idx]
                for inst in reference.instances
                if inst.features[attr_idx] is not None
            ]
            if values:
                lo, hi = min(values), max(values)
                if hi - lo == math.inf:
                    # the span overflows a float; half of it never does
                    scales[col] = 0.5
                    lo, hi = lo * 0.5, hi * 0.5
                mins[col] = lo
                if hi > lo:
                    spans[col] = hi - lo
        self._scales = scales
        self._mins = mins
        self._spans = spans

    def encode(self, instances: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
        """Scaled numeric matrix (NaN = missing) and nominal code matrix (-1 = missing)."""
        rows = [inst.features for inst in instances]
        raw = np.array([[f[i] for i in self._numeric] for f in rows], dtype=float)
        raw = raw.reshape(len(rows), len(self._numeric))  # None became NaN
        nominal = np.array(
            [[-1 if f[i] is None else f[i] for i in self._nominal] for f in rows], dtype=np.int64
        )
        nominal = nominal.reshape(len(rows), len(self._nominal))
        return (raw * self._scales - self._mins) / self._spans, nominal


def _distances(
    query: tuple[np.ndarray, np.ndarray], reference: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Distance matrix between encoded query rows and encoded reference rows."""
    q_num, q_nom = query
    r_num, r_nom = reference
    total = np.zeros((q_num.shape[0], r_num.shape[0]))
    for col in range(q_num.shape[1]):
        diff = q_num[:, col, None] - r_num[None, :, col]
        term = diff * diff
        total += np.where(np.isnan(term), 1.0, term)
    for col in range(q_nom.shape[1]):
        qv = q_nom[:, col, None]
        rv = r_nom[None, :, col]
        total += ((qv != rv) | (qv < 0) | (rv < 0)).astype(float)
    return np.sqrt(total)


def neighbors(
    query: tuple[np.ndarray, np.ndarray],
    reference: tuple[np.ndarray, np.ndarray],
    k: int,
    exclude_self: bool = False,
) -> np.ndarray:
    """Indices of the ``k`` reference rows nearest to each query row.

    Both arguments are ``(numeric, nominal)`` pairs from
    :meth:`FeatureSpace.encode`.  Rows come out nearest first, ties broken
    toward the lower reference index.  With ``exclude_self`` the query is the
    reference itself and each row skips its own index.  Distances are built
    for one block of query rows at a time, so memory stays O(block * n_ref).
    """
    q_num, q_nom = query
    n_query, n_ref = q_num.shape[0], reference[0].shape[0]
    if not 0 < k <= n_ref - exclude_self:
        raise ValueError(f"cannot pick {k} neighbors from {n_ref} reference rows")
    out = np.empty((n_query, k), dtype=np.intp)
    rows = max(1, _BLOCK_CELLS // n_ref)
    for start in range(0, n_query, rows):
        stop = min(start + rows, n_query)
        block = _distances((q_num[start:stop], q_nom[start:stop]), reference)
        order = np.argsort(block, axis=1, kind="stable")
        if not exclude_self:
            out[start:stop] = order[:, :k]
            continue
        head = order[:, : k + 1]
        keep = head != np.arange(start, stop)[:, None]
        # a row whose own index fell outside the first k + 1 drops its last pick
        keep[keep.all(axis=1), k] = False
        out[start:stop] = head[keep].reshape(stop - start, k)
    return out
