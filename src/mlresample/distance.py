"""Feature-space distance and the one k-nearest-neighbor query.

Numeric attributes are min-max scaled to the reference dataset's observed
range and compared by squared difference; nominal attributes contribute 0
when equal and 1 otherwise; a missing value is maximally distant (term 1)
from everything, including another missing value.  The distance is the
Euclidean norm over the per-attribute terms.

:class:`FeatureSpace` encodes instances into arrays; :func:`neighbors`
answers "which k reference rows are nearest?" for MLeNN, MLSMOTE and ML-kNN
alike, nearest first with ties to the lower index.  It never holds the full
distance matrix, only one block of query rows at a time.
"""

from __future__ import annotations

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
                mins[col] = lo
                if hi > lo:
                    spans[col] = hi - lo
        self._mins = mins
        self._spans = spans

    def encode(self, instances: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
        """Scaled numeric matrix (NaN = missing) and nominal code matrix (-1 = missing)."""
        n = len(instances)
        numeric = np.full((n, len(self._numeric)), np.nan)
        nominal = np.full((n, len(self._nominal)), -1, dtype=np.int64)
        for row, inst in enumerate(instances):
            for col, attr_idx in enumerate(self._numeric):
                v = inst.features[attr_idx]
                if v is not None:
                    numeric[row, col] = (v - self._mins[col]) / self._spans[col]
            for col, attr_idx in enumerate(self._nominal):
                v = inst.features[attr_idx]
                if v is not None:
                    nominal[row, col] = v
        return numeric, nominal


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
    r_num, r_nom = reference
    n_query, n_ref = q_num.shape[0], r_num.shape[0]
    if not 0 < k <= n_ref - exclude_self:
        raise ValueError(f"cannot pick {k} neighbors from {n_ref} reference rows")
    out = np.empty((n_query, k), dtype=np.intp)
    rows = max(1, _BLOCK_CELLS // n_ref)
    for start in range(0, n_query, rows):
        stop = min(start + rows, n_query)
        total = np.zeros((stop - start, n_ref))
        for col in range(q_num.shape[1]):
            diff = q_num[start:stop, col, None] - r_num[None, :, col]
            term = diff * diff
            total += np.where(np.isnan(term), 1.0, term)
        for col in range(q_nom.shape[1]):
            qv = q_nom[start:stop, col, None]
            rv = r_nom[None, :, col]
            total += ((qv != rv) | (qv < 0) | (rv < 0)).astype(float)
        order = np.argsort(np.sqrt(total), axis=1, kind="stable")
        if not exclude_self:
            out[start:stop] = order[:, :k]
            continue
        head = order[:, : k + 1]
        keep = head != np.arange(start, stop)[:, None]
        # a row whose own index fell outside the first k + 1 drops its last pick
        keep[keep.all(axis=1), k] = False
        out[start:stop] = head[keep].reshape(stop - start, k)
    return out
