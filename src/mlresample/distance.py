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
distance matrix, only one block of query rows at a time.  Within a block the
numeric terms are summed column by column into reused buffers, and the
nominal mismatch count of all columns comes from one matrix product of
one-hot code indicators (``n_nominal - q_hot @ r_hot.T``), which is exact
because it only adds small integers.  The k nearest are picked from a
shortlist: the cells no farther than each row's m-th smallest distance
(m = k, plus one when the row excludes an index), found with
``np.partition`` and ordered by distance, then index.  When ties make the
shortlist more than half of a block, a stable ``argsort`` of the whole block
picks them instead.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

import numpy as np

from .dataset import Instance, MultiLabelDataset

# Distance cells per query block.  It bounds the block's distance, temporary
# and sort arrays whatever the dataset size; at 256 KB per array they stay in
# cache, which measured faster than 2 MB blocks on 2000-8000 rows.
_BLOCK_CELLS = 1 << 15

# Above this share of a block's cells the shortlist is slower than a stable
# argsort of the block, which takes runs of equal distances in linear time.
# Measured on 500, 2000 and 6000 rows (k + 1 = 4) holding one repeated row
# and random others: the two cost the same when 40-60% of the cells tie
# with their row's m-th distance, and at 100% the argsort is 7x faster.
_MAX_SHORTLIST_SHARE = 0.5


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


def _one_hot(
    codes: np.ndarray, offsets: np.ndarray, widths: np.ndarray, out: np.ndarray
) -> None:
    """Write into ``out`` one 0/1 indicator per (nominal column, code) for each row of ``codes``.

    Column ``c`` owns indicators ``offsets[c]:offsets[c] + widths[c]``.  A
    missing code (-1), or one at or past the column's width, sets none, so it
    matches nothing.
    """
    out.fill(0.0)
    valid = (codes >= 0) & (codes < widths)
    out[np.nonzero(valid)[0], (codes + offsets)[valid]] = 1.0


def _distance_blocks(
    query: tuple[np.ndarray, np.ndarray], reference: tuple[np.ndarray, np.ndarray]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, block)``: distances from query rows ``start:start + len(block)``
    to every reference row, about ``_BLOCK_CELLS`` cells per block.

    Each block is written in place into buffers that the next block reuses.
    Numeric terms are summed column by column in attribute order, then the
    nominal mismatch count is added, so every cell is bit-identical to a
    per-column sum of the HEOM terms.
    """
    q_num, q_nom = query
    r_num, r_nom = reference
    n_query, n_ref = q_num.shape[0], r_num.shape[0]
    n_numeric, n_nominal = q_num.shape[1], q_nom.shape[1]
    rows = max(1, _BLOCK_CELLS // n_ref)
    totals = np.zeros((min(rows, n_query), n_ref))
    r_cols = np.ascontiguousarray(r_num.T)
    # a term can be NaN only in a column holding a NaN (missing) or an infinity
    nan_cols = ~(np.isfinite(q_num).all(axis=0) & np.isfinite(r_num).all(axis=0))
    terms = np.empty_like(totals) if n_numeric > 1 else None
    if n_nominal:
        # matches = q_hot @ r_hot.T counts equal, present codes; every partial
        # sum is a small integer, so float32 counts them exactly in any order
        widths = np.maximum(r_nom.max(axis=0, initial=-1) + 1, 0)
        offsets = np.cumsum(widths) - widths
        r_hot = np.empty((n_ref, int(widths.sum())), dtype=np.float32)
        # in chunks, so the index temporaries stay about _BLOCK_CELLS long
        chunk = max(1, _BLOCK_CELLS // n_nominal)
        for at in range(0, n_ref, chunk):
            _one_hot(r_nom[at : at + chunk], offsets, widths, r_hot[at : at + chunk])
        q_hots = np.empty((totals.shape[0], r_hot.shape[1]), dtype=np.float32)
        matches = np.empty(totals.shape, dtype=np.float32)
    for start in range(0, n_query, rows):
        stop = min(start + rows, n_query)
        total = totals[: stop - start]
        q_cols = q_num[start:stop]
        for col in range(n_numeric):
            # 0.0 + term is term, so the first column is written, not added
            term = total if col == 0 else terms[: stop - start]
            np.subtract(q_cols[:, col, None], r_cols[col], out=term)
            np.multiply(term, term, out=term)
            if nan_cols[col]:
                term[np.isnan(term)] = 1.0
            if col:
                total += term
        if n_nominal:
            q_hot, count = q_hots[: stop - start], matches[: stop - start]
            _one_hot(q_nom[start:stop], offsets, widths, q_hot)
            np.matmul(q_hot, r_hot.T, out=count)
            np.subtract(n_nominal, count, out=count)
            if not n_numeric:
                total[...] = count  # integer sums from 0.0: exact whatever the order
            else:
                # one +1.0 per mismatching column, as a per-column sum adds them;
                # the +0.0 of a matching column never changes a total >= 0
                for i in range(1, int(count.max()) + 1):
                    np.add(total, 1.0, out=total, where=count >= i)
        np.sqrt(total, out=total)
        yield start, total


def _nearest(block: np.ndarray, m: int) -> np.ndarray:
    """Column indices of the ``m`` smallest cells of each row: nearest first,
    ties to the lower column, as the first ``m`` of a stable ``argsort``."""
    if m < block.shape[1]:
        # shortlist: every cell no farther than the row's m-th smallest distance
        kth = np.partition(block, m - 1, axis=1)[:, m - 1, None]
        shortlist = block <= kth
        if np.count_nonzero(shortlist) <= _MAX_SHORTLIST_SHARE * block.size:
            rows, cols = np.nonzero(shortlist)
            # lexsort is stable, so equal distances keep nonzero's ascending columns
            order = np.lexsort((block[shortlist], rows))
            first = np.searchsorted(rows, np.arange(block.shape[0]))
            return cols[order[first[:, None] + np.arange(m)]]
    return np.argsort(block, axis=1, kind="stable")[:, :m]


def neighbors(
    query: tuple[np.ndarray, np.ndarray],
    reference: tuple[np.ndarray, np.ndarray],
    k: int,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the ``k`` reference rows nearest to each query row.

    Both arguments are ``(numeric, nominal)`` pairs from
    :meth:`FeatureSpace.encode`.  Rows come out nearest first, ties broken
    toward the lower reference index.  ``exclude``, when given, holds one
    reference index per query row that the row never picks (``np.arange(n)``
    when the query is the reference itself).  Distances are built for one
    block of query rows at a time, so memory stays O(block * n_ref) beside
    the reference's one-hot nominal codes (n_ref * sum of codes * 4 bytes).
    """
    n_query, n_ref = query[0].shape[0], reference[0].shape[0]
    skip = exclude is not None
    if not 0 < k <= n_ref - skip:
        raise ValueError(f"cannot pick {k} neighbors from {n_ref} reference rows")
    if skip and np.shape(exclude) != (n_query,):
        raise ValueError(f"need one excluded index per query row, got shape {np.shape(exclude)}")
    out = np.empty((n_query, k), dtype=np.intp)
    for start, block in _distance_blocks(query, reference):
        stop = start + block.shape[0]
        head = _nearest(block, k + skip)
        if not skip:
            out[start:stop] = head
            continue
        keep = head != exclude[start:stop, None]
        # a row whose excluded index fell outside the first k + 1 drops its last pick
        keep[keep.all(axis=1), k] = False
        out[start:stop] = head[keep].reshape(stop - start, k)
    return out
