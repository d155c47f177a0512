"""Feature-space distance and the one k-nearest-neighbor query.

Numeric attributes are min-max scaled to the reference dataset's observed
range (computed from halved values where the range itself overflows a
float) and compared by squared difference; nominal attributes contribute 0
when equal and 1 otherwise; a missing value is maximally distant (term 1)
from everything, including another missing value.  The distance is the
Euclidean norm over the per-attribute terms.

:class:`FeatureSpace` encodes instances into arrays, :func:`prepare_reference`
prepares encoded rows once for any number of queries, and :func:`neighbors`
answers "which k reference rows are nearest?" for MLeNN, MLSMOTE and ML-kNN
alike, nearest first with ties to the lower index.  It never holds the full
distance matrix, only one block of query rows at a time.

Every distance that decides a neighbour is an *exact cell*: numeric terms
summed column by column in attribute order (a NaN term counts 1.0), then one
``+1.0`` per mismatching nominal column, then ``sqrt``.  The nominal
mismatch count of all columns comes from one matrix product of one-hot code
indicators (``n_nominal - q_hot @ r_hot.T``), which is exact because it only
adds small integers.

With numeric columns, a block is first ranked by an estimate: the Gram form
``|q|^2 + |r|^2 - 2 q.r`` (one matrix product) over the columns that hold
only finite values, plus the exact terms of the other columns and the exact
nominal count.  Each row's m best estimates (m = k, plus one when the row
excludes an index) get exact cells, and the largest of them, c, bounds the
row's answer: at least m cells lie within c.  Every cell whose estimate could
still be within c is kept, by a rigorous error bound (Higham, *Accuracy and
Stability of Numerical Algorithms*, section 3.1), and only the kept cells
are computed exactly and sorted.  The estimate only filters cells, so the
order of a BLAS product, its threads and fused multiply-adds never change a
neighbour list.  A row whose norms could overflow, and a block whose kept
cells are more than ``_MAX_SHORTLIST_SHARE`` of it, take the exact block
instead.  So does a whole query when no numeric column is finite on both
sides (with no numeric column at all the nominal count is exact already) or
when a row needs every reference row.  The exact block picks from a
shortlist: the cells no farther than each row's m-th smallest distance,
found with ``np.partition`` and ordered by distance, then index.  When ties
make that shortlist more than half of a block, a stable ``argsort`` of the
whole block picks them instead.  No option changes any of this.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

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

# Query rows per estimated block, at least.  With fewer, the per-block numpy
# calls outweigh the matrix product once the reference has thousands of rows:
# on 8000 rows x 50 columns (k = 3) a self-query took 1.30 s at _BLOCK_CELLS
# alone (4 rows per block) against 0.71 s at 32 rows, and 64 or 128 rows gave
# no more than 3% over 32.
_MIN_ESTIMATE_ROWS = 32

_UNIT_ROUNDOFF = 2.0**-53
# An operation that underflows errs by at most 2**-1075 beyond its relative
# error; this absolute slack covers all of an estimate's and a cell's
# operations for any column count below 2**70.
_UNDERFLOW_SLACK = 2.0**-1000


class FeatureSpace:
    """Precomputed scaling for one attribute schema, anchored to a reference dataset."""

    def __init__(self, reference: MultiLabelDataset):
        self.attributes = reference.attributes
        self._numeric = [i for i, a in enumerate(self.attributes) if not a.is_nominal]
        self._nominal = [i for i, a in enumerate(self.attributes) if a.is_nominal]
        # a value v encodes as (v * scale - min) / span
        raw = self._raw_numeric([inst.features for inst in reference.instances])
        present = ~np.isnan(raw).all(axis=0)
        lo = np.where(present, np.fmin.reduce(raw, axis=0, initial=np.inf), 0.0)
        hi = np.where(present, np.fmax.reduce(raw, axis=0, initial=-np.inf), 0.0)
        with np.errstate(over="ignore"):
            # the span overflows a float; half of it never does
            halved = hi - lo == math.inf
        scales = np.where(halved, 0.5, 1.0)
        lo, hi = lo * scales, hi * scales
        self._scales = scales
        self._mins = lo
        self._spans = np.where(hi > lo, hi - lo, 1.0)

    def _raw_numeric(self, rows: Sequence[tuple]) -> np.ndarray:
        """Unscaled numeric matrix of feature tuples, column-major, NaN for a missing value.

        Rows are converted in chunks of about ``_BLOCK_CELLS`` values, so the
        per-row lists never hold more than one chunk.
        """
        numeric = self._numeric
        raw = np.empty((len(numeric), len(rows))).T
        step = max(1, _BLOCK_CELLS // max(len(numeric), 1))
        for at in range(0, len(rows), step):
            # numpy converts None to NaN
            raw[at : at + step] = [[f[i] for i in numeric] for f in rows[at : at + step]]
        return raw

    def encode(self, instances: Sequence[Instance]) -> tuple[np.ndarray, np.ndarray]:
        """Scaled numeric matrix (NaN = missing) and nominal code matrix (-1 = missing).

        The numeric matrix is column-major, so :func:`prepare_reference` keeps
        its transpose without a copy.
        """
        rows = [inst.features for inst in instances]
        numeric = self._raw_numeric(rows)
        numeric *= self._scales
        numeric -= self._mins
        numeric /= self._spans
        return numeric, _nominal_codes(rows, self._nominal)


def _nominal_codes(rows: Sequence[tuple], columns: Sequence[int]) -> np.ndarray:
    """Code matrix of the feature tuples' nominal ``columns``, -1 for a missing value."""
    codes = [[-1 if f[i] is None else f[i] for i in columns] for f in rows]
    return np.array(codes, dtype=np.int64).reshape(len(rows), len(columns))


@dataclass(frozen=True, eq=False)
class Reference:
    """Encoded reference rows, prepared once by :func:`prepare_reference`.

    ``columns`` is the transpose of the :meth:`FeatureSpace.encode` pair's
    numeric matrix, C-contiguous (a view of that column-major matrix), and
    ``nominal`` its code matrix.  Nominal column ``c`` owns
    one-hot indicators ``offsets[c]:offsets[c] + widths[c]`` of ``one_hot``
    (width = the column's largest code + 1).  ``finite`` marks the numeric
    columns without a NaN or infinity; ``norms`` holds each row's squared
    norm over them and ``max_norm`` the largest norm.
    """

    columns: np.ndarray
    nominal: np.ndarray
    widths: np.ndarray
    offsets: np.ndarray
    one_hot: np.ndarray
    finite: np.ndarray
    norms: np.ndarray
    max_norm: float

    @property
    def n(self) -> int:
        return self.columns.shape[1]

    def gram(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """The numeric columns in ``mask`` (column-major), the rows' squared norms over them
        and the largest norm."""
        if np.array_equal(mask, self.finite):
            cols = self.columns if mask.all() else self.columns[mask]
            return cols, self.norms, self.max_norm
        cols = self.columns[mask]
        norms = np.einsum("ij,ij->j", cols, cols)
        return cols, norms, _max_norm(norms)


def _max_norm(squared: np.ndarray) -> float:
    return math.sqrt(squared.max()) if squared.size else 0.0


def prepare_reference(encoded: tuple[np.ndarray, np.ndarray]) -> Reference:
    """Everything :func:`neighbors` needs of the reference rows, built once.

    Besides the encoded pair it holds the one-hot nominal codes
    (n_ref * sum of codes * 4 bytes) and the rows' squared norms.  The
    numeric matrix is kept column-major: a view of one from
    :meth:`FeatureSpace.encode`, a copy of any other.
    """
    numeric, nominal = encoded
    n_ref, n_nominal = nominal.shape
    widths = np.maximum(nominal.max(axis=0, initial=-1) + 1, 0)
    offsets = np.cumsum(widths) - widths
    one_hot = np.empty((n_ref, int(widths.sum())), dtype=np.float32)
    # in chunks, so the index temporaries stay about _BLOCK_CELLS long
    chunk = max(1, _BLOCK_CELLS // max(n_nominal, 1))
    for at in range(0, n_ref, chunk):
        _one_hot(nominal[at : at + chunk], offsets, widths, one_hot[at : at + chunk])
    finite = np.isfinite(numeric).all(axis=0)
    rows = numeric if finite.all() else numeric[:, finite]
    with np.errstate(over="ignore"):
        norms = np.einsum("ij,ij->i", rows, rows)
    return Reference(
        columns=np.ascontiguousarray(numeric.T),
        nominal=nominal,
        widths=widths,
        offsets=offsets,
        one_hot=one_hot,
        finite=finite,
        norms=norms,
        max_norm=_max_norm(norms),
    )


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


class _Buffers:
    """Block-sized arrays that every block of one query reuses."""

    def __init__(self, rows: int, reference: Reference):
        n_numeric, n_nominal = reference.columns.shape[0], reference.nominal.shape[1]
        self.total = np.zeros((rows, reference.n))
        self.terms = np.empty_like(self.total) if n_numeric else None
        if n_nominal:
            self.q_hot = np.empty((rows, reference.one_hot.shape[1]), dtype=np.float32)
            self.count = np.empty(self.total.shape, dtype=np.float32)


def _add_terms(
    total: np.ndarray, q_num: np.ndarray, reference: Reference, cols, nan_cols, terms, write_first
) -> None:
    """Add to ``total`` the squared numeric terms of ``cols``, one column at a time in order.

    A NaN term (a missing value, or inf - inf) counts 1.0.  With
    ``write_first`` the first column's terms are written, not added:
    0.0 + term is term.
    """
    for i, col in enumerate(cols):
        term = total if write_first and i == 0 else terms[: total.shape[0]]
        np.subtract(q_num[:, col, None], reference.columns[col], out=term)
        np.multiply(term, term, out=term)
        if nan_cols[col]:
            term[np.isnan(term)] = 1.0
        if term is not total:
            total += term


def _mismatches(q_nom: np.ndarray, reference: Reference, buffers: _Buffers) -> np.ndarray:
    """Nominal mismatch counts of ``q_nom``'s rows against every reference row (float32, exact).

    matches = q_hot @ r_hot.T counts equal, present codes; every partial sum
    is a small integer, so float32 counts them exactly in any order.
    """
    rows = q_nom.shape[0]
    q_hot, count = buffers.q_hot[:rows], buffers.count[:rows]
    _one_hot(q_nom, reference.offsets, reference.widths, q_hot)
    np.matmul(q_hot, reference.one_hot.T, out=count)
    np.subtract(q_nom.shape[1], count, out=count)
    return count


def _add_ones(total: np.ndarray, count: np.ndarray) -> None:
    """One +1.0 per mismatching column, as a per-column sum adds them.

    The +0.0 of a matching column never changes a total >= 0.
    """
    for i in range(1, int(count.max(initial=0)) + 1):
        np.add(total, 1.0, out=total, where=count >= i)


def _exact_totals(
    q_num: np.ndarray,
    q_nom: np.ndarray,
    reference: Reference,
    nan_cols: np.ndarray,
    buffers: _Buffers,
) -> np.ndarray:
    """Squared distances of the given query rows to every reference row, written in place.

    Numeric terms are summed column by column in attribute order, then the
    nominal mismatch count is added, so every cell is bit-identical to a
    per-column sum of the HEOM terms.
    """
    n_numeric, n_nominal = q_num.shape[1], q_nom.shape[1]
    total = buffers.total[: q_num.shape[0]]
    _add_terms(total, q_num, reference, range(n_numeric), nan_cols, buffers.terms, write_first=True)
    if n_nominal:
        count = _mismatches(q_nom, reference, buffers)
        if not n_numeric:
            total[...] = count  # integer sums from 0.0: exact whatever the order
        else:
            _add_ones(total, count)
    return total


def _non_finite_columns(q_num: np.ndarray, reference: Reference) -> np.ndarray:
    """Numeric columns where a term can be NaN: a NaN (missing) or an infinity on either side."""
    return ~(np.isfinite(q_num).all(axis=0) & reference.finite)


def _block_rows(reference: Reference) -> int:
    return max(1, _BLOCK_CELLS // reference.n)


def _distance_blocks(
    query: tuple[np.ndarray, np.ndarray], reference: Reference
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, block)``: distances from query rows ``start:start + len(block)``
    to every reference row, about ``_BLOCK_CELLS`` cells per block.

    Each block is written in place into buffers that the next block reuses.
    """
    q_num, q_nom = query
    rows = _block_rows(reference)
    buffers = _Buffers(min(rows, q_num.shape[0]), reference)
    nan_cols = _non_finite_columns(q_num, reference)
    for start in range(0, q_num.shape[0], rows):
        stop = start + rows
        total = _exact_totals(q_num[start:stop], q_nom[start:stop], reference, nan_cols, buffers)
        np.sqrt(total, out=total)
        yield start, total


def _pair_distances(
    q_num: np.ndarray, q_nom: np.ndarray, rows: np.ndarray, reference: Reference, cols: np.ndarray
) -> np.ndarray:
    """Exact cells ``(rows[i], cols[i])``: the operations of :func:`_exact_totals`, in its order."""
    terms = q_num[rows] - reference.columns[:, cols].T
    np.multiply(terms, terms, out=terms)
    terms[np.isnan(terms)] = 1.0  # NaN only arises in the non-finite columns
    # accumulate adds the columns strictly left to right, as the block does
    total = np.add.accumulate(terms, axis=1)[:, -1].copy()
    if q_nom.shape[1]:
        q_codes, r_codes = q_nom[rows], reference.nominal[cols]
        differ = (q_codes != r_codes) | (q_codes < 0) | (r_codes < 0)
        _add_ones(total, differ.sum(axis=1))
    return np.sqrt(total, out=total)


def _rounding_factor(reference: Reference) -> float:
    """gamma_{D+3} = (D+3)u / (1 - (D+3)u) for D summed terms per cell (Higham, section 3.1)."""
    n = reference.columns.shape[0] + reference.nominal.shape[1] + 3
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _estimate(
    q_num: np.ndarray,
    q_nom: np.ndarray,
    reference: Reference,
    gram: tuple[np.ndarray, np.ndarray, float],
    nan_cols: np.ndarray,
    buffers: _Buffers,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated squared distances of a block of query rows, and each row's error bound.

    The estimate, written in place, is ``|q|^2 + |r|^2 - 2 q.r`` over the
    finite columns (``gram``), plus the exact terms of the non-finite columns
    and the exact nominal count.  For a cell whose exact squared total is X,
    the estimate errs by at most ``bound + 4 * gamma * X`` with
    ``bound = 2 * gamma * (|q| + max |r|)^2``: the norms, the dot product and
    both sums each err by at most gamma relative to the magnitudes they add,
    in any order (Higham, section 3.1), plus ``_UNDERFLOW_SLACK`` for
    operations that underflow.  A row whose norms could overflow gets an
    infinite bound and must not use its estimates.
    """
    r_cols, r_norms, r_max = gram
    gamma = _rounding_factor(reference)
    q = q_num[:, ~nan_cols]
    est = buffers.total[: q_num.shape[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        q_norms = np.einsum("ij,ij->i", q, q)
        reach = (np.sqrt(q_norms) + r_max) ** 2
        # no term of an estimate exceeds reach, so 2 * reach finite means no overflow
        bound = np.where(np.isfinite(2.0 * reach), 2.0 * gamma * reach + _UNDERFLOW_SLACK, np.inf)
        # scaling by -2 is exact, so the product is -2 q.r
        q *= -2.0
        np.matmul(q, r_cols, out=est)
        est += q_norms[:, None]
        est += r_norms
        exact_cols = np.flatnonzero(nan_cols)
        _add_terms(est, q_num, reference, exact_cols, nan_cols, buffers.terms, write_first=False)
    if q_nom.shape[1]:
        est += _mismatches(q_nom, reference, buffers)
    return est, bound


def _shortlist_heads(
    query: tuple[np.ndarray, np.ndarray], reference: Reference, m: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, head)``: the ``m`` nearest reference rows of query rows
    ``start:start + len(head)``, from estimates confirmed by exact cells.

    Let c be the largest exact distance among a row's m best estimates.  A
    cell at distance <= c has an exact squared total X <= c^2 (1 + 2u),
    since ``sqrt`` rounds correctly, so by :func:`_estimate`'s bound its
    estimate is at most ``c^2 (1 + 6 gamma) + bound``.  Every such cell is
    kept, and the row's m nearest are among them.
    """
    q_num, q_nom = query
    nan_cols = _non_finite_columns(q_num, reference)
    gram = reference.gram(~nan_cols)
    slack = 1.0 + 6.0 * _rounding_factor(reference)
    rows = max(_block_rows(reference), _MIN_ESTIMATE_ROWS)
    buffers = _Buffers(min(rows, q_num.shape[0]), reference)
    picks = np.arange(m)
    for start in range(0, q_num.shape[0], rows):
        stop = min(start + rows, q_num.shape[0])
        head = np.empty((stop - start, m), dtype=np.intp)
        block = q_num[start:stop], q_nom[start:stop]
        est, bound = _estimate(*block, reference, gram, nan_cols, buffers)
        sure = np.flatnonzero(np.isfinite(bound))
        exact = np.flatnonzero(~np.isfinite(bound))
        if sure.size:
            if exact.size:
                est = est[sure]
            at = start + sure
            best = np.argpartition(est, m - 1, axis=1)[:, :m]
            cutoff = _pair_distances(q_num, q_nom, np.repeat(at, m), reference, best.ravel())
            cutoff = cutoff.reshape(-1, m).max(axis=1)
            with np.errstate(over="ignore"):
                limit = cutoff * cutoff * slack + bound[sure]
            kept = np.flatnonzero(est <= limit[:, None])
            if kept.size > _MAX_SHORTLIST_SHARE * est.size:
                exact = np.arange(stop - start)
            else:
                # flat indices ascend, so each row's columns come in ascending order
                r, c = np.divmod(kept, reference.n)
                dist = _pair_distances(q_num, q_nom, at[r], reference, c)
                # lexsort is stable, so equal distances keep the ascending columns
                order = np.lexsort((dist, r))
                first = np.searchsorted(r, np.arange(sure.size))
                head[sure] = c[order[first[:, None] + picks]]
        if exact.size:
            at = start + exact
            total = _exact_totals(q_num[at], q_nom[at], reference, nan_cols, buffers)
            head[exact] = _nearest(np.sqrt(total, out=total), m)
        yield start, head


def _nearest(block: np.ndarray, m: int) -> np.ndarray:
    """Column indices of the ``m`` smallest cells of each row: nearest first,
    ties to the lower column, as the first ``m`` of a stable ``argsort``."""
    if m < block.shape[1]:
        # shortlist: every cell no farther than the row's m-th smallest distance
        kth = np.partition(block, m - 1, axis=1)[:, m - 1, None]
        shortlist = block <= kth
        if np.count_nonzero(shortlist) <= _MAX_SHORTLIST_SHARE * block.size:
            # flat indices ascend, so each row's columns come in ascending order
            rows, cols = np.divmod(np.flatnonzero(shortlist), block.shape[1])
            # lexsort is stable, so equal distances keep the ascending columns
            order = np.lexsort((block[shortlist], rows))
            first = np.searchsorted(rows, np.arange(block.shape[0]))
            return cols[order[first[:, None] + np.arange(m)]]
    return np.argsort(block, axis=1, kind="stable")[:, :m]


def neighbors(
    query: tuple[np.ndarray, np.ndarray],
    reference: Reference,
    k: int,
    exclude: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the ``k`` reference rows nearest to each query row.

    ``query`` is a ``(numeric, nominal)`` pair from :meth:`FeatureSpace.encode`
    and ``reference`` a :func:`prepare_reference` of another such pair.  Rows
    come out nearest first, ties broken toward the lower reference index.
    ``exclude``, when given, holds one reference index per query row that the
    row never picks (``np.arange(n)`` when the query is the reference itself).
    Distances are built for one block of query rows at a time, so memory
    stays O(block * n_ref) beside the prepared reference.
    """
    n_query, n_ref = query[0].shape[0], reference.n
    skip = exclude is not None
    if not 0 < k <= n_ref - skip:
        raise ValueError(f"cannot pick {k} neighbors from {n_ref} reference rows")
    if skip and np.shape(exclude) != (n_query,):
        raise ValueError(f"need one excluded index per query row, got shape {np.shape(exclude)}")
    m = k + skip
    if m < n_ref and not _non_finite_columns(query[0], reference).all():
        heads = _shortlist_heads(query, reference, m)
    else:
        # no finite numeric column to estimate from, or every cell is needed
        heads = ((start, _nearest(block, m)) for start, block in _distance_blocks(query, reference))
    out = np.empty((n_query, k), dtype=np.intp)
    for start, head in heads:
        stop = start + head.shape[0]
        if not skip:
            out[start:stop] = head
            continue
        keep = head != exclude[start:stop, None]
        # a row whose excluded index fell outside the first k + 1 drops its last pick
        keep[keep.all(axis=1), k] = False
        out[start:stop] = head[keep].reshape(stop - start, k)
    return out
