"""Feature-space distance and the one k-nearest-neighbor query.

Numeric attributes are min-max scaled to the reference dataset's observed
range (computed from halved values where the range itself overflows a
float) and compared by squared difference; nominal attributes contribute 0
when equal and 1 otherwise; a missing value is maximally distant (term 1)
from everything, including another missing value.  The distance is the
Euclidean norm over the per-attribute terms.

:class:`FeatureSpace` scales a dataset's numeric matrix, :func:`prepare_reference`
prepares encoded rows once for any number of queries, and :func:`neighbors`
answers "which k reference rows are nearest?" for MLeNN, MLSMOTE and ML-kNN
alike, nearest first with ties to the lower index.  It never holds the full
distance matrix: one loop walks the query a block of rows at a time.

Every distance that decides a neighbour is an *exact cell*: numeric terms
summed column by column in attribute order (a NaN term counts 1.0), then one
``+1.0`` per mismatching nominal column, then ``sqrt``.  In an exact
block the nominal mismatch count of all columns comes from one float32
matrix product of code indicators (``n_nominal - q_hot @ r_hot.T``), which
is exact because it only adds small integers; the estimate takes the same
indicators in float64.  A column whose reference codes all lie in {0, 1}, such
as a binary word, has one indicator: x = (code == 1) on the reference side
and v = 2x - present on the query side (present: the code is 0 or 1).  A
query code equals a reference code in present_q - x_q + v * x_r of them, and
the first two terms, summed over such columns, are one more indicator
against a constant 1.  Every other column has one indicator per code.

With numeric columns, a block is first estimated by one matrix product
(:func:`_estimate`): the Gram form ``|q|^2 + |r|^2 - 2 q.r`` over the columns
that hold only finite values and the nominal mismatch count come out of the
same product, and the exact terms of the other columns are added to it.  The
reference columns fall into strided groups, and each row's m-th smallest
group minimum (m = k, plus one when the row excludes an index) bounds the
row's answer: at least m cells lie within it.  Every cell whose estimate
could still be within it is kept, by a rigorous error bound (Higham,
*Accuracy and Stability of Numerical Algorithms*, section 3.1), and only the
kept cells are computed exactly and sorted.  The estimate only filters
cells, so the order of a BLAS product, its threads and fused multiply-adds
never change a neighbour list.  A row whose norms could overflow, and a
block whose kept cells are more than ``_MAX_SHORTLIST_SHARE`` of it, take
the exact block instead.  So does every row of a query when no numeric
column is finite on both sides (with no numeric column at all the nominal
count is exact already) or when a row needs every reference row; such a
query is never estimated.  Either way a block holds ``_BLOCK_CELLS //
n_ref`` query rows, and at least ``_MIN_BLOCK_ROWS``.  The exact block picks
from a shortlist: the cells no farther than each row's m-th smallest
distance, found with ``np.partition`` and ordered by distance, then index.
When ties make that shortlist more than half of a block, a stable
``argsort`` of the whole block picks them instead.  No option changes any of
this.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dataset import MultiLabelDataset

# Distance cells per query block, down to _MIN_BLOCK_ROWS rows.  Up to about
# 1000 reference rows it bounds the block's distance, temporary and sort
# arrays; at 256 KB per array they stay in cache, which measured faster than
# 2 MB blocks on 2000-8000 rows.  Beyond that the row floor sets the block:
# 32 * n_ref cells, about 11 MB per float64 array at 43,907 reference rows.
_BLOCK_CELLS = 1 << 15

# Above this share of a block's cells the shortlist is slower than a stable
# argsort of the block, which takes runs of equal distances in linear time.
# Measured on 500, 2000 and 6000 rows (k + 1 = 4) holding one repeated row
# and random others: the two cost the same when 40-60% of the cells tie
# with their row's m-th distance, and at 100% the argsort is 7x faster.
# The estimated path reuses it to choose between re-ranking a block's kept
# cells pair by pair and building the exact block.  Measured the same way
# (self-query, k = 3, BLAS on one thread, the kept share set by the share of
# repeated rows), those two cost the same at 35-53% kept cells with 10
# numeric columns but at 30-35% with 50, since the re-rank gathers every
# column of every kept cell: there, 6000 rows keeping 49% of their cells
# re-ranked in 5.6 s against 3.0 s for the exact blocks.
_MAX_SHORTLIST_SHARE = 0.5

# Query rows per block, at least.  With fewer, the per-block numpy calls
# outweigh the matrix products once the reference has thousands of rows, and
# each product streams the whole reference for a few rows.  Estimated: on 8000
# rows x 50 columns (k = 3) a self-query took 1.30 s at _BLOCK_CELLS alone (4
# rows per block) against 0.71 s at 32 rows, and 64 or 128 rows gave no more
# than 3% over 32.  Exact: on 6000 binary rows x 500 columns (k = 10,
# exclude, BLAS on one thread) a self-query took 3.2-3.5 s at 5 rows per
# block and 0.84-0.90 s at 32.  128 rows took 0.59-0.63 s, for four times
# the block memory.
_MIN_BLOCK_ROWS = 32

_UNIT_ROUNDOFF = 2.0**-53
# An operation that underflows errs by at most 2**-1075 beyond its relative
# error; this absolute slack covers all of an estimate's and a cell's
# operations for any column count below 2**70.
_UNDERFLOW_SLACK = 2.0**-1000


class FeatureSpace:
    """Precomputed scaling for one attribute schema, anchored to a reference dataset.

    ``encoded`` is the reference's own :meth:`encode` pair.
    """

    def __init__(self, reference: MultiLabelDataset):
        self.attributes = reference.attributes
        # a value v encodes as (v * scale - min) / span
        numeric = reference.numeric
        present = ~np.isnan(numeric).all(axis=0)
        lo = np.where(present, np.fmin.reduce(numeric, axis=0, initial=np.inf), 0.0)
        hi = np.where(present, np.fmax.reduce(numeric, axis=0, initial=-np.inf), 0.0)
        with np.errstate(over="ignore"):
            # the span overflows a float; half of it never does
            halved = hi - lo == math.inf
        scales = np.where(halved, 0.5, 1.0)
        lo, hi = lo * scales, hi * scales
        self._scales = scales
        self._mins = lo
        self._spans = np.where(hi > lo, hi - lo, 1.0)
        self.encoded = self.encode(reference)

    def encode(self, d: MultiLabelDataset) -> tuple[np.ndarray, np.ndarray]:
        """Scaled numeric matrix (NaN = missing) and nominal code matrix (-1 = missing) of ``d``.

        The numeric matrix is column-major, so :func:`prepare_reference` keeps
        its transpose without a copy; the code matrix is ``d.nominal`` itself.
        """
        numeric = np.empty(d.numeric.shape[::-1]).T
        np.multiply(d.numeric, self._scales, out=numeric)
        numeric -= self._mins
        numeric /= self._spans
        return numeric, d.nominal


@dataclass(frozen=True, eq=False)
class Reference:
    """Encoded reference rows, prepared once by :func:`prepare_reference`.

    ``columns`` is the transpose of the :meth:`FeatureSpace.encode` pair's
    numeric matrix, C-contiguous, and ``nominal`` its code matrix.
    ``one_hot`` holds the rows' nominal indicators (see :func:`_one_hot`): a
    constant 1, then one indicator (code == 1) per column of ``two_valued``,
    the nominal columns whose codes all lie in {0, 1}, then for every other
    column ``c`` one indicator per code, ``offsets[c]:offsets[c] +
    widths[c]`` (width = the column's largest code + 1, and 0 for a
    two-valued column).  ``finite`` marks the numeric columns without a NaN
    or infinity.  ``fused`` is the reference side of :func:`_estimate` over
    them (see :func:`_fused`), None when no numeric column is finite, and
    ``max_norm`` the largest norm in it.  When every numeric column is
    finite, ``columns`` is a view of ``fused``'s first rows, so the numeric
    matrix is held once; otherwise it is a view of the encoded matrix.
    """

    columns: np.ndarray
    nominal: np.ndarray
    two_valued: np.ndarray
    widths: np.ndarray
    offsets: np.ndarray
    one_hot: np.ndarray
    finite: np.ndarray
    fused: np.ndarray | None
    max_norm: float

    @property
    def n(self) -> int:
        return self.columns.shape[1]


def _fused(rows: np.ndarray, one_hot: np.ndarray) -> tuple[np.ndarray, float]:
    """The reference side of the fused estimate, and the largest norm in it.

    One C-contiguous float64 matrix: the numeric ``rows`` (one per column),
    a row of ones, the squared norms over ``rows``, ``one_hot`` transposed
    and another row of ones.
    """
    f = rows.shape[0]
    fused = np.empty((f + 3 + one_hot.shape[1], rows.shape[1]))
    fused[:f] = rows
    fused[f] = 1.0
    with np.errstate(over="ignore"):
        np.einsum("ij,ij->j", fused[:f], fused[:f], out=fused[f + 1])
    fused[f + 2 : -1] = one_hot.T
    fused[-1] = 1.0
    return fused, math.sqrt(fused[f + 1].max(initial=0.0))


def prepare_reference(encoded: tuple[np.ndarray, np.ndarray]) -> Reference:
    """Everything :func:`neighbors` needs of the reference rows, built once.

    Besides the encoded pair it holds the nominal indicators (n_ref * 4
    bytes per two-valued column, and per code of every other column) and,
    when some numeric column is finite, the fused matrix of
    :func:`_fused` (n_ref * 8 bytes per finite numeric column and per
    indicator, plus three rows).  The fused matrix takes a copy of the
    finite numeric columns; when they are all the columns, ``columns`` is a
    view of that copy, and otherwise a view of the encoded column-major
    numeric matrix (a copy of any other layout).
    """
    numeric, nominal = encoded
    n_ref, n_nominal = nominal.shape
    highest = nominal.max(axis=0, initial=-1)
    two_valued = np.flatnonzero((highest <= 1) & (nominal.min(axis=0, initial=0) >= 0))
    widths = np.maximum(highest + 1, 0)
    widths[two_valued] = 0
    offsets = 1 + two_valued.size + np.cumsum(widths) - widths
    one_hot = np.empty((n_ref, 1 + two_valued.size + int(widths.sum())), dtype=np.float32)
    # in chunks, so the index temporaries stay about _BLOCK_CELLS long
    chunk = max(1, _BLOCK_CELLS // max(n_nominal, 1))
    layout = two_valued, offsets, widths
    for at in range(0, n_ref, chunk):
        _one_hot(nominal[at : at + chunk], *layout, one_hot[at : at + chunk], query=False)
    finite = np.isfinite(numeric).all(axis=0)
    fused, max_norm = None, 0.0
    if finite.all() and finite.size:
        fused, max_norm = _fused(numeric.T, one_hot)
        columns = fused[: finite.size]
    else:
        columns = np.ascontiguousarray(numeric.T)
        if finite.any():
            fused, max_norm = _fused(columns[finite], one_hot)
    return Reference(
        columns=columns,
        nominal=nominal,
        two_valued=two_valued,
        widths=widths,
        offsets=offsets,
        one_hot=one_hot,
        finite=finite,
        fused=fused,
        max_norm=max_norm,
    )


def _one_hot(
    codes: np.ndarray,
    two_valued: np.ndarray,
    offsets: np.ndarray,
    widths: np.ndarray,
    out: np.ndarray,
    query: bool,
) -> None:
    """Write into ``out`` the nominal indicators of each row of ``codes``, on
    the reference side or the ``query`` side, so that ``q_hot @ r_hot.T``
    counts each pair's equal, present codes.

    - Indicator 0 is 1 on the reference side and, on the query side, the
      row's count of code 0 in the ``two_valued`` columns.
    - Indicator ``1 + i`` belongs to column ``two_valued[i]``: x = (code == 1)
      on the reference side, and v = 2x - present on the query side, that is
      +1 for code 1, -1 for code 0 and 0 for a missing code or one of 2 or
      more.  With indicator 0 such a column adds (code_q == 0) + v * x_r,
      which is 1 exactly when both codes are 0 or both are 1.
    - Every other column ``c`` owns indicators ``offsets[c]:offsets[c] +
      widths[c]``, one per code.  A missing code (-1), or one at or past the
      column's width, sets none, so it matches nothing.
    """
    out.fill(0.0)
    valid = (codes >= 0) & (codes < widths)
    out[np.nonzero(valid)[0], (codes + offsets)[valid]] = 1.0
    held = codes[:, two_valued]
    signs = out[:, 1 : 1 + two_valued.size]
    signs[...] = held == 1
    if query:
        zeros = held == 0
        signs -= zeros
        out[:, 0] = np.count_nonzero(zeros, axis=1)
    else:
        out[:, 0] = 1.0


class _Buffers:
    """Block-sized arrays that every block of one query reuses."""

    def __init__(self, rows: int, reference: Reference):
        n_numeric, n_nominal = reference.columns.shape[0], reference.nominal.shape[1]
        self.total = np.zeros((rows, reference.n))
        self.terms = np.empty_like(self.total) if n_numeric else None
        if reference.fused is not None:
            # the query side of the fused estimate, K columns wide at most
            self.fused = np.empty((rows, reference.fused.shape[0]))
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
    is an integer of magnitude at most twice the column count, so float32
    counts them exactly in any order.
    """
    rows = q_nom.shape[0]
    q_hot, count = buffers.q_hot[:rows], buffers.count[:rows]
    layout = reference.two_valued, reference.offsets, reference.widths
    _one_hot(q_nom, *layout, q_hot, query=True)
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


def _rounding_factor(reference: Reference, fused: np.ndarray) -> float:
    """gamma_n = nu / (1 - nu) (Higham, section 3.1) for n = K + D + 3: the
    ``fused`` matrix's K rows and the D summed terms of a cell."""
    n = fused.shape[0] + reference.columns.shape[0] + reference.nominal.shape[1] + 3
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _fused_for(reference: Reference, mask: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`_fused` over the numeric columns in ``mask``, all of them finite: the
    prepared one when ``mask`` is every finite column, else built anew."""
    if np.array_equal(mask, reference.finite):
        return reference.fused, reference.max_norm
    return _fused(reference.columns[mask], reference.one_hot)


def _estimate(
    q_num: np.ndarray,
    q_nom: np.ndarray,
    reference: Reference,
    fused: tuple[np.ndarray, float],
    nan_cols: np.ndarray,
    buffers: _Buffers,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated squared distances of a block of query rows, and each row's error bound.

    ``fused`` is :func:`_fused_for` over the columns outside ``nan_cols``:
    R, with rows r (f finite columns), 1, |r|^2, the reference indicators
    and 1, and the largest |r|.  The block fills Q with -2q, |q|^2, 1, minus
    the query indicators and the nominal column count, so that one product
    ``Q @ R`` gives ``|q|^2 + |r|^2 - 2 q.r + (n_nominal - matches)``.  The
    exact terms of the ``nan_cols`` are then added one column at a time.

    Error bound.  Let X be the kernel's own squared total of a cell
    (:func:`_exact_totals`) and V the real sum of its terms, taking the terms
    of the ``nan_cols`` as computed.  X adds D = n_numeric + n_nominal terms
    of at most two roundings each in at most D - 1 additions, so |X - V| <=
    gamma_{D+1} V.  The stored norms |q|^2 and |r|^2 err by at most gamma_f
    relative.  The product sums its K = f + 3 + width terms in any order, so
    it errs by at most gamma_K times the sum of their magnitudes (Higham,
    section 3.1).  That sum is at most (1 + gamma_f)(|q| + |r|)^2 for the
    numeric part, since |q.r| <= |q||r|, plus 3 n_nominal for the nominal
    part: indicator 0 pairs a count of code 0 (at most one per two-valued
    column) with 1, every other pair of indicators multiplies to -1, 0 or 1
    with at most one nonzero pair per column, and the last pair is n_nominal
    times 1.  Adding the g exact terms errs by gamma_g relative.  With gamma
    = :func:`_rounding_factor` >= gamma_{K+D} these give |E - X| <= gamma
    ((|q| + max |r|)^2 + 3 n_nominal) + 4 gamma X.  The returned ``bound`` is
    twice that first term, which covers the rounding of the computed norms it
    is made of, plus ``_UNDERFLOW_SLACK`` for operations that underflow.  No
    magnitude in the product exceeds half of ``bound / gamma``, so where that
    is finite nothing overflows; a row where it is not gets an infinite bound
    and must not use its estimates.
    """
    r_fused, r_max = fused
    rows, n_nominal = q_num.shape[0], q_nom.shape[1]
    f = r_fused.shape[0] - reference.one_hot.shape[1] - 3
    gamma = _rounding_factor(reference, r_fused)
    q = buffers.fused[:rows, : r_fused.shape[0]]
    est = buffers.total[:rows]
    with np.errstate(over="ignore", invalid="ignore"):
        np.compress(~nan_cols, q_num, axis=1, out=q[:, :f])
        q_norms = q[:, f]
        np.einsum("ij,ij->i", q[:, :f], q[:, :f], out=q_norms)
        reach = (np.sqrt(q_norms) + r_max) ** 2 + 3.0 * n_nominal
        bound = np.where(np.isfinite(2.0 * reach), 2.0 * gamma * reach + _UNDERFLOW_SLACK, np.inf)
        # scaling by -2 is exact
        q[:, :f] *= -2.0
        q[:, f + 1] = 1.0
        hot = q[:, f + 2 : -1]
        _one_hot(q_nom, reference.two_valued, reference.offsets, reference.widths, hot, query=True)
        # not np.negative, which in numpy 2.4.6 negates a view whose rows lie
        # 64 bytes apart in place from the wrong elements
        hot *= -1.0
        q[:, -1] = n_nominal
        np.matmul(q, r_fused, out=est)
        exact_cols = np.flatnonzero(nan_cols)
        _add_terms(est, q_num, reference, exact_cols, nan_cols, buffers.terms, write_first=False)
    return est, bound


def _groups(m: int, n_ref: int) -> int:
    """Strided groups of reference columns whose minima give an estimated block's
    cutoff: 16 per neighbour, or one per column when the reference has fewer
    than twice as many columns.

    The m-th smallest of G group minima is on average about the (m + m^2 /
    2G)-th smallest estimate.  Measured with BLAS on one thread on a 1,747-row
    query against 2,000 rows (m = 4) and a 10,000-row self-query (m = 11, 121
    columns), 4 to 32 groups per neighbour took the same time within the
    runs' spread; on the self-query rows kept 1.13 m cells at 4 groups per
    neighbour, 1.03 m at 16 and 1.01 m at 32.
    """
    groups = 16 * m
    return n_ref if n_ref < 2 * groups else groups


def _shortlist_heads(
    query: tuple[np.ndarray, np.ndarray], reference: Reference, m: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, head)``: the ``m`` nearest reference rows of query rows
    ``start:start + len(head)``, one block of rows at a time.

    When some numeric column is finite on both sides and a row needs fewer
    cells than the reference holds, each block is estimated first.  The
    reference columns fall into G >= m strided groups (``_groups``), column
    j into group j mod G, and the columns past the last whole slice of G
    join the first groups.  Let t be a row's m-th smallest group minimum of
    the estimates: m cells, one per group, have E <= t, so by
    :func:`_estimate`'s bound their totals are X <= C^2 = (t + b)/(1 - 4
    gamma).  ``sqrt`` rounds correctly, so the row's m-th smallest distance
    is at most C (1 + u), and a cell no farther has X <= C^2 (1 + 5u) and an
    estimate of at most C^2 (1 + 5u)(1 + 4 gamma) + b.  The block keeps every
    cell within ``(t + b)(1 + 8 gamma)/(1 - 4 gamma) + 2b``, which exceeds
    that despite the rounding of its own operations (gamma >= 8u), computes
    only those cells exactly and sorts them; the row's m nearest are among
    them.  Every other row takes the exact block, written in place into
    buffers that the next block reuses.
    """
    q_num, q_nom = query
    nan_cols = _non_finite_columns(q_num, reference)
    estimated = m < reference.n and not nan_cols.all()
    rows = max(_MIN_BLOCK_ROWS, _BLOCK_CELLS // reference.n)
    if estimated:
        fused = _fused_for(reference, ~nan_cols)
        gamma = _rounding_factor(reference, fused[0])
        grow = (1.0 + 8.0 * gamma) / (1.0 - 4.0 * gamma)
        groups = _groups(m, reference.n)
        whole = reference.n - reference.n % groups
    buffers = _Buffers(min(rows, q_num.shape[0]), reference)
    picks = np.arange(m)
    for start in range(0, q_num.shape[0], rows):
        stop = min(start + rows, q_num.shape[0])
        head = np.empty((stop - start, m), dtype=np.intp)
        # rows re-ranked from their estimates, and rows that take the exact block
        sure, exact = np.arange(0), np.arange(stop - start)
        if estimated:
            block = q_num[start:stop], q_nom[start:stop]
            est, bound = _estimate(*block, reference, fused, nan_cols, buffers)
            sure = np.flatnonzero(np.isfinite(bound))
            exact = np.flatnonzero(~np.isfinite(bound))
        if sure.size:
            if exact.size:
                est, bound = est[sure], bound[sure]
            at = start + sure
            # each row's smallest estimate per group, one slice of G columns at
            # a time; the columns past the last whole slice join the first groups
            mins = np.minimum.reduce(est[:, :whole].reshape(sure.size, -1, groups), axis=1)
            rest = est[:, whole:]
            np.minimum(mins[:, : rest.shape[1]], rest, out=mins[:, : rest.shape[1]])
            t = np.partition(mins, m - 1, axis=1)[:, m - 1]
            with np.errstate(over="ignore"):
                limit = (t + bound) * grow + 2.0 * bound
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
    One loop builds distances for one block of query rows at a time, so
    memory stays O(block * n_ref) beside the prepared reference; each row
    is re-ranked from its estimates or takes the exact block (see the
    module docstring).
    """
    n_query, n_ref = query[0].shape[0], reference.n
    skip = exclude is not None
    if not 0 < k <= n_ref - skip:
        raise ValueError(f"cannot pick {k} neighbors from {n_ref} reference rows")
    if skip and np.shape(exclude) != (n_query,):
        raise ValueError(f"need one excluded index per query row, got shape {np.shape(exclude)}")
    out = np.empty((n_query, k), dtype=np.intp)
    for start, head in _shortlist_heads(query, reference, k + skip):
        stop = start + head.shape[0]
        if not skip:
            out[start:stop] = head
            continue
        keep = head != exclude[start:stop, None]
        # a row whose excluded index fell outside the first k + 1 drops its last pick
        keep[keep.all(axis=1), k] = False
        out[start:stop] = head[keep].reshape(stop - start, k)
    return out
