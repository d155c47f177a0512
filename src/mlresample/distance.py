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
alike, nearest first with ties to the lower index.  Its query names reference
rows by index, each of which skips itself (MLeNN's candidates, an MLSMOTE
bag, ML-kNN's training set), or is a foreign encoded pair (ML-kNN's test
set); this module alone reads the prepared rows.  It never holds the full
distance matrix: one loop walks the query a block of rows at a time.

Every distance that decides a neighbour is an *exact cell*: numeric terms
summed column by column in attribute order (a NaN term counts 1.0), then one
``+1.0`` per mismatching nominal column, then ``sqrt``.  In an exact
block the nominal mismatch count of all columns comes from one matrix
product of code indicators (``n_nominal - q_hot @ r_hot.T``), which is
exact because it only adds small integers.  The reference indicators are
held once, in float32: as rows of the estimate's fused matrix when it
exists, which the exact block and the estimate both multiply, and otherwise
as a matrix of their own.  A column whose reference codes all lie in {0,
1}, such as a binary word, has one indicator: x = (code == 1) on the
reference side and v = 2x - present on the query side (present: the code is
0 or 1).  A query code equals a reference code in present_q - x_q + v * x_r
of them, and the first two terms, summed over such columns, are one more
indicator against a constant 1.  Every other column has one indicator per
code.

With numeric columns, a block is first estimated by one float32 matrix
product (:func:`_estimate`): the Gram form ``|q|^2 + |r|^2 - 2 q.r``, the
terms of the columns that hold a missing value and the nominal mismatch
count come out of the same product.  The reference columns fall into
strided groups, and each row's m-th smallest group minimum (m = k, plus one
when the row skips itself) bounds the row's answer: at least m cells lie
within it.  Every cell whose estimate could still be within it is kept, by
a rigorous error bound (Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.1), and only the kept cells are computed exactly and
sorted.  The estimate only filters cells, so the order of a BLAS product,
its threads and fused multiply-adds never change a neighbour list.  A row
whose product could pass float32's range (an infinity among them), and rows
whose kept cells are more than ``_MAX_SHORTLIST_SHARE`` of theirs, take the
exact block instead.  So does every row of a query that needs every
reference row; with no numeric column the nominal count is exact already.
A block holds ``_BLOCK_BYTES`` per array of its cells, and at least
``_MIN_BLOCK_ROWS`` rows when it is one float32 product, estimated or
all-nominal; its float64 cells are taken ``_BLOCK_BYTES`` per array at a
time (:func:`_block_rows`).  A query with nominal columns and no numeric
one ranks its exact block on the float32 mismatch counts themselves: they
are exact small integers and ``sqrt`` is strictly monotone on them, so they
order and tie as the distances do.  The exact block picks from a
shortlist: the cells no farther than each row's m-th smallest distance,
found with ``np.partition`` and ordered by distance, then index.  When ties
make that shortlist more than half of a block, a stable ``argsort`` of the
whole block picks them instead.  No option changes any of this.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import MultiLabelDataset

# Bytes per block array (_block_rows): 4 per cell of float32 estimates or
# counts, 8 of float64 totals.  Float64 cells summed column by column slow
# once they leave the cache: the exact blocks of a 4000-row self-query of 20
# columns (k = 10, BLAS on one thread) took 0.59 s at 32 rows (256 KB) and
# 0.78 s at 128.
_BLOCK_BYTES = 1 << 18

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

# Query rows per block, at least, when a block is one float32 product that
# streams the whole reference matrix (an estimated or all-nominal query):
# more rows read it fewer times, and spread each block's 25 or so numpy
# calls.  A 10,000-row self-query of 120 columns (k = 10, BLAS on one
# thread) took 0.58 s at 32 rows and 0.45 s at 128.  The float32 estimate
# and its kept-cell mask hold 5 bytes per cell: 25 MB at 39,516 rows.
_MIN_BLOCK_ROWS = 128

# The estimate's product is in float32 (see _estimate).  A float32 operation
# or conversion that underflows errs by at most 2**-150 beyond its relative
# error; this absolute slack covers all of an estimate's for fewer than 2**48
# columns and indicators.
_UNIT_ROUNDOFF = 2.0**-24
_UNDERFLOW_SLACK = 2.0**-100
_FLOAT32_MAX = float(np.finfo(np.float32).max)


class FeatureSpace:
    """Precomputed scaling for one attribute schema, anchored to a reference
    dataset; it holds no encoded rows, which :meth:`encode` returns."""

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
    ``one_hot`` holds the rows' nominal indicators, one row per reference
    row (see :func:`_one_hot`): a constant 1, then one indicator (code == 1)
    per column of ``two_valued``, the nominal columns whose codes all lie in
    {0, 1}, then for every other column ``c`` one indicator per code,
    ``offsets[c]:offsets[c] + widths[c]`` (width = the column's largest code
    + 1, and 0 for a two-valued column).  ``gappy`` marks the numeric
    columns that hold a NaN.  ``fused`` is the float32 reference side of
    :func:`_estimate` (see :func:`_fused`), None without numeric columns,
    and ``max_norm`` the largest norm in it.  The indicators are held once,
    in float32: ``one_hot`` is the transpose of ``fused``'s indicator rows
    when ``fused`` exists, and a matrix of its own otherwise.
    """

    columns: np.ndarray
    nominal: np.ndarray
    two_valued: np.ndarray
    widths: np.ndarray
    offsets: np.ndarray
    one_hot: np.ndarray
    gappy: np.ndarray
    fused: np.ndarray | None
    max_norm: float

    @property
    def n(self) -> int:
        return self.columns.shape[1]


def _fused(rows: np.ndarray, gappy: np.ndarray, width: int) -> tuple[np.ndarray, float]:
    """The reference side of the fused estimate, and the largest norm in it.

    One C-contiguous float32 matrix: the float64 numeric ``rows`` (one per
    column, 0 where missing) rounded; for the ``gappy`` columns, presence
    bits b, then squares r^2 computed in float64 and rounded; a row of ones;
    the squared norms of the other columns summed in float64 and rounded;
    ``width`` rows for the nominal indicators, which the caller writes; and
    another row of ones.  Past float32's range a value rounds to infinity,
    and then :func:`_estimate` uses none of them.
    """
    f, holes = rows.shape[0], np.flatnonzero(gappy)
    g = holes.size
    fused = np.empty((f + 2 * g + 3 + width, rows.shape[1]), np.float32)
    with np.errstate(over="ignore"):
        complete = rows[~gappy] if g else rows
        norms = np.einsum("ij,ij->j", complete, complete)
        fused[:f] = rows
        fused[f + 2 * g + 1] = norms
        # a column at a time, so that the float64 temporaries stay one row long
        for i, col in enumerate(holes):
            missing = np.isnan(rows[col])
            value = np.where(missing, 0.0, rows[col])
            fused[col] = value
            fused[f + i] = ~missing
            np.multiply(value, value, out=value)
            fused[f + g + i] = value
            norms += value
    fused[f + 2 * g] = 1.0
    fused[-1] = 1.0
    return fused, math.sqrt(norms.max(initial=0.0))


def prepare_reference(encoded: tuple[np.ndarray, np.ndarray]) -> Reference:
    """Everything :func:`neighbors` needs of the reference rows, built once.

    Besides the encoded pair it holds the nominal indicators, one per
    two-valued column and per code of every other column, plus a constant
    one, n_ref * 4 bytes each.  With numeric columns they are rows of the
    float32 fused matrix of :func:`_fused`, which also holds n_ref * 4 bytes
    per numeric column and two more per column that holds a NaN, plus three
    rows.  ``columns`` is a view of the encoded column-major numeric matrix
    (a copy of any other layout).
    """
    numeric, nominal = encoded
    n_ref, n_nominal = nominal.shape
    highest = nominal.max(axis=0, initial=-1)
    two_valued = np.flatnonzero((highest <= 1) & (nominal.min(axis=0, initial=0) >= 0))
    widths = np.maximum(highest + 1, 0)
    widths[two_valued] = 0
    offsets = 1 + two_valued.size + np.cumsum(widths) - widths
    width = 1 + two_valued.size + int(widths.sum())
    gappy = np.isnan(numeric).any(axis=0)
    columns = np.ascontiguousarray(numeric.T)
    fused, max_norm = None, 0.0
    if gappy.size:
        fused, max_norm = _fused(columns, gappy, width)
    # the indicators are written once: into the fused matrix's rows when it exists
    one_hot = np.empty((n_ref, width), np.float32) if fused is None else fused[-1 - width : -1].T
    reference = Reference(
        columns=columns,
        nominal=nominal,
        two_valued=two_valued,
        widths=widths,
        offsets=offsets,
        one_hot=one_hot,
        gappy=gappy,
        fused=fused,
        max_norm=max_norm,
    )
    # written in place, in chunks so that the index temporaries stay about a block array long
    chunk = max(1, _BLOCK_BYTES // (8 * max(n_nominal, 1)))
    for at in range(0, n_ref, chunk):
        _one_hot(nominal[at : at + chunk], reference, one_hot[at : at + chunk], query=False)
    return reference


def _one_hot(codes: np.ndarray, reference: Reference, out: np.ndarray, query: bool) -> None:
    """Write into ``out`` the nominal indicators of each row of ``codes``, on
    the reference side or the ``query`` side, in ``reference``'s layout, so
    that ``q_hot @ r_hot.T`` counts each pair's equal, present codes.

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
    two_valued, offsets, widths = reference.two_valued, reference.offsets, reference.widths
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
    """Block-sized arrays that every block of one query reuses, each made when
    a block first needs it: ``rows`` rows of float32 cells and ``wide_rows``
    of float64 cells."""

    def __init__(self, rows: int, wide_rows: int, reference: Reference):
        self.rows, self.wide_rows, self.reference = rows, wide_rows, reference

    @cached_property
    def total(self) -> np.ndarray:
        # zeros: the distances of a query without columns
        return np.zeros((self.wide_rows, self.reference.n))

    @cached_property
    def terms(self) -> np.ndarray:
        return np.empty((self.wide_rows, self.reference.n))

    @cached_property
    def fused(self) -> np.ndarray:
        # the query side of the fused estimate, wide enough for every numeric column gappy
        width = 3 * self.reference.columns.shape[0] + 3 + self.reference.one_hot.shape[1]
        return np.empty((self.rows, width), np.float32)

    @cached_property
    def est(self) -> np.ndarray:
        return np.empty((self.rows, self.reference.n), np.float32)

    @cached_property
    def q_hot(self) -> np.ndarray:
        return np.empty((self.rows, self.reference.one_hot.shape[1]), np.float32)

    @cached_property
    def count(self) -> np.ndarray:
        return np.empty((self.rows, self.reference.n), np.float32)


def _mismatches(q_nom: np.ndarray, reference: Reference, buffers: _Buffers) -> np.ndarray:
    """Nominal mismatch counts of ``q_nom``'s rows against every reference row, exact.

    matches = q_hot @ r_hot.T counts equal, present codes in float32.  Every
    partial sum is an integer of magnitude at most twice the column count,
    so float32 counts them exactly in any order.
    """
    rows = q_nom.shape[0]
    q_hot, count = buffers.q_hot[:rows], buffers.count[:rows]
    _one_hot(q_nom, reference, q_hot, query=True)
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

    Numeric terms are summed column by column in attribute order (a NaN term,
    from a missing value or inf - inf, counts 1.0; 0.0 + term is term, so the
    first is written), then the nominal mismatch count is added, so every
    cell is bit-identical to a per-column sum of the HEOM terms.  With
    nominal columns alone the totals are the float32 mismatch counts
    themselves: integer sums from 0.0, exact whatever the order.
    """
    n_numeric, n_nominal = q_num.shape[1], q_nom.shape[1]
    if n_nominal and not n_numeric:
        return _mismatches(q_nom, reference, buffers)
    total = buffers.total[: q_num.shape[0]]
    for col in range(n_numeric):
        term = buffers.terms[: total.shape[0]] if col else total
        np.subtract(q_num[:, col, None], reference.columns[col], out=term)
        np.multiply(term, term, out=term)
        if nan_cols[col]:
            term[np.isnan(term)] = 1.0
        if col:
            total += term
    if n_nominal:
        _add_ones(total, _mismatches(q_nom, reference, buffers))
    return total


def _non_finite_columns(q_num: np.ndarray, reference: Reference) -> np.ndarray:
    """Numeric columns where a term can be NaN: a NaN (missing) on either side, or
    an infinity in the query (inf - inf)."""
    return ~np.isfinite(q_num).all(axis=0) | reference.gappy


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


def _rounding_factor(fused: np.ndarray) -> float:
    """gamma_n = nu / (1 - nu) (Higham, section 3.1) at float32's u for n = K
    + 6: the ``fused`` matrix's K rows and six more roundings (see
    :func:`_estimate`)."""
    n = fused.shape[0] + 6
    return n * _UNIT_ROUNDOFF / (1 - n * _UNIT_ROUNDOFF)


def _fused_for(reference: Reference, q_num: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """:func:`_fused` for the query ``q_num``, its largest norm and its gappy
    columns: the reference's and those where ``q_num`` holds a NaN.  The
    prepared matrix serves when they are the reference's own, as for every
    self-query, and otherwise it is built anew."""
    gappy = reference.gappy | np.isnan(q_num).any(axis=0)
    if np.array_equal(gappy, reference.gappy):
        return reference.fused, reference.max_norm, gappy
    width = reference.one_hot.shape[1]
    fused, max_norm = _fused(reference.columns, gappy, width)
    fused[-1 - width : -1] = reference.one_hot.T
    return fused, max_norm, gappy


def _estimate(
    q_num: np.ndarray,
    q_nom: np.ndarray,
    reference: Reference,
    fused: tuple[np.ndarray, float, np.ndarray],
    buffers: _Buffers,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated squared distances of a block of query rows, and each row's error bound.

    ``fused`` is :func:`_fused_for` the query: R, with rows r (f numeric
    columns, 0 where missing), b and r^2 (G gappy columns), 1, |r|^2 (the
    other columns), the reference indicators and 1, in float32; the largest
    |r|; and the gappy columns.  The block fills Q with -2q, q^2 - a and a
    (gappy columns; a is 0 where q is missing, and then q is 0), |q|^2 (the
    other columns, summed in float64) + G, 1, minus the query indicators and
    the nominal column count, rounded to float32, so that one float32
    product ``Q @ R`` gives ``|q|^2 + |r|^2 - 2 q.r`` over the other columns,
    b (q^2 - a) + a r^2 - 2 q r + 1 per gappy column, which is (q - r)^2
    when both values are present and 1 otherwise, and ``n_nominal -
    matches``.

    Error bound, with u = 2^-24 and S = |q| + max |r| (over present values).
    The presence bits, indicators and counts are small integers, exact in
    float32.  Rounding q and r to float32 moves 2 q.r by at most 2(2u +
    u^2)|q||r| <= (u + u^2) S^2, and q^2 - a, r^2 and the norms, each
    rounded once from float64, err by at most 2u times q^2 + 1, r^2 and the
    norm.  The product sums its K = f + 2G + 3 + width terms in any order,
    so it errs by at most gamma_K times the sum of their magnitudes (Higham,
    section 3.1): at most (1 + 3u)(S^2 + 2G) for the numeric part and 3
    n_nominal for the nominal part, since indicator 0 pairs a count of code
    0 (at most one per two-valued column) with 1, every other pair of
    indicators multiplies to -1, 0 or 1 with at most one nonzero pair per
    column, and the last pair is n_nominal times 1.  Let X be the kernel's
    own squared total of a cell (:func:`_exact_totals`); its float64
    roundings err by at most u (X + S^2) for fewer than 2^27 columns.  A
    subnormal operand errs by at most 2^-150 absolute, which adds at most u
    S^2 beyond ``_UNDERFLOW_SLACK``.  With gamma = :func:`_rounding_factor`
    = gamma_{K+6} these give |E - X| <= gamma (S^2 + 2G + 3 n_nominal) + 4
    gamma X.  The returned ``bound`` is twice that first term, which covers
    the rounding of the computed norms it is made of, plus
    ``_UNDERFLOW_SLACK``.  No magnitude in the product exceeds half of
    ``bound / gamma``; a row where that passes float32's range, as an
    infinity does, gets an infinite bound and must not use its estimates.
    """
    r_fused, r_max, gappy = fused
    rows, (f, n_nominal) = q_num.shape[0], (q_num.shape[1], q_nom.shape[1])
    holes = np.flatnonzero(gappy)
    g = holes.size
    gamma = _rounding_factor(r_fused)
    q = buffers.fused[:rows, : r_fused.shape[0]]
    est = buffers.est[:rows]
    with np.errstate(over="ignore", invalid="ignore"):
        complete = q_num[:, ~gappy] if g else q_num
        q_norms = np.einsum("ij,ij->i", complete, complete)
        # -2q is exact in float64, then rounded like q
        np.multiply(q_num, -2.0, out=q[:, :f])
        value = q_num[:, holes]
        present = ~np.isnan(value)
        value[~present] = 0.0
        q[:, holes] = -2.0 * value
        np.multiply(value, value, out=value)
        reach = (np.sqrt(q_norms + value.sum(axis=1)) + r_max) ** 2 + 3.0 * n_nominal + 2.0 * g
        usable = 2.0 * reach <= _FLOAT32_MAX
        bound = np.where(usable, 2.0 * gamma * reach + _UNDERFLOW_SLACK, np.inf)
        q[:, f : f + g] = value - present
        q[:, f + g : f + 2 * g] = present
        q[:, f + 2 * g] = q_norms + g
        q[:, f + 2 * g + 1] = 1.0
        hot = q[:, f + 2 * g + 2 : -1]
        _one_hot(q_nom, reference, hot, query=True)
        # not np.negative, which in numpy 2.4.6 negates a view whose rows lie
        # 64 bytes apart in place from the wrong elements
        hot *= -1.0
        q[:, -1] = n_nominal
        np.matmul(q, r_fused, out=est)
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


def _block_rows(n_ref: int, product: bool) -> int:
    """Query rows per block against ``n_ref`` reference rows: ``_BLOCK_BYTES``
    per array of float32 cells and at least ``_MIN_BLOCK_ROWS`` when each
    block is a float32 ``product`` (estimated or all-nominal), and otherwise
    ``_BLOCK_BYTES`` per array of float64 cells, at least one row."""
    if product:
        return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (4 * n_ref))
    return max(1, _BLOCK_BYTES // (8 * n_ref))


def _shortlist_heads(
    query: tuple[np.ndarray, np.ndarray], reference: Reference, m: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, head)``: the ``m`` nearest reference rows of query rows
    ``start:start + len(head)``, one block of rows at a time.

    When the query has numeric columns and a row needs fewer cells than the
    reference holds, each block is estimated first.  The reference columns
    fall into G >= m strided groups (``_groups``), column j into group j mod
    G, and the columns past the last whole slice of G join the first groups.
    Let t be a row's m-th smallest group minimum of the estimates: m cells,
    one per group, have E <= t, so by :func:`_estimate`'s bound their totals
    are X <= C^2 = (t + b)/(1 - 4 gamma).  ``sqrt`` rounds correctly, so the
    row's m-th smallest distance is at most C (1 + u) with float64's u =
    2^-53, and a cell no farther has X <= C^2 (1 + 5u) and an estimate of at
    most C^2 (1 + 5u)(1 + 4 gamma) + b.  The block keeps every cell within
    ``(t + b)(1 + 8 gamma)/(1 - 4 gamma) + 2b``, rounded up to float32,
    which exceeds that despite the rounding of its own float64 operations
    (gamma >= 8u) (:func:`_kept`), computes only those cells exactly and
    sorts them; the row's m nearest are among them.  Rows with an infinite
    bound take the exact block, and so does the whole block when its kept
    cells are more than ``_MAX_SHORTLIST_SHARE`` of theirs.  Exact blocks
    beside numeric columns are taken ``_block_rows(n_ref, product=False)``
    rows at a time, written in place into buffers that the next block
    reuses.
    """
    q_num, q_nom = query
    nan_cols = _non_finite_columns(q_num, reference)
    estimated = m < reference.n and q_num.shape[1] > 0
    rows = _block_rows(reference.n, product=estimated or not q_num.shape[1])
    # exact totals beside numeric columns are taken a float64 block of rows at a time
    wide = _block_rows(reference.n, product=False) if q_num.shape[1] else rows
    if estimated:
        fused = _fused_for(reference, q_num)
        gamma = _rounding_factor(fused[0])
        grow = (1.0 + 8.0 * gamma) / (1.0 - 4.0 * gamma)
        groups = _groups(m, reference.n)
    n_query = q_num.shape[0]
    buffers = _Buffers(min(rows, n_query), min(wide, n_query), reference)
    for start in range(0, n_query, rows):
        stop = min(start + rows, n_query)
        head = np.empty((stop - start, m), dtype=np.intp)
        # rows that take the exact block
        exact = np.arange(stop - start)
        if estimated:
            est, bound = _estimate(q_num[start:stop], q_nom[start:stop], reference, fused, buffers)
            sure = np.isfinite(bound)
            cells = est if sure.all() else est[sure]
            kept = _kept(cells, bound[sure], m, groups, grow) if sure.any() else None
            if kept is not None:
                part = np.flatnonzero(sure)
                r, c = np.divmod(kept, reference.n)
                dist = _pair_distances(q_num, q_nom, start + part[r], reference, c)
                head[part] = _first_m(r, c, dist, part.size, m)
                exact = np.flatnonzero(~sure)
        for part in (exact[i : i + wide] for i in range(0, exact.size, wide)):
            at = start + part
            total = _exact_totals(q_num[at], q_nom[at], reference, nan_cols, buffers)
            if q_num.shape[1]:
                np.sqrt(total, out=total)
            # without numeric columns the totals are counts (or all 0), which
            # sqrt maps strictly increasingly: they rank as the distances do
            head[part] = _nearest(total, m)
        yield start, head


def _kept(
    est: np.ndarray, bound: np.ndarray, m: int, groups: int, grow: float
) -> np.ndarray | None:
    """Flat indices of the cells of ``est`` that may hold their row's ``m``
    nearest, by the cutoff of :func:`_shortlist_heads` over ``groups``
    strided groups of columns; None when they are more than
    ``_MAX_SHORTLIST_SHARE`` of the cells."""
    rows, n_ref = est.shape
    whole = n_ref - n_ref % groups
    # each row's smallest estimate per group, one slice of G columns at a time;
    # the columns past the last whole slice join the first groups
    mins = np.minimum.reduce(est[:, :whole].reshape(rows, -1, groups), axis=1)
    rest = est[:, whole:]
    np.minimum(mins[:, : rest.shape[1]], rest, out=mins[:, : rest.shape[1]])
    t = np.partition(mins, m - 1, axis=1)[:, m - 1]
    with np.errstate(over="ignore"):
        limit = (t + bound) * grow + 2.0 * bound
        # the next float32 above the nearest: est <= limit keeps every cell within
        limit = np.nextafter(limit.astype(np.float32), np.float32(np.inf))
    kept = est <= limit[:, None]
    if np.count_nonzero(kept) > _MAX_SHORTLIST_SHARE * kept.size:
        return None
    return np.flatnonzero(kept)


def _nearest(block: np.ndarray, m: int) -> np.ndarray:
    """Column indices of the ``m`` smallest cells of each row: nearest first,
    ties to the lower column, as the first ``m`` of a stable ``argsort``."""
    if m < block.shape[1]:
        # shortlist: every cell no farther than the row's m-th smallest distance
        kth = np.partition(block, m - 1, axis=1)[:, m - 1, None]
        shortlist = block <= kth
        if np.count_nonzero(shortlist) <= _MAX_SHORTLIST_SHARE * block.size:
            rows, cols = np.divmod(np.flatnonzero(shortlist), block.shape[1])
            return _first_m(rows, cols, block[shortlist], block.shape[0], m)
    return np.argsort(block, axis=1, kind="stable")[:, :m]


def _first_m(rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, n: int, m: int) -> np.ndarray:
    """Column indices of the ``m`` nearest of the cells ``(rows[i], cols[i])`` at
    ``dist[i]`` in each of rows ``0:n``, nearest first, ties to the lower
    column.  The cells come in row-major order, as the flat indices of a
    mask list them, and every row holds at least ``m`` of them."""
    # lexsort is stable, so equal distances keep the ascending columns
    order = np.lexsort((dist, rows))
    first = np.searchsorted(rows, np.arange(n))
    return cols[order[first[:, None] + np.arange(m)]]


def neighbors(
    reference: Reference,
    k: int,
    rows: np.ndarray | None = None,
    query: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Indices of the ``k`` reference rows nearest to each query row.

    ``reference`` is a :func:`prepare_reference` of a ``(numeric, nominal)``
    pair from :meth:`FeatureSpace.encode`.  By default the query is the
    reference itself, a *self-query*: each reference row in ``rows`` (every
    row when None, read through the prepared matrices without a copy) asks
    for its ``k`` nearest other rows and never picks its own index.  A
    ``query`` pair from :meth:`FeatureSpace.encode` asks instead, and picks
    from every reference row.  Rows come out nearest first, ties broken
    toward the lower reference index.  One loop builds distances for one
    block of query rows at a time, so memory stays O(block * n_ref) beside
    the prepared reference; each row is re-ranked from its estimates or
    takes the exact block (see the module docstring).
    """
    if rows is not None and query is not None:
        raise ValueError("a query takes reference rows or its own encoded rows, not both")
    skip = query is None
    if not 0 < k <= reference.n - skip:
        raise ValueError(f"cannot pick {k} neighbors from {reference.n} reference rows")
    if skip:
        at = slice(None) if rows is None else rows
        query = reference.columns.T[at], reference.nominal[at]
        rows = np.arange(reference.n) if rows is None else rows
    out = np.empty((query[0].shape[0], k), dtype=np.intp)
    for start, head in _shortlist_heads(query, reference, k + skip):
        stop = start + head.shape[0]
        if not skip:
            out[start:stop] = head
            continue
        keep = head != rows[start:stop, None]
        # a row whose own index fell outside the first k + 1 drops its last pick
        keep[keep.all(axis=1), k] = False
        out[start:stop] = head[keep].reshape(stop - start, k)
    return out
