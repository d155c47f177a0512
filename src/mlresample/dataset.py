"""Core data model for multilabel datasets.

A dataset couples a feature schema (numeric and nominal attributes) with an
ordered global label list, and holds its rows as three read-only arrays that
every layer reads directly:

* ``numeric``: float64, one column per numeric attribute, NaN for a missing
  value;
* ``nominal``: int64 codes into each nominal attribute's declared values,
  one column per nominal attribute, -1 for a missing value;
* ``y``: the bool label matrix, one column per label.

Columns of each kind follow the attributes' declaration order.  Every
construction checks the arrays with a few vectorised comparisons (shapes,
dtypes, no infinity, codes in range), so no row is trusted unchecked; an
error names the first bad row and, within it, the first bad attribute.

Datasets are immutable after construction; every operation over them is a
pure function and safe to run concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import FrozenInstanceError, dataclass

import numpy as np


@dataclass(frozen=True)
class AttributeSpec:
    """Schema of one input attribute.

    ``values`` is ``None`` for a numeric attribute and the ordered tuple of
    declared symbols for a nominal one.
    """

    name: str
    values: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if self.values is not None:
            if len(self.values) == 0:
                raise ValueError(f"nominal attribute {self.name!r} declares no values")
            if len(set(self.values)) != len(self.values):
                raise ValueError(f"nominal attribute {self.name!r} declares duplicate values")

    @property
    def is_nominal(self) -> bool:
        return self.values is not None


def _check_schema(attributes: tuple[AttributeSpec, ...], labels: tuple[str, ...]) -> None:
    attr_names = [a.name for a in attributes]
    if len(set(attr_names)) != len(attr_names):
        raise ValueError("duplicate attribute names")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate label names")
    overlap = set(attr_names) & set(labels)
    if overlap:
        raise ValueError(f"names used both as attribute and label: {sorted(overlap)}")


def _read_only(a: np.ndarray, dtype: type, field: str) -> np.ndarray:
    """``a`` as a read-only, C-contiguous array.

    An array that owns its data is taken over and made read-only; the caller
    must not keep a writeable view of it.  Any other writeable or strided
    array is copied first.
    """
    a = np.asarray(a)
    if a.dtype != dtype:
        raise ValueError(f"{field} must have dtype {np.dtype(dtype)}, got {a.dtype}")
    if not a.flags.c_contiguous or (a.flags.writeable and a.base is not None):
        a = a.copy()
    a.flags.writeable = False
    return a


class MultiLabelDataset:
    """Immutable multilabel dataset.

    Attributes appear in declaration order, labels in header order.  Empty
    labelsets are accepted (some benchmark datasets contain them); metric
    operations define their contribution explicitly.  The rows live in the
    read-only arrays ``numeric``, ``nominal`` and ``y`` (see the module
    docstring).  Two datasets are equal when their schema, name and arrays
    are (missing values equal each other); datasets are not hashable.
    """

    attributes: tuple[AttributeSpec, ...]
    labels: tuple[str, ...]
    numeric: np.ndarray
    nominal: np.ndarray
    y: np.ndarray
    name: str

    def __init__(
        self,
        attributes: Iterable[AttributeSpec],
        labels: Iterable[str],
        numeric: np.ndarray,
        nominal: np.ndarray,
        y: np.ndarray,
        name: str = "unnamed",
    ):
        """Dataset over the given arrays, checked as a whole.

        The schema, the arrays' dtypes and shapes are checked first; then the
        first row holding an infinity or a nominal code outside its
        attribute's values raises, naming its first such attribute in
        declaration order.  Read-only C-contiguous arrays are shared, and an
        array that owns its data becomes read-only in place; any other array
        is copied.
        """
        attributes, labels = tuple(attributes), tuple(labels)
        _check_schema(attributes, labels)
        numeric = _read_only(numeric, np.float64, "numeric")
        nominal = _read_only(nominal, np.int64, "nominal")
        y = _read_only(y, np.bool_, "y")
        sizes = np.array([len(a.values) for a in attributes if a.is_nominal], dtype=np.int64)
        n, shapes = y.shape[0] if y.ndim else -1, (numeric.shape, nominal.shape, y.shape)
        if shapes != ((n, len(attributes) - len(sizes)), (n, len(sizes)), (n, len(labels))):
            raise ValueError(
                f"array shapes {shapes} do not fit {len(attributes)} attributes, "
                f"{len(sizes)} of them nominal, and {len(labels)} labels"
            )
        bad = np.isinf(numeric).any(axis=1) | ((nominal < -1) | (nominal >= sizes)).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            numeric_row, nominal_row = iter(numeric[i].tolist()), iter(nominal[i].tolist())
            for attr in attributes:
                if attr.is_nominal:
                    code = next(nominal_row)
                    if not -1 <= code < len(attr.values):
                        raise ValueError(
                            f"instance {i}: nominal index {code} out of range for attribute {attr.name!r}"
                        )
                elif math.isinf(next(numeric_row)):
                    raise ValueError(f"instance {i}: numeric attribute {attr.name!r} needs a finite float")
        self.__dict__.update(
            attributes=attributes, labels=labels, numeric=numeric, nominal=nominal, y=y, name=name
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, MultiLabelDataset):
            return NotImplemented
        schema = self.attributes, self.labels, self.name
        return (
            schema == (other.attributes, other.labels, other.name)
            and np.array_equal(self.numeric, other.numeric, equal_nan=True)
            and np.array_equal(self.nominal, other.nominal)
            and np.array_equal(self.y, other.y)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"MultiLabelDataset(name={self.name!r}, n={self.n}, k={self.k})"

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def k(self) -> int:
        return len(self.labels)

    def subset(self, indices: Iterable[int], name: str | None = None) -> MultiLabelDataset:
        """New dataset keeping the given instances, in the given order; an index may repeat.

        An integer array is used as it is, and any other iterable of ints is
        read once.  Bool or float indices raise ValueError: a mask would
        select rows 0 and 1, and a float would be floored.
        """
        rows = np.asarray(indices if isinstance(indices, np.ndarray) else list(indices))
        if rows.dtype.kind not in "iu":
            if rows.size:
                raise ValueError(f"subset needs integer indices, got {rows.dtype} values")
            rows = rows.astype(np.intp)
        return MultiLabelDataset(
            self.attributes,
            self.labels,
            self.numeric[rows],
            self.nominal[rows],
            self.y[rows],
            self.name if name is None else name,
        )


def label_counts(d: MultiLabelDataset) -> np.ndarray:
    """Per-label number of instances in which the label is active."""
    return d.y.sum(axis=0, dtype=np.int64)

