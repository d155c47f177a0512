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
dtypes, no infinity, codes in range), so no row is trusted unchecked.  The
public constructor and :meth:`MultiLabelDataset.replace_instances` take
:class:`Instance` rows instead, check them one by one so that an error names
the first bad row and attribute, and convert them once.
``MultiLabelDataset.instances`` turns the arrays back into :class:`Instance`
rows (Python scalars, ``None`` for a missing value, bitmask labelsets) for
the public API; it is built on first use and kept.

Datasets are immutable after construction; every operation over them is a
pure function and safe to run concurrently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

FeatureValue = float | int | None


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


@dataclass(frozen=True, order=True)
class Labelset:
    """Set of active label indices stored as a bitmask."""

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("labelset mask must be non-negative")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> Labelset:
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError(f"negative label index {i}")
            mask |= 1 << i
        return cls(mask)

    @property
    def indices(self) -> tuple[int, ...]:
        out = []
        mask = self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    @property
    def active(self) -> frozenset[int]:
        return frozenset(self.indices)

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __or__(self, other: Labelset) -> Labelset:
        return Labelset(self.mask | other.mask)

    def __and__(self, other: Labelset) -> Labelset:
        return Labelset(self.mask & other.mask)

    def __sub__(self, other: Labelset) -> Labelset:
        return Labelset(self.mask & ~other.mask)

    def hamming(self, other: Labelset) -> int:
        """Number of labels active in exactly one of the two sets."""
        return (self.mask ^ other.mask).bit_count()

    def union_size(self, other: Labelset) -> int:
        return (self.mask | other.mask).bit_count()


@dataclass(frozen=True)
class Instance:
    """One data pattern: a feature vector plus its labelset."""

    features: tuple[FeatureValue, ...]
    labels: Labelset


def _check_instance(inst: Instance, attributes: tuple[AttributeSpec, ...], k: int, where: str) -> None:
    if len(inst.features) != len(attributes):
        raise ValueError(
            f"{where}: expected {len(attributes)} feature values, got {len(inst.features)}"
        )
    for attr, value in zip(attributes, inst.features):
        if value is None:
            continue
        if attr.is_nominal:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{where}: nominal attribute {attr.name!r} needs an int index")
            if not 0 <= value < len(attr.values):
                raise ValueError(
                    f"{where}: nominal index {value} out of range for attribute {attr.name!r}"
                )
        elif not isinstance(value, float):
            raise ValueError(f"{where}: numeric attribute {attr.name!r} needs a float")
        elif not math.isfinite(value):
            raise ValueError(f"{where}: numeric attribute {attr.name!r} needs a finite float")
    if inst.labels.mask >> k:
        raise ValueError(f"{where}: labelset references a label index >= {k}")


def _check_schema(attributes: tuple[AttributeSpec, ...], labels: tuple[str, ...]) -> None:
    attr_names = [a.name for a in attributes]
    if len(set(attr_names)) != len(attr_names):
        raise ValueError("duplicate attribute names")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate label names")
    overlap = set(attr_names) & set(labels)
    if overlap:
        raise ValueError(f"names used both as attribute and label: {sorted(overlap)}")


def _instance_arrays(
    attributes: tuple[AttributeSpec, ...], k: int, instances: tuple[Instance, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``numeric``, ``nominal`` and ``y`` arrays of ``instances`` (not checked)."""
    n = len(instances)
    # numpy converts None to NaN, and a float holds every nominal code exactly
    cells = np.array([inst.features for inst in instances], dtype=np.float64)
    cells = cells.reshape(n, len(attributes))
    nominal = np.array([attr.is_nominal for attr in attributes], dtype=bool)
    y = np.zeros((n, k), dtype=bool)
    for i, inst in enumerate(instances):
        y[i, list(inst.labels.indices)] = True
    return cells[:, ~nominal], np.nan_to_num(cells[:, nominal], nan=-1.0).astype(np.int64), y


def _instances_of(
    attributes: tuple[AttributeSpec, ...], numeric: np.ndarray, nominal: np.ndarray, y: np.ndarray
) -> tuple[Instance, ...]:
    """The rows of the three arrays as :class:`Instance` objects."""
    numeric_columns, nominal_columns = iter(numeric.T.tolist()), iter(nominal.T.tolist())
    columns = [
        [None if c == -1 else c for c in next(nominal_columns)]
        if attr.is_nominal
        else [None if v != v else v for v in next(numeric_columns)]  # NaN is missing
        for attr in attributes
    ]
    features = zip(*columns) if columns else [()] * y.shape[0]
    packed = np.packbits(y, axis=1, bitorder="little")
    masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
    return tuple(Instance(f, Labelset(m)) for f, m in zip(features, masks))


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
        instances: Iterable[Instance],
        name: str = "unnamed",
    ):
        """Dataset over ``instances``; every row is checked, the first invalid one raises."""
        attributes, labels, instances = tuple(attributes), tuple(labels), tuple(instances)
        _check_schema(attributes, labels)
        for i, inst in enumerate(instances):
            _check_instance(inst, attributes, len(labels), f"instance {i}")
        arrays = _instance_arrays(attributes, len(labels), instances)
        self._fill(attributes, labels, *arrays, name)

    @classmethod
    def from_arrays(
        cls,
        attributes: Iterable[AttributeSpec],
        labels: Iterable[str],
        numeric: np.ndarray,
        nominal: np.ndarray,
        y: np.ndarray,
        name: str = "unnamed",
    ) -> MultiLabelDataset:
        """Dataset over the given arrays, checked as a whole.

        Read-only C-contiguous arrays are shared, and an array that owns its
        data becomes read-only in place; any other array is copied.
        """
        d = object.__new__(cls)
        d._fill(tuple(attributes), tuple(labels), numeric, nominal, y, name)
        return d

    def _fill(self, attributes, labels, numeric, nominal, y, name) -> None:
        """Check the schema and the arrays' dtypes and shapes, then raise the error
        :func:`_check_instance` gives the first row holding an infinity or a nominal code
        outside its attribute's values; else keep the arrays."""
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
            row = _instances_of(attributes, numeric[i : i + 1], nominal[i : i + 1], y[i : i + 1])
            _check_instance(row[0], attributes, len(labels), f"instance {i}")
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

    @cached_property
    def instances(self) -> tuple[Instance, ...]:
        """The rows as :class:`Instance` objects, built from the arrays on first use."""
        return _instances_of(self.attributes, self.numeric, self.nominal, self.y)

    def replace_instances(
        self, instances: Iterable[Instance], name: str | None = None
    ) -> MultiLabelDataset:
        """New dataset with the same schema but different instances.

        Every given instance is checked, as by the public constructor.
        """
        return MultiLabelDataset(
            self.attributes, self.labels, instances, self.name if name is None else name
        )

    def subset(self, indices: Iterable[int], name: str | None = None) -> MultiLabelDataset:
        """New dataset keeping the given instances, in the given order; an index may repeat."""
        rows = np.fromiter(indices, dtype=np.intp)
        return MultiLabelDataset.from_arrays(
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


def label_matrix(d: MultiLabelDataset) -> np.ndarray:
    """Binary label assignment matrix of shape (n, k): the dataset's read-only ``y``."""
    return d.y
