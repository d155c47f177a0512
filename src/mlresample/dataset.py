"""Core data model for multilabel datasets.

A dataset couples a feature schema (numeric and nominal attributes) with an
ordered global label list and a sequence of instances.  Feature values are
plain Python scalars: ``float`` for numeric attributes, ``int`` (index into
the attribute's declared value list) for nominal attributes, ``None`` for a
missing value.  Labelsets are integer bitmasks, so set operations on label
collections stay cheap even for datasets with hundreds of labels.

Datasets are immutable after construction; every operation over them is a
pure function and safe to run concurrently.

Each row is validated once, where it enters the program.  The public
constructor and :meth:`MultiLabelDataset.replace_instances` check every row
they are given.  Rows that come from a dataset validated before are not
checked again: :meth:`~MultiLabelDataset.subset`, ML-ROS clones, REMEDIAL's
split copies and a renamed CLI output reuse them through the private
:meth:`~MultiLabelDataset._trusted` constructor, which checks the schema
only.  ``parse_mulan`` uses it too, because its decoders only produce valid
cells, and MLSMOTE checks only the synthetic rows it adds.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from operator import attrgetter

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


_NOMINAL_TYPES = {int, type(None)}
_NUMERIC_TYPES = {float, type(None)}


def _all_valid(instances: tuple[Instance, ...], sizes: tuple[int | None, ...], k: int) -> bool:
    """Whether every instance would pass :func:`_check_instance`.

    ``sizes`` holds each attribute's number of declared values, ``None`` for
    a numeric one.  The check runs column by column in builtins and is
    stricter than :func:`_check_instance` (exact ``int`` and ``float``
    types; a numeric column whose sum overflows fails), so ``False`` only
    means the instances need the exact check.
    """
    if max(map(attrgetter("labels.mask"), instances), default=0) >> k:
        return False
    rows = list(map(attrgetter("features"), instances))
    if set(map(len, rows)) - {len(sizes)}:
        return False
    for size, column in zip(sizes, zip(*rows)):
        # filter(None, ...) drops missing values and zeros, which are always valid
        if size is None:
            if not (
                set(map(type, column)) <= _NUMERIC_TYPES
                and math.isfinite(sum(filter(None, column)))
            ):
                return False
        elif not (
            set(map(type, column)) <= _NOMINAL_TYPES
            and min(filter(None, column), default=0) >= 0
            and max(filter(None, column), default=0) < size
        ):
            return False
    return True


def _check_rows(
    instances: Sequence[Instance],
    attributes: tuple[AttributeSpec, ...],
    k: int,
    start: int = 0,
) -> None:
    """Raise the error of the first invalid instance, numbered from ``start``."""
    sizes = tuple(len(a.values) if a.is_nominal else None for a in attributes)
    if not _all_valid(instances, sizes, k):
        for i, inst in enumerate(instances, start):
            _check_instance(inst, attributes, k, f"instance {i}")


@dataclass(frozen=True)
class MultiLabelDataset:
    """Immutable multilabel dataset.

    Attributes appear in declaration order, labels in header order.  Empty
    labelsets are accepted (some benchmark datasets contain them); metric
    operations define their contribution explicitly.
    """

    attributes: tuple[AttributeSpec, ...]
    labels: tuple[str, ...]
    instances: tuple[Instance, ...]
    name: str = "unnamed"

    def __post_init__(self):
        self._check_schema()
        _check_rows(self.instances, self.attributes, self.k)

    def _check_schema(self) -> None:
        attr_names = [a.name for a in self.attributes]
        if len(set(attr_names)) != len(attr_names):
            raise ValueError("duplicate attribute names")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate label names")
        overlap = set(attr_names) & set(self.labels)
        if overlap:
            raise ValueError(f"names used both as attribute and label: {sorted(overlap)}")

    @classmethod
    def _trusted(
        cls,
        attributes: tuple[AttributeSpec, ...],
        labels: tuple[str, ...],
        instances: tuple[Instance, ...],
        name: str,
    ) -> MultiLabelDataset:
        """Dataset over rows known to be valid for this schema.

        Only the schema is checked.  Callers pass rows taken from a validated
        dataset of the same schema, or rows built so that they cannot fail
        the row check; any other rows go through the public constructor.
        """
        d = object.__new__(cls)
        for field, value in (
            ("attributes", attributes),
            ("labels", labels),
            ("instances", instances),
            ("name", name),
        ):
            object.__setattr__(d, field, value)
        d._check_schema()
        return d

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def k(self) -> int:
        return len(self.labels)

    def replace_instances(
        self, instances: Iterable[Instance], name: str | None = None
    ) -> MultiLabelDataset:
        """New dataset with the same schema but different instances.

        Every given instance is validated, as by the public constructor.
        """
        return MultiLabelDataset(
            attributes=self.attributes,
            labels=self.labels,
            instances=tuple(instances),
            name=self.name if name is None else name,
        )

    def subset(self, indices: Iterable[int], name: str | None = None) -> MultiLabelDataset:
        """New dataset keeping the given instances, in the given order.

        The kept instances were validated with this dataset, so they are not
        checked again; an index may repeat.
        """
        rows = self.instances
        return MultiLabelDataset._trusted(
            self.attributes,
            self.labels,
            tuple([rows[i] for i in indices]),
            self.name if name is None else name,
        )


def labelset_counts(d: MultiLabelDataset) -> Counter[int]:
    """Number of instances carrying each distinct labelset, keyed by mask in first-seen order."""
    return Counter(map(attrgetter("labels.mask"), d.instances))


def counts_per_label(labelsets: Mapping[int, int], k: int) -> np.ndarray:
    """Per-label instance counts from :func:`labelset_counts`."""
    counts = np.zeros(k, dtype=np.int64)
    for mask, times in labelsets.items():
        counts[list(Labelset(mask).indices)] += times
    return counts


def label_counts(d: MultiLabelDataset) -> np.ndarray:
    """Per-label number of instances in which the label is active."""
    return counts_per_label(labelset_counts(d), d.k)


def label_matrix(d: MultiLabelDataset) -> np.ndarray:
    """Binary label assignment matrix of shape (n, k)."""
    out = np.zeros((d.n, d.k), dtype=bool)
    for i, inst in enumerate(d.instances):
        for l in inst.labels:
            out[i, l] = True
    return out
