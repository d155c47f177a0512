import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import mlresample
from mlresample import AttributeSpec, MultiLabelDataset


def cli_env(extra=None):
    """Environment for a ``python -m mlresample.cli`` child process.

    The absolute root of the imported ``mlresample`` package goes first on
    ``PYTHONPATH`` (existing entries are kept after it), so the child finds
    the same package whatever its cwd.  ``extra`` is applied last.
    """
    env = dict(os.environ)
    src_root = str(Path(mlresample.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root, *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))]
    )
    if extra:
        env.update(extra)
    return env


def make_dataset(attrs, labels, rows, name="fixture"):
    """Compact dataset builder: rows are (features tuple, label index list), None for missing."""
    attrs, rows = tuple(attrs), list(rows)
    # numpy reads None as NaN, and a float holds every nominal code exactly
    cells = np.array([f for f, _ in rows], dtype=np.float64).reshape(len(rows), len(attrs))
    nominal = np.array([a.is_nominal for a in attrs], dtype=bool)
    codes = np.where(np.isnan(cells[:, nominal]), -1, cells[:, nominal]).astype(np.int64)
    y = np.zeros((len(rows), len(labels)), dtype=bool)
    for i, (_, active) in enumerate(rows):
        y[i, list(active)] = True
    return MultiLabelDataset(attrs, labels, cells[:, ~nominal], codes, y, name)


def float_range_dataset():
    """Twelve rows at both ends of the float range; the minority label B spans it."""
    rows = [((1.7e308 if i % 2 else -1.7e308,), [0, 1] if i < 4 else [0]) for i in range(12)]
    return make_dataset((AttributeSpec("x"),), ("A", "B"), rows)


@pytest.fixture
def toy6():
    """Six instances over labels A, B, C with labelsets {A}x3, {A,B}, {B}, {A,C}."""
    attrs = (AttributeSpec("f0"), AttributeSpec("color", values=("red", "blue")))
    return make_dataset(
        attrs,
        ("A", "B", "C"),
        [
            ((0.0, 0), [0]),
            ((1.0, 1), [0]),
            ((2.0, 0), [0]),
            ((3.0, 1), [0, 1]),
            ((4.0, 0), [1]),
            ((5.0, 1), [0, 2]),
        ],
        name="toy6",
    )


@st.composite
def datasets(
    draw,
    max_n=20,
    max_k=5,
    max_attrs=4,
    allow_missing=True,
    allow_empty_labelsets=True,
    ensure_all_labels=False,
    quotable_names=False,
    quotable_values=False,
):
    """Random datasets; ``quotable_names`` and ``quotable_values`` draw
    attribute names and nominal values that the ARFF writer must quote."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(max(1, k) if ensure_all_labels else 1, max_n))
    n_attrs = draw(st.integers(1, max_attrs))

    name_alphabet = "abc_0 -\xa0" if quotable_names else "abc_0"
    attrs = []
    for j in range(n_attrs):
        if draw(st.booleans()):
            size = draw(st.integers(2, 4))
            if quotable_values:
                # one quote kind per value: the writer cannot serialise both
                quote = draw(st.sampled_from("'\""))
                symbol = st.text(alphabet="v ,%{}" + quote, min_size=1, max_size=4)
                values = tuple(draw(st.lists(symbol, min_size=size, max_size=size, unique=True)))
            else:
                values = tuple(f"v{j}_{u}" for u in range(size))
            attrs.append(AttributeSpec(name=f"a{j}", values=values))
        else:
            suffix = draw(st.text(alphabet=name_alphabet, min_size=0, max_size=4)).strip()
            attrs.append(AttributeSpec(name=f"a{j}{suffix}" if suffix else f"a{j}"))

    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    rows = []
    for _ in range(n):
        features = []
        for attr in attrs:
            if allow_missing and draw(st.integers(0, 9)) == 0:
                features.append(None)
            elif attr.is_nominal:
                features.append(draw(st.integers(0, len(attr.values) - 1)))
            else:
                features.append(draw(finite))
        active = draw(
            st.sets(st.integers(0, k - 1), min_size=0 if allow_empty_labelsets else 1)
        )
        rows.append((tuple(features), sorted(active)))

    if ensure_all_labels:
        missing = [l for l in range(k) if not any(l in ls for _, ls in rows)]
        for i, l in enumerate(missing):
            features, ls = rows[i % n]
            rows[i % n] = (features, sorted(set(ls) | {l}))

    labels = tuple(chr(ord("A") + l) for l in range(k))
    return make_dataset(attrs, labels, rows, name="generated")


def write_dataset_files(d, directory, stem="data"):
    """Write a MULAN pair into directory, returning (arff_path, xml_path)."""
    from mlresample import write_mulan

    arff_text, xml_text = write_mulan(d)
    arff_path = directory / f"{stem}.arff"
    xml_path = directory / f"{stem}.xml"
    arff_path.write_text(arff_text, encoding="utf-8")
    xml_path.write_text(xml_text, encoding="utf-8")
    return arff_path, xml_path
