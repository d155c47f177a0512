"""Seeded MULAN input generators for the benchmark workloads.

The generators and writers here use numpy only, never the package under
test, so a change to ``mlresample.synthetic`` or to ``write_mulan`` cannot
change the benchmark's inputs.  The same seed gives byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

MULAN_NS = "http://mulan.sourceforge.net/labels"


def imbalanced_arrays(seed: int, n: int, k: int, n_numeric: int, concurrence_rate: float = 0.45):
    """Dense numeric set after the recipe of ``mlresample.synthetic.imbalanced_dataset``.

    Labels 0 and 1 are frequent; the rest follow a 0.7**i frequency ramp and
    mostly ride along with a frequent label, which keeps both MeanIR and
    SCUMBLE high.  Features are noisy means of per-label centroids, rounded
    to six decimals as in the MULAN files, plus one nominal marker column.
    Returns (numeric (n, n_numeric) float, group (n,) int, labels (n, k) bool).
    """
    if k < 4:
        raise ValueError("need at least four labels for the frequency ramp")
    rng = np.random.default_rng(seed)
    rare_weights = 0.7 ** np.arange(k - 2)
    rare_weights /= rare_weights.sum()
    centroids = rng.uniform(-3, 3, size=(k, n_numeric))

    y = np.zeros((n, k), dtype=bool)
    rows = np.arange(n)
    y[:, 0] = rng.random(n) < 0.80
    y[:, 1] = rng.random(n) < 0.45
    concur = rng.random(n) < concurrence_rate
    first = 2 + rng.choice(k - 2, size=n, p=rare_weights)
    second = 2 + rng.choice(k - 2, size=n, p=rare_weights)
    add_second = concur & (rng.random(n) < 0.25)
    lone = concur & ~(y[:, 0] | y[:, 1]) & (rng.random(n) < 0.9)
    y[rows[concur], first[concur]] = True
    y[rows[add_second], second[add_second]] = True
    y[lone, 0] = True
    y[~y.any(axis=1), 0] = True
    # Pin a floor of two occurrences per label so every IRLbl is defined.
    for label in range(k):
        for _ in range(max(0, 2 - int(y[:, label].sum()))):
            i = int(rng.integers(0, n))
            y[i, label] = True
            y[i, 0] = True

    means = (y.astype(float) @ centroids) / y.sum(axis=1, keepdims=True)
    numeric = np.round(rng.normal(means, 0.6), 6)
    group = y.argmax(axis=1) % 3
    return numeric, group, y


def text_arrays(seed: int, n: int, n_words: int, k: int, zipf_s: float = 1.1):
    """Sparse binary bag-of-words set shaped like enron or medical.

    Label frequencies follow a Zipf law; each instance takes one label plus a
    Poisson(0.8) number of extra ones.  Each label owns six topical words
    that appear with probability 0.4 in its instances, on top of a 1.5%
    background rate, so the word density is about 3%.
    Returns (words (n, n_words) bool, labels (n, k) bool).
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, k + 1) ** zipf_s
    weights /= weights.sum()
    y = np.zeros((n, k), dtype=bool)
    sizes = np.minimum(1 + rng.poisson(0.8, size=n), k)
    for i in range(n):
        y[i, rng.choice(k, size=sizes[i], replace=False, p=weights)] = True
    for label in range(k):
        for _ in range(max(0, 2 - int(y[:, label].sum()))):
            y[int(rng.integers(0, n)), label] = True

    topics = np.stack([rng.choice(n_words, size=6, replace=False) for _ in range(k)])
    prob = np.full((n, n_words), 0.015)
    for label in range(k):
        holders = y[:, label]
        prob[np.ix_(holders, topics[label])] = 0.4
    words = rng.random((n, n_words)) < prob
    return words, y


def _header(relation: str, feature_decls: list[str], label_names: list[str]) -> list[str]:
    lines = [f"@relation {relation}", ""]
    lines.extend(f"@attribute {decl}" for decl in feature_decls)
    lines.extend(f"@attribute {name} {{0,1}}" for name in label_names)
    lines.extend(["", "@data"])
    return lines


def labels_xml(label_names: list[str]) -> str:
    body = "".join(f'  <label name="{name}"></label>\n' for name in label_names)
    return f'<?xml version="1.0" encoding="utf-8"?>\n<labels xmlns="{MULAN_NS}">\n{body}</labels>\n'


def dense_arff(relation: str, numeric: np.ndarray, group: np.ndarray, y: np.ndarray) -> str:
    """Dense rows: numeric columns, a three-valued nominal ``group``, then labels."""
    names = [f"L{l}" for l in range(y.shape[1])]
    decls = [f"x{j} numeric" for j in range(numeric.shape[1])] + ["group {g0,g1,g2}"]
    lines = _header(relation, decls, names)
    flags = np.where(y, "1", "0")
    for values, g, bits in zip(numeric.tolist(), group.tolist(), flags.tolist()):
        lines.append(",".join(map(repr, values)) + f",g{g}," + ",".join(bits))
    return "\n".join(lines) + "\n"


def sparse_arff(relation: str, words: np.ndarray, y: np.ndarray) -> str:
    """Sparse ``{index value, ...}`` rows over {0,1} word columns, then labels.

    Only the ones are listed, the way MULAN text sets are distributed.
    """
    n_words = words.shape[1]
    names = [f"T{l}" for l in range(y.shape[1])]
    decls = [f"w{j} {{0,1}}" for j in range(n_words)]
    lines = _header(relation, decls, names)
    for w_row, y_row in zip(words, y):
        active = np.concatenate([np.flatnonzero(w_row), n_words + np.flatnonzero(y_row)])
        lines.append("{" + ",".join(f"{i} 1" for i in active.tolist()) + "}")
    return "\n".join(lines) + "\n"


def write_pair(directory: Path, stem: str, arff_text: str, xml_text: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{stem}.arff").write_text(arff_text)
    (directory / f"{stem}.xml").write_text(xml_text)
