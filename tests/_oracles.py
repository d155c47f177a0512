"""Independent brute-force reference implementations used only by the tests.

These mirror the metric definitions with plain loops and direct formula
transcription, deliberately avoiding the library's code paths (log-space
products, sorting shortcuts, vectorization).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from mlresample import MulanFormatError


Row = namedtuple("Row", "features labels")


def rows(d) -> list[Row]:
    """Per row of ``d``: its features as Python scalars in declaration order (None for a
    missing value) and its sorted active label indices."""
    numeric, nominal = iter(d.numeric.T.tolist()), iter(d.nominal.T.tolist())
    columns = [
        [None if v == -1 else v for v in next(nominal)]
        if a.is_nominal
        else [None if v != v else v for v in next(numeric)]  # NaN is missing
        for a in d.attributes
    ]
    features = zip(*columns) if columns else [()] * d.n
    labels = [tuple(l for l, active in enumerate(y) if active) for y in d.y.tolist()]
    return [Row(f, ls) for f, ls in zip(features, labels)]


def oracle_label_counts(d) -> list[int]:
    labelsets = [r.labels for r in rows(d)]
    return [sum(1 for ls in labelsets if l in ls) for l in range(d.k)]


def oracle_card(d) -> float:
    return sum(len(r.labels) for r in rows(d)) / d.n


def oracle_dens(d) -> float:
    return oracle_card(d) / d.k


def oracle_irlbl(d) -> list[float | None]:
    counts = oracle_label_counts(d)
    top = max(counts)
    return [top / c if c > 0 else None for c in counts]


def oracle_mean_ir(d) -> float:
    defined = [v for v in oracle_irlbl(d) if v is not None]
    return sum(defined) / len(defined)


def oracle_scumble_ins(d, i) -> float:
    labels = rows(d)[i].labels
    values = [v for l, v in enumerate(oracle_irlbl(d)) if l in labels]
    if len(values) <= 1:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    geometric = product ** (1.0 / len(values))
    arithmetic = sum(values) / len(values)
    return 1.0 - geometric / arithmetic


def oracle_scumble_values(d) -> list[float]:
    """The original per-instance SCUMBLE loop: the library's operations in its order,
    for a bit-identity check."""
    counts = np.array(oracle_label_counts(d), dtype=np.int64)
    irlbl = np.full(d.k, np.nan)
    irlbl[counts > 0] = counts.max() / counts[counts > 0]
    out = []
    for inst in rows(d):
        values = [float(irlbl[l]) for l in range(d.k) if l in inst.labels]
        if len(values) <= 1:
            out.append(0.0)
            continue
        logs = [math.log(v) for v in values]
        geometric = math.exp(sum(logs) / len(logs))
        arithmetic = sum(values) / len(values)
        out.append(max(0.0, 1.0 - geometric / arithmetic))
    return out


def oracle_scumble(d) -> float:
    return sum(oracle_scumble_ins(d, i) for i in range(d.n)) / d.n


def oracle_ranking_loss(truth, scores) -> float:
    per_instance = []
    for i in range(len(truth)):
        relevant = [l for l in range(len(truth[i])) if truth[i][l]]
        irrelevant = [l for l in range(len(truth[i])) if not truth[i][l]]
        if not relevant or not irrelevant:
            continue
        bad = 0
        for a in relevant:
            for b in irrelevant:
                if scores[i][b] > scores[i][a]:
                    bad += 1
        per_instance.append(bad / (len(relevant) * len(irrelevant)))
    if not per_instance:
        return 0.0
    return sum(per_instance) / len(per_instance)


def oracle_micro_auc(truth, scores) -> float:
    positives = []
    negatives = []
    for i in range(len(truth)):
        for l in range(len(truth[i])):
            (positives if truth[i][l] else negatives).append(scores[i][l])
    if not positives or not negatives:
        return 1.0
    good = 0
    for p in positives:
        for q in negatives:
            if p >= q:
                good += 1
    return good / (len(positives) * len(negatives))


def oracle_distance(d, features_a, features_b, mins, spans) -> float:
    """Feature distance recomputed with plain loops from the documented rules."""
    total = 0.0
    for idx, attr in enumerate(d.attributes):
        va, vb = features_a[idx], features_b[idx]
        if va is None or vb is None:
            total += 1.0
        elif attr.is_nominal:
            total += 0.0 if va == vb else 1.0
        else:
            diff = (va - mins[idx]) / spans[idx] - (vb - mins[idx]) / spans[idx]
            total += diff * diff
    return math.sqrt(total)


def oracle_minmax(d) -> tuple[dict, dict]:
    """Per-numeric-attribute observed min and span (>= tiny epsilon handling: span 1)."""
    mins, spans = {}, {}
    features = [r.features for r in rows(d)]
    for idx, attr in enumerate(d.attributes):
        if attr.is_nominal:
            continue
        values = [f[idx] for f in features if f[idx] is not None]
        if values:
            lo, hi = min(values), max(values)
            mins[idx] = lo
            spans[idx] = (hi - lo) if hi > lo else 1.0
        else:
            mins[idx] = 0.0
            spans[idx] = 1.0
    return mins, spans


def oracle_feature_scaling(d) -> tuple[list[float], list[float], list[float]]:
    """Per numeric attribute the (scale, min, span) of the encoding, one Python loop per column.

    ``FeatureSpace``'s original construction: min and max over the present
    values, both halved (scale 0.5) when their difference overflows a float.
    """
    scales, mins, spans = [], [], []
    features = [r.features for r in rows(d)]
    for idx, attr in enumerate(d.attributes):
        if attr.is_nominal:
            continue
        values = [f[idx] for f in features if f[idx] is not None]
        scale, lo, span = 1.0, 0.0, 1.0
        if values:
            lo, hi = min(values), max(values)
            if hi - lo == math.inf:
                scale, lo, hi = 0.5, lo * 0.5, hi * 0.5
            if hi > lo:
                span = hi - lo
        scales.append(scale)
        mins.append(lo)
        spans.append(span)
    return scales, mins, spans


def oracle_most_frequent_nominal(neighbors, attr_index) -> int | None:
    """Most frequent value of one nominal attribute among instances, ties to the lowest.

    MLSMOTE's original per-attribute vote: missing values are ignored and an
    attribute no instance holds gives ``None``.
    """
    counts: dict[int, int] = {}
    for inst in neighbors:
        v = inst.features[attr_index]
        if v is not None:
            counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def oracle_neighbors(reference, query_rows, k, exclude_self=False) -> list[list[int]]:
    """Per query row (see :func:`rows`), the ``k`` nearest reference indices by a full sort.

    Distances use the reference dataset's scaling; ties go to the lower
    index.  With ``exclude_self`` query ``i`` never picks reference ``i``.
    """
    mins, spans = oracle_minmax(reference)
    reference_rows = rows(reference)
    out = []
    for i, q in enumerate(query_rows):
        ranked = sorted(
            (oracle_distance(reference, q.features, r.features, mins, spans), j)
            for j, r in enumerate(reference_rows)
            if not (exclude_self and j == i)
        )
        out.append([j for _, j in ranked[:k]])
    return out


def oracle_squared_distances(query, reference) -> np.ndarray:
    """Squared distance matrix between encoded rows, one temporary array per column.

    The neighbour engine's original kernel before its square root: numeric
    terms summed in column order with a NaN term counted as 1.0, then one
    +1.0/+0.0 per nominal column.
    """
    q_num, q_nom = query
    r_num, r_nom = reference
    total = np.zeros((q_num.shape[0], r_num.shape[0]))
    for col in range(q_num.shape[1]):
        diff = q_num[:, col, None] - r_num[None, :, col]
        term = diff * diff
        total += np.where(np.isnan(term), 1.0, term)
    for col in range(q_nom.shape[1]):
        qv = q_nom[:, col, None]
        rv = r_nom[None, :, col]
        total += ((qv != rv) | (qv < 0) | (rv < 0)).astype(float)
    return total


def oracle_distances(query, reference) -> np.ndarray:
    """Distance matrix between encoded rows: the square root of :func:`oracle_squared_distances`."""
    return np.sqrt(oracle_squared_distances(query, reference))


def oracle_encoded_neighbors(query, reference, k, exclude=None) -> np.ndarray:
    """The ``k`` nearest reference rows of each encoded query row by a full stable sort.

    Ties go to the lower index; query row ``i`` never picks ``exclude[i]``.
    """
    order = np.argsort(oracle_distances(query, reference), axis=1, kind="stable")
    if exclude is None:
        return order[:, :k]
    return np.array(
        [[j for j in row if j != skip][:k] for row, skip in zip(order.tolist(), exclude)],
        dtype=np.intp,
    ).reshape(len(order), k)


def oracle_minority_labels(d) -> set[int]:
    values = oracle_irlbl(d)
    defined = [v for v in values if v is not None]
    mean = sum(defined) / len(defined)
    return {l for l in range(d.k) if values[l] is not None and values[l] > mean}


def oracle_ml_ros_clones(d, p, rng) -> list[int]:
    """Naive re-simulation of the cloning loop, returning source indices in order.

    Ratios are recounted from scratch after every clone instead of updated
    incrementally, so this checks the library's bookkeeping end to end given
    the same draw protocol (one uniform index per clone, bags in label order).
    """
    budget = math.floor(d.n * p / 100)
    base_counts = oracle_label_counts(d)
    irs = oracle_irlbl(d)
    defined = [v for v in irs if v is not None]
    mean = sum(defined) / len(defined)
    minority = [l for l in range(d.k) if irs[l] is not None and irs[l] > mean]
    labelsets = [r.labels for r in rows(d)]
    bags = {l: [i for i, ls in enumerate(labelsets) if l in ls] for l in minority}
    if not minority or budget == 0:
        return []
    clones: list[int] = []
    active = list(minority)
    while budget > 0 and active:
        for label in list(active):
            if budget == 0:
                break
            members = bags[label]
            clones.append(members[int(rng.integers(0, len(members)))])
            budget -= 1
            counts = list(base_counts)
            for c in clones:
                for l in labelsets[c]:
                    counts[l] += 1
            if max(counts) / counts[label] <= mean:
                active.remove(label)
    return clones


def oracle_mlenn_removed(d, ht, nn) -> list[int]:
    """Instance indices an order-independent re-derivation would delete."""
    minority = oracle_minority_labels(d)
    mins, spans = oracle_minmax(d)
    removed = []
    all_rows = rows(d)
    for i, inst in enumerate(all_rows):
        if set(inst.labels) & minority:
            continue
        ranked = sorted(
            (oracle_distance(d, inst.features, other.features, mins, spans), j)
            for j, other in enumerate(all_rows)
            if j != i
        )
        neighbors = [j for _, j in ranked[:nn]]
        differing = 0
        for j in neighbors:
            a, b = set(inst.labels), set(all_rows[j].labels)
            union = len(a | b)
            if union and len(a ^ b) / union > ht:
                differing += 1
        if differing >= nn / 2:
            removed.append(i)
    return removed


def oracle_stratified_fold_of(d, folds, seed) -> tuple[int, ...]:
    """The fold of each instance as label-stratified k-fold first assigned it,
    one numpy call per step for every instance placed."""
    rng = np.random.default_rng(seed)
    n = d.n
    y = d.y

    capacity = np.full(folds, n // folds, dtype=np.int64)
    capacity[: n % folds] += 1
    sizes = capacity.copy()
    demand = y.sum(axis=0, dtype=float)[None, :] * (sizes[:, None] / n)

    fold_of = np.full(n, -1, dtype=np.int64)
    remaining = y.sum(axis=0).astype(np.int64)

    def place(i, label):
        open_folds = np.flatnonzero(capacity > 0)
        if label is not None:
            best = demand[open_folds, label].max()
            open_folds = open_folds[np.isclose(demand[open_folds, label], best)]
        if open_folds.size > 1:
            most_room = capacity[open_folds].max()
            open_folds = open_folds[capacity[open_folds] == most_room]
        pick = open_folds[0] if open_folds.size == 1 else rng.choice(open_folds)
        fold_of[i] = pick
        capacity[pick] -= 1
        demand[pick, y[i]] -= 1.0
        remaining[y[i]] -= 1

    while True:
        open_labels = np.flatnonzero(remaining > 0)
        if open_labels.size == 0:
            break
        label = open_labels[np.argmin(remaining[open_labels])]
        pool = np.flatnonzero(y[:, label] & (fold_of < 0))
        if pool.size > 1:
            pool = rng.permutation(pool)
        for i in pool:
            place(int(i), int(label))

    leftovers = np.flatnonzero(fold_of < 0)
    if leftovers.size > 1:
        leftovers = rng.permutation(leftovers)
    for i in leftovers:
        place(int(i), None)
    return tuple(int(f) for f in fold_of)


def oracle_split(text, sep, line_no) -> list[str]:
    """Split on ``sep`` outside quoted regions with a scan over every character.

    The ARFF reader's original tokeniser; tokens come back stripped.
    """
    parts = []
    buf = []
    quote = None
    for ch in text:
        if quote is not None:
            buf.append(ch)
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
            buf.append(ch)
        elif ch == sep:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    if quote is not None:
        raise MulanFormatError("unterminated quote", line_no)
    parts.append("".join(buf).strip())
    return parts


def _oracle_quote(text) -> str:
    if text and not any(c.isspace() or c in ",{}%'\"" for c in text):
        return text
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    raise ValueError(f"cannot serialize token mixing both quote kinds: {text!r}")


def oracle_write_mulan(d) -> tuple[str, str]:
    """The ARFF writer's original cell-by-cell serialisation of a dataset."""
    lines = [f"@relation {_oracle_quote(d.name)}", ""]
    for attr in d.attributes:
        if attr.is_nominal:
            decl = "{" + ",".join(_oracle_quote(v) for v in attr.values) + "}"
        else:
            decl = "numeric"
        lines.append(f"@attribute {_oracle_quote(attr.name)} {decl}")
    for name in d.labels:
        lines.append(f"@attribute {_oracle_quote(name)} {{0,1}}")
    lines.append("")
    lines.append("@data")
    for inst in rows(d):
        cells = []
        for value, attr in zip(inst.features, d.attributes):
            if value is None:
                cells.append("?")
            elif attr.is_nominal:
                cells.append(_oracle_quote(attr.values[value]))
            else:
                cells.append(repr(value))
        cells.extend("1" if l in inst.labels else "0" for l in range(d.k))
        lines.append(",".join(cells))
    arff_text = "\n".join(lines) + "\n"

    xml_lines = ['<?xml version="1.0" encoding="utf-8"?>']
    xml_lines.append('<labels xmlns="http://mulan.sourceforge.net/labels">')
    for name in d.labels:
        escaped = name.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        escaped = escaped.replace("\t", "&#9;")
        xml_lines.append(f'  <label name="{escaped}"></label>')
    xml_lines.append("</labels>")
    return arff_text, "\n".join(xml_lines) + "\n"
