"""Independent brute-force reference implementations used only by the tests.

These mirror the metric definitions with plain loops and direct formula
transcription, deliberately avoiding the library's code paths (log-space
products, sorting shortcuts, vectorization).
"""

from __future__ import annotations

import math


def oracle_label_counts(d) -> list[int]:
    return [sum(1 for inst in d.instances if l in inst.labels) for l in range(d.k)]


def oracle_card(d) -> float:
    return sum(len(inst.labels) for inst in d.instances) / d.n


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
    values = [v for l, v in enumerate(oracle_irlbl(d)) if l in d.instances[i].labels]
    if len(values) <= 1:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    geometric = product ** (1.0 / len(values))
    arithmetic = sum(values) / len(values)
    return 1.0 - geometric / arithmetic


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
    for idx, attr in enumerate(d.attributes):
        if attr.is_nominal:
            continue
        values = [inst.features[idx] for inst in d.instances if inst.features[idx] is not None]
        if values:
            lo, hi = min(values), max(values)
            mins[idx] = lo
            spans[idx] = (hi - lo) if hi > lo else 1.0
        else:
            mins[idx] = 0.0
            spans[idx] = 1.0
    return mins, spans


def oracle_neighbors(reference, query_instances, k, exclude_self=False) -> list[list[int]]:
    """Per query instance, the ``k`` nearest reference indices by a full sort.

    Distances use the reference dataset's scaling; ties go to the lower
    index.  With ``exclude_self`` query ``i`` never picks reference ``i``.
    """
    mins, spans = oracle_minmax(reference)
    out = []
    for i, q in enumerate(query_instances):
        ranked = sorted(
            (oracle_distance(reference, q.features, r.features, mins, spans), j)
            for j, r in enumerate(reference.instances)
            if not (exclude_self and j == i)
        )
        out.append([j for _, j in ranked[:k]])
    return out


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
    bags = {l: [i for i, inst in enumerate(d.instances) if l in inst.labels] for l in minority}
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
                for l in d.instances[c].labels:
                    counts[l] += 1
            if max(counts) / counts[label] <= mean:
                active.remove(label)
    return clones


def oracle_mlenn_removed(d, ht, nn) -> list[int]:
    """Instance indices an order-independent re-derivation would delete."""
    minority = oracle_minority_labels(d)
    mins, spans = oracle_minmax(d)
    removed = []
    for i, inst in enumerate(d.instances):
        if set(inst.labels.indices) & minority:
            continue
        ranked = sorted(
            (oracle_distance(d, inst.features, other.features, mins, spans), j)
            for j, other in enumerate(d.instances)
            if j != i
        )
        neighbors = [j for _, j in ranked[:nn]]
        differing = 0
        for j in neighbors:
            a, b = set(inst.labels.indices), set(d.instances[j].labels.indices)
            union = len(a | b)
            if union and len(a ^ b) / union > ht:
                differing += 1
        if differing >= nn / 2:
            removed.append(i)
    return removed
