"""Label decoupling for instances where minority and majority labels concur.

``remedial`` splits every instance whose per-instance concurrence score
exceeds a threshold into two instances sharing the feature vector: the
original keeps the minority labels (IRLbl above the dataset IRLbl mean), an
appended clone keeps the majority labels.  The threshold is either the mean
of the per-instance scores or a chosen quantile of them.  ``hybrid_resample``
takes a :class:`DecoupleConfig`, a base method config and a seed, and runs
that resampler on the decoupled dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dataset import MultiLabelDataset
from .metrics import profile
from .resampling import AddedInstance, ResampleMethod, ResampleReport, _check_run, _report, resample

PERCENTILE_PRESETS = (0.25, 0.37, 0.50, 0.62, 0.75)


@dataclass(frozen=True)
class DecoupleConfig:
    """Threshold choice for the decoupling pass.

    ``mode`` is ``"mean"`` (threshold = dataset concurrence score) or
    ``"percentile"`` with ``q`` in (0, 1); the study presets live in
    :data:`PERCENTILE_PRESETS`.  With ``drop_empty``, a split row with no
    minority label is removed from its place and its majority copy appended
    at the end, so the report lists it once as removed and once as added; a
    split row with no majority label is kept whole and nothing is appended.
    """

    mode: str = "mean"
    q: float | None = None
    drop_empty: bool = False

    def __post_init__(self):
        if self.mode not in ("mean", "percentile"):
            raise ValueError(f"unknown threshold mode {self.mode!r}")
        if self.mode == "percentile":
            if self.q is None or not 0 < self.q < 1:
                raise ValueError("percentile mode needs q in (0, 1)")
        elif self.q is not None:
            raise ValueError("mean mode takes no quantile")

    @classmethod
    def from_spec(cls, text: str, drop_empty: bool = False) -> DecoupleConfig:
        """Parse ``"mean"`` or ``"pNN"`` (NN percent, e.g. ``p25``)."""
        if text == "mean":
            return cls(drop_empty=drop_empty)
        if text.startswith("p") and text[1:].isascii() and text[1:].isdigit():
            q = int(text[1:]) / 100.0
            if 0 < q < 1:
                return cls(mode="percentile", q=q, drop_empty=drop_empty)
        raise ValueError(f"bad decoupling threshold {text!r} (expected 'mean' or 'pNN')")

    def spec_string(self) -> str:
        if self.mode == "mean":
            return "mean"
        return f"p{round(self.q * 100):02d}"


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Inclusive nearest-rank quantile: the ceil(q*n)-th smallest value.

    The rank is computed exactly on ``q`` as written (``0.07`` is seven
    hundredths, not the binary float nearest to it), so ``q * n`` rounding up
    past a whole number cannot move it.
    """
    if values.size == 0:
        raise ValueError("quantile of an empty vector")
    if not 0 < q < 1:
        raise ValueError("q must be in (0, 1)")
    rank = max(1, math.ceil(Fraction(str(float(q))) * values.size))
    return float(np.sort(values, kind="stable")[rank - 1])


def remedial(
    d: MultiLabelDataset, config: DecoupleConfig = DecoupleConfig()
) -> tuple[MultiLabelDataset, ResampleReport]:
    """Split high-concurrence instances into a minority and a majority copy.

    IRLbl, its mean and the per-instance scores are computed once on the
    input.  Instances scoring strictly above the threshold are split in
    place: the original keeps labels with IRLbl above the mean, the appended
    clone keeps the rest.  Untouched instances pass through bit-identical and
    in order.  Deterministic; no randomness involved.
    """
    if d.n < 1:
        raise ValueError("cannot decouple an empty dataset")
    before = profile(d)
    scores = np.array(before.scumble_ins)
    if config.mode == "mean":
        threshold = before.scumble  # the mean of the scores
    else:
        threshold = nearest_rank_quantile(scores, config.q)
    minority = before.minority

    split = scores > threshold
    # a split instance keeps its minority labels; an appended copy takes the rest
    y = np.where(split[:, None], d.y & minority, d.y)
    majority = d.y & ~minority
    dropped = split & config.drop_empty & ~y.any(axis=1)
    kept = np.flatnonzero(~dropped)
    appended = np.flatnonzero(split & ~(config.drop_empty & ~majority.any(axis=1)))
    rows = np.concatenate([kept, appended])
    out = MultiLabelDataset(
        d.attributes,
        d.labels,
        d.numeric[rows],
        d.nominal[rows],
        np.concatenate([y[kept], majority[appended]]),
        d.name,
    )
    added = [AddedInstance(kind="clone", source=i) for i in appended.tolist()]
    removed = np.flatnonzero(dropped).tolist()
    return out, _report(d, out, before, added, removed, np.flatnonzero(split).tolist())


def hybrid_resample(
    d: MultiLabelDataset, decouple: DecoupleConfig, method: ResampleMethod, seed: int = 0
) -> tuple[MultiLabelDataset, ResampleReport]:
    """Decouple with ``decouple``, then :func:`resample` the result with ``method``
    and ``seed``, which are checked before the decoupling pass runs.

    The resampler sees the decoupled dataset, so its minority bags follow the
    decoupled IRLbl/MeanIR.  The combined report chains both stage records;
    stage indices refer to the dataset each stage ran on.
    """
    _check_run(method, seed)
    decoupled_d, first = remedial(d, decouple)
    out, second = resample(decoupled_d, method, seed)
    return out, ResampleReport(
        instances_before=d.n,
        instances_after=out.n,
        added=first.added + second.added,
        removed=first.removed + second.removed,
        profile_before=first.profile_before,
        profile_after=second.profile_after,
        decoupled=first.decoupled,
        stages=(first, second),
    )
