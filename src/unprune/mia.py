"""Membership-inference evaluation over five per-sample feature channels.

For each channel (correctness, confidence, entropy, modified entropy,
true-class probability) a threshold attacker is fit on a held-in half of the
member/non-member pool and scored on the held-out half with balanced attack
accuracy. Members are resampled to a requested member:non-member ratio,
which is the knob the fragility study sweeps: tiny ratio perturbations move
the fitted thresholds and the scores with them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, write_csv
from .errors import InputError
from .model import MaskedModel, forward
from .numeric import SeededRng, blas_scope, round_count, softmax

CHANNELS = ("correctness", "confidence", "entropy", "m_entropy", "probability")

_CLIP = 1e-12


@dataclass(frozen=True)
class MIAReport:
    ratio: float
    correctness: float
    confidence: float
    entropy: float
    m_entropy: float
    probability: float
    n_member: int
    n_nonmember: int
    resampled_with_replacement: bool = False

    def score(self, channel: str) -> float:
        if channel not in CHANNELS:
            raise InputError(f"unknown MIA channel {channel!r}")
        return getattr(self, channel)


def mia_features(
    model: MaskedModel, dataset: Dataset, rows: np.ndarray
) -> dict[str, np.ndarray]:
    """Per-sample attack features: one array per channel of ``CHANNELS``,
    each with one entry per row of ``rows``.

    correctness = 1 where the argmax class is the label y, else 0
    confidence  = max_k p_k
    entropy     = -sum_k p_k log p_k
    m_entropy   = -(1 - p_y) log p_y - sum_{k != y} p_k log(1 - p_k)
                  (label-aware modified entropy; 0 for a confident correct hit)
    probability = p_y
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        raise InputError("feature row set is empty")
    p = softmax(forward(model, dataset.inputs[rows]))
    y = dataset.labels[rows]
    idx = np.arange(len(rows))
    p_true = p[idx, y]
    log_p = np.log(np.maximum(p, _CLIP))
    log_1mp = np.log(np.maximum(1.0 - p, _CLIP))
    m_entropy = -(1.0 - p_true) * log_p[idx, y]
    m_entropy -= (p * log_1mp).sum(axis=1) - p_true * log_1mp[idx, y]
    return {
        "correctness": (np.argmax(p, axis=1) == y).astype(np.float64),
        "confidence": p.max(axis=1),
        "entropy": -(p * log_p).sum(axis=1),
        "m_entropy": m_entropy,
        "probability": p_true,
    }


def _member_counts(sorted_vals: np.ndarray, thresholds, direction: int):
    """How many of ``sorted_vals`` each threshold predicts as members.

    The single definition of a threshold prediction: direction +1 predicts
    member when value >= threshold, -1 when value <= threshold.
    ``sorted_vals`` must be ascending (``np.sort``).
    """
    if direction == 1:
        return len(sorted_vals) - np.searchsorted(sorted_vals, thresholds, "left")
    return np.searchsorted(sorted_vals, thresholds, "right")


def _balanced_accuracies(member_sorted, nonmember_sorted, thresholds, direction):
    """Balanced accuracy (TPR + TNR) / 2 of every threshold.

    ``bool_array.mean()`` of a prediction is a float64 sum of ones divided
    by the length, so count / length here goes through the same IEEE
    operations and every element equals the per-threshold score bit for bit.
    """
    tpr = _member_counts(member_sorted, thresholds, direction) / len(member_sorted)
    tnr = 1.0 - _member_counts(nonmember_sorted, thresholds, direction) / len(
        nonmember_sorted
    )
    return (tpr + tnr) / 2.0


def _fit_threshold(member_vals: np.ndarray, nonmember_vals: np.ndarray):
    """Pick (threshold, direction) maximizing balanced accuracy on the fit pool.

    Candidates are the midpoints between consecutive distinct pooled values
    plus one point below the smallest and one above the largest. Both sides
    are sorted once, and ``np.searchsorted`` counts the predicted members of
    every candidate in both directions in one pass, giving a
    (candidates, 2) accuracy table.

    Tie rule: the table is scanned in ascending threshold order, direction
    +1 before -1, and a candidate replaces the best only when it beats it by
    more than 1e-15. Ties therefore resolve to the lowest threshold with +1
    preferred, so the fit is deterministic for identical inputs. ``argmax``
    is not used because it is not this rule: it takes the first exact
    maximum, while the scan keeps an earlier accuracy that a later one beats
    by at most 1e-15 (accuracies that are equal in exact arithmetic can
    round one ulp apart). Values must be finite.
    """
    member_sorted = np.sort(member_vals)
    nonmember_sorted = np.sort(nonmember_vals)
    cuts = np.unique(np.concatenate([member_sorted, nonmember_sorted]))
    candidates = np.concatenate([[cuts[0] - 1.0], (cuts[:-1] + cuts[1:]) / 2.0,
                                 [cuts[-1] + 1.0]])
    acc = np.stack(
        [_balanced_accuracies(member_sorted, nonmember_sorted, candidates, d)
         for d in (1, -1)],
        axis=1,
    )
    best_acc, best = -1.0, 0
    for k, value in enumerate(acc.ravel().tolist()):
        if value > best_acc + 1e-15:
            best_acc, best = value, k
    return float(candidates[best // 2]), (1, -1)[best % 2]


def _score_threshold(threshold, direction, member_vals, nonmember_vals) -> float:
    return float(_balanced_accuracies(
        np.sort(member_vals), np.sort(nonmember_vals), threshold, direction
    ))


def mia_evaluate(
    model: MaskedModel,
    member_data: Dataset,
    member_rows: np.ndarray,
    nonmember_data: Dataset,
    nonmember_rows: np.ndarray,
    ratio: float,
    rng: SeededRng,
) -> MIAReport:
    """Per-channel attack scores for one member:non-member ratio.

    Members (typically forgotten training rows) and non-members (typically
    held-out rows) may come from different datasets. Members are resampled
    to round(ratio * n_nonmember) rows (with replacement when the pool is
    too small, flagged in the report); each channel is fit on a held-in half
    and scored on the held-out half by the best threshold per channel.
    """
    return _attacker(model, member_data, member_rows, nonmember_data,
                     nonmember_rows)(ratio, rng)


def _attacker(model, member_data, member_rows, nonmember_data,
              nonmember_rows):
    """``mia_evaluate`` as a function of (ratio, rng), with the rows checked
    and the non-members featurized once for every ratio it is called at."""
    member_rows = np.asarray(member_rows, dtype=np.int64)
    nonmember_rows = np.asarray(nonmember_rows, dtype=np.int64)
    if len(member_rows) == 0 or len(nonmember_rows) == 0:
        raise InputError("member and non-member row sets must be nonempty")
    feats_n = mia_features(model, nonmember_data, nonmember_rows)

    def evaluate(ratio: float, rng: SeededRng) -> MIAReport:
        if ratio <= 0:
            raise InputError(f"ratio must be > 0, got {ratio}")
        n_member = round_count(ratio * len(nonmember_rows))
        if n_member < 2 or len(nonmember_rows) < 2:
            raise InputError(
                "degenerate attack set: need at least 2 members and 2 "
                "non-members"
            )
        replace = n_member > len(member_rows)
        picked = member_rows[rng.choice(len(member_rows), n_member,
                                        replace=replace)]
        feats_m = mia_features(model, member_data, picked)

        half_m = n_member // 2
        half_n = len(nonmember_rows) // 2
        order_m = rng.permutation(n_member)
        order_n = rng.permutation(len(nonmember_rows))

        scores = {}
        for channel in CHANNELS:
            vals_m = feats_m[channel][order_m]
            vals_n = feats_n[channel][order_n]
            threshold, direction = _fit_threshold(vals_m[:half_m],
                                                  vals_n[:half_n])
            scores[channel] = _score_threshold(
                threshold, direction, vals_m[half_m:], vals_n[half_n:]
            )
        return MIAReport(
            ratio=float(ratio),
            n_member=n_member,
            n_nonmember=len(nonmember_rows),
            resampled_with_replacement=replace,
            **scores,
        )

    return evaluate


def ratio_sweep(
    model: MaskedModel,
    member_data: Dataset,
    member_rows: np.ndarray,
    nonmember_data: Dataset,
    nonmember_rows: np.ndarray,
    ratios: list[float],
    rng: SeededRng,
) -> list[MIAReport]:
    """One MIAReport per ratio: the fragility curve.

    Each sweep point derives its own stream from the ratio value, so equal
    ratios always reproduce identical reports regardless of position. The
    model and the non-member rows are the same at every ratio, so they are
    featurized once.
    """
    if not len(ratios):
        raise InputError("ratios must be nonempty")
    with blas_scope():
        evaluate = _attacker(model, member_data, member_rows, nonmember_data,
                             nonmember_rows)
        return [evaluate(r, rng.split(f"ratio={float(r)!r}")) for r in ratios]


def sweep_to_csv(reports: list[MIAReport], path: str) -> None:
    write_csv(path, ("ratio", *CHANNELS),
              [(rep.ratio, *(rep.score(c) for c in CHANNELS))
               for rep in reports])
