"""Membership-inference evaluation over five per-sample feature channels.

For each channel (correctness, confidence, entropy, modified entropy,
true-class probability) a threshold attacker is fit on a held-in half of the
member/non-member pool and scored on the held-out half with balanced attack
accuracy. Members are resampled to a requested member:non-member ratio,
which is the knob the fragility study sweeps: tiny ratio perturbations move
the fitted thresholds and the scores with them.

A sweep is one batched attack. The member pool and the non-member pool are
each featurized once (two forward passes per sweep), and each ratio gathers
the feature rows of the members it drew, from its own
``rng.split("ratio=...")`` stream. Every (channel, ratio) row is then fitted
in one exact rank computation, ``_fit_thresholds``: one stable argsort of
the NaN-padded fit halves and cumulative member and non-member counts at
the cuts between distinct values give every candidate's accuracy, and the
1e-15 tie rule is scanned over the strict prefix maxima only. Held-out
scores are direct comparison counts (``_score_thresholds``). The result
equals a per-candidate comparison loop bit for bit (``tests/test_mia.py``).
Every ratio reads the same forward pass of the member pool, so a member's
features do not depend on how many members the ratio drew (BLAS rounds the
last bits of a row differently by batch size).
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


def _sorted_pool(fit_m: np.ndarray, fit_n: np.ndarray):
    """Each row's pooled fit values in ascending order, NaN pads last, and
    which of them came from the member side. (A function of its own so the
    pooled copy and the sort order are freed before the counts are built.)"""
    pooled = np.concatenate([fit_m, fit_n], axis=1)
    order = np.argsort(pooled, axis=1, kind="stable")
    return np.take_along_axis(pooled, order, axis=1), order < fit_m.shape[1]


def _fit_thresholds(fit_m: np.ndarray, fit_n: np.ndarray):
    """Best (threshold, direction) of every row of a batch of fit pools.

    Row r's member and non-member fit values are the non-NaN entries of
    ``fit_m[r]`` and ``fit_n[r]``; NaN pads rows of unequal size, sorts
    last and is never counted. Values must be finite, and so must the sum
    of any two. Direction +1 predicts member when value >= threshold, -1
    when value <= threshold.

    Candidates are the midpoints between consecutive distinct pooled values
    plus one point below the smallest and one above the largest. One stable
    argsort of the pooled rows puts every candidate at a boundary between
    runs of equal values, and cumulative member and non-member counts at
    the boundary give each candidate's predictions in both directions. A
    midpoint of adjacent doubles rounds onto an endpoint, which then counts
    as predicted too: the count moves to the start of the run below (+1) or
    the end of the run above (-1). Accuracies are count / n, 1.0 - count /
    n and (tpr + tnr) / 2.0 of the same integer counts that a comparison
    and ``bool_array.mean()`` per candidate make, so they are equal bit for
    bit.

    Tie rule: the candidates are scanned in ascending threshold order,
    direction +1 before -1, and one replaces the best only when it beats it
    by more than 1e-15. Ties therefore resolve to the lowest threshold with
    +1 preferred, so the fit is deterministic for identical inputs. Every
    candidate the rule accepts is a strict prefix maximum of the scan, so
    only those are scanned; where each beats the one before by more than
    1e-15, the last of them, the first maximum, is the answer. ``argmax``
    alone is not the rule: the scan keeps an earlier accuracy that a later
    one beats by at most 1e-15 (accuracies that are equal in exact
    arithmetic can round one ulp apart).
    """
    vals, from_m = _sorted_pool(fit_m, fit_n)
    rows, width = vals.shape
    r = np.arange(rows)[:, None]
    col = np.arange(width + 1, dtype=np.int32)
    n_m = np.count_nonzero(~np.isnan(fit_m), axis=1)[:, None]
    n_n = np.count_nonzero(~np.isnan(fit_n), axis=1)[:, None]
    size = n_m + n_n
    # Cut i lies between sorted values i - 1 and i; cut `size` lies above
    # the last value. m_below[i] members and n_below[i] non-members lie
    # below cut i (for i <= size: the NaN pads sort after every value).
    m_below = np.zeros((rows, width + 1), np.int32)
    np.cumsum(from_m, axis=1, out=m_below[:, 1:])
    n_below = col - m_below
    cand = np.full((rows, width + 1), np.nan)
    np.add(vals[:, :-1], vals[:, 1:], out=cand[:, 1:-1])
    cand[:, 1:-1] /= 2.0
    cand[:, 0] = vals[:, 0] - 1.0
    cand[r, size] = vals[r, size - 1] + 1.0
    boundary = np.ones((rows, width + 1), bool)
    np.not_equal(vals[:, :-1], vals[:, 1:], out=boundary[:, 1:-1])
    boundary &= col <= size

    # +1 hits are the values at or above a cut, -1 hits those below it. A
    # candidate that rounds onto the value below its cut also predicts that
    # value's whole run at +1, so it takes the +1 hits of the cut that
    # starts the run; one that rounds onto the value above takes the -1
    # hits of the cut that ends that run. Every row starts and ends with a
    # cut, so the neighbouring cut in the flat list is in the same row.
    cuts = np.flatnonzero(boundary)
    onto_lo = np.zeros_like(boundary)
    np.equal(cand[:, 1:], vals, out=onto_lo[:, 1:])
    onto_hi = np.zeros_like(boundary)
    np.equal(cand[:, :-1], vals, out=onto_hi[:, :-1])
    at_lo = np.flatnonzero(onto_lo & boundary)
    at_hi = np.flatnonzero(onto_hi & boundary)
    run_start = cuts[np.searchsorted(cuts, at_lo) - 1]
    run_end = cuts[np.searchsorted(cuts, at_hi, "right")]
    m_up, n_up = n_m - m_below, n_n - n_below
    m_up.flat[at_lo] = m_up.flat[run_start]
    n_up.flat[at_lo] = n_up.flat[run_start]
    m_below.flat[at_hi] = m_below.flat[run_end]
    n_below.flat[at_hi] = n_below.flat[run_end]

    # The scan order: candidate by candidate, direction +1 then -1.
    acc = np.empty((rows, width + 1, 2))
    acc[:, :, 0] = (m_up / n_m + (1.0 - n_up / n_n)) / 2.0
    acc[:, :, 1] = (m_below / n_m + (1.0 - n_below / n_n)) / 2.0
    acc[~boundary] = -np.inf
    acc = acc.reshape(rows, -1)

    best = np.argmax(acc, axis=1)
    prev = np.maximum.accumulate(acc, axis=1)[:, :-1]
    rise = acc[:, 1:] > prev
    close = rise & (acc[:, 1:] <= prev + 1e-15)
    for row in np.flatnonzero(close.any(axis=1)).tolist():
        best_acc, best_k = float(acc[row, 0]), 0
        for k in (np.flatnonzero(rise[row]) + 1).tolist():
            if acc[row, k] > best_acc + 1e-15:
                best_acc, best_k = float(acc[row, k]), k
        best[row] = best_k
    return cand[r[:, 0], best // 2], np.where(best % 2, -1, 1)


def _score_thresholds(thresholds, directions, held_m, held_n) -> np.ndarray:
    """Held-out balanced accuracy of each row's (threshold, direction).

    Rows are NaN-padded as in ``_fit_thresholds``; a NaN compares false, so
    only the row's values are counted.
    """
    t = thresholds[:, None]
    up = (directions == 1)[:, None]

    def rate(vals):
        hits = np.count_nonzero(np.where(up, vals >= t, vals <= t), axis=1)
        return hits / np.count_nonzero(~np.isnan(vals), axis=1)

    return (rate(held_m) + (1.0 - rate(held_n))) / 2.0


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
    return _attack(model, member_data, member_rows, nonmember_data,
                   nonmember_rows, [(ratio, rng)])[0]


def _attack(model, member_data, member_rows, nonmember_data, nonmember_rows,
            draws):
    """``mia_evaluate`` at every (ratio, rng) of ``draws``, as one batch.

    Each pool is featurized once; each ratio draws member indices into the
    member pool and gathers their feature rows. Every (channel, ratio) row
    is then fitted and scored in one ``_fit_thresholds`` and one
    ``_score_thresholds`` call.
    """
    member_rows = np.asarray(member_rows, dtype=np.int64)
    nonmember_rows = np.asarray(nonmember_rows, dtype=np.int64)
    if len(member_rows) == 0 or len(nonmember_rows) == 0:
        raise InputError("member and non-member row sets must be nonempty")
    n_pool, n_non = len(member_rows), len(nonmember_rows)
    feats_n = mia_features(model, nonmember_data, nonmember_rows)

    member_orders, nonmember_orders, replaced = [], [], []
    for ratio, rng in draws:
        if ratio <= 0:
            raise InputError(f"ratio must be > 0, got {ratio}")
        n_member = round_count(ratio * n_non)
        if n_member < 2 or n_non < 2:
            raise InputError(
                "degenerate attack set: need at least 2 members and 2 "
                "non-members"
            )
        replaced.append(n_member > n_pool)
        chosen = rng.choice(n_pool, n_member, replace=replaced[-1])
        member_orders.append(chosen[rng.permutation(n_member)])
        nonmember_orders.append(rng.permutation(n_non))
    feats_m = mia_features(model, member_data, member_rows)

    # (channel, pool row) feature tables; the member table's extra NaN
    # column is the pad of the shorter member halves.
    table_m = np.stack([np.append(feats_m[c], np.nan) for c in CHANNELS])
    table_n = np.stack([feats_n[c] for c in CHANNELS])
    fit_m = _padded([o[:len(o) // 2] for o in member_orders], n_pool)
    held_m = _padded([o[len(o) // 2:] for o in member_orders], n_pool)
    order_n = np.stack(nonmember_orders)
    half_n = n_non // 2
    rows = len(CHANNELS) * len(draws)
    thresholds, directions = _fit_thresholds(
        table_m[:, fit_m].reshape(rows, -1),
        table_n[:, order_n[:, :half_n]].reshape(rows, -1))
    scores = _score_thresholds(
        thresholds, directions, table_m[:, held_m].reshape(rows, -1),
        table_n[:, order_n[:, half_n:]].reshape(rows, -1),
    ).reshape(len(CHANNELS), len(draws))
    return [
        MIAReport(
            ratio=float(ratio),
            n_member=len(member_orders[j]),
            n_nonmember=n_non,
            resampled_with_replacement=replaced[j],
            **{c: float(scores[k, j]) for k, c in enumerate(CHANNELS)},
        )
        for j, (ratio, _) in enumerate(draws)
    ]


def _padded(rows, pad) -> np.ndarray:
    """Rows of unequal length as one matrix, right-padded with ``pad``."""
    out = np.full((len(rows), max(len(row) for row in rows)), pad)
    for j, row in enumerate(rows):
        out[j, :len(row)] = row
    return out


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
    model and both pools are the same at every ratio, so each pool is
    featurized once and all ratios are attacked as one batch.
    """
    if not len(ratios):
        raise InputError("ratios must be nonempty")
    with blas_scope():
        return _attack(model, member_data, member_rows, nonmember_data,
                       nonmember_rows,
                       [(r, rng.split(f"ratio={float(r)!r}")) for r in ratios])


def sweep_to_csv(reports: list[MIAReport], path: str) -> None:
    write_csv(path, ("ratio", *CHANNELS),
              [(rep.ratio, *(rep.score(c) for c in CHANNELS))
               for rep in reports])
