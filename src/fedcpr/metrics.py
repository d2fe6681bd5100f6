"""AUC and one-way partial AUC with exact tie handling.

Ties count 0.5 everywhere (Wilcoxon convention). ``auc`` counts wins by
binary search of each positive in the sorted negatives.

``partial_auc`` restricts the comparison to the hardest (highest-scoring)
floor(fpr_max·Q) negatives and reports the pairwise win rate of positives
against exactly those negatives, so partial_auc(fpr_max=1) == auc. The
sorted route counts those wins in the top suffix of the same sorted
negatives, so ``auc_and_partial_aucs`` gets auc and every partial AUC from
one sort. The tests check every route against the O(P·Q) pairwise
definitions in ``tests/reference.py``.
"""

from __future__ import annotations

import numpy as np


def _scores(pos, neg) -> tuple[np.ndarray, np.ndarray]:
    """Both sides as 1-D float arrays, a scalar as one score; ValueError
    for a side that is empty or has more than one dimension."""
    sides = tuple(np.atleast_1d(np.asarray(s, dtype=float)) for s in (pos, neg))
    for name, a in zip(("pos", "neg"), sides):
        if a.ndim > 1:
            raise ValueError(f"{name} scores must be 1-D, got shape {a.shape}")
        if a.size == 0:
            raise ValueError("both score sides must be nonempty")
    return sides


def _keep_count(q: int, fpr_max: float) -> int:
    """floor(fpr_max * q) negatives, at least one, for fpr_max in (0, 1]."""
    if not (0.0 < fpr_max <= 1.0):
        raise ValueError("fpr_max must be in (0, 1]")
    # Values within 1e-9 of an integer floor to it, as algorithms._ceil
    # rounds up: a cap of exactly k/q keeps k.
    keep = int(np.floor(fpr_max * q + 1e-9))
    if keep == 0:
        raise ValueError(f"fpr_max={fpr_max} keeps zero of {q} negatives")
    return keep


def _win_rates(pos: np.ndarray, neg: np.ndarray, keeps) -> list[float]:
    """Win rate of the positives against the top ``keep`` negatives, for
    each keep, from one sort: the top keep of the ascending negatives are
    the suffix past off = Q - keep, so a positive's wins there are its
    wins overall less off, floored at 0."""
    if np.isnan(pos).any() or np.isnan(neg).any():
        return [float("nan")] * len(keeps)  # a NaN score has no rank
    neg = np.sort(neg)
    left = np.searchsorted(neg, pos, side="left")  # strict wins
    right = np.searchsorted(neg, pos, side="right")  # wins + ties
    rates = []
    for keep in keeps:
        off = neg.size - keep
        below = np.maximum(left - off, 0).sum()
        not_above = np.maximum(right - off, 0).sum()
        # Integer and half-integer counts are exact in floating point.
        wins = below + 0.5 * (not_above - below)
        rates.append(float(wins / (pos.size * keep)))
    return rates


def auc(pos, neg) -> float:
    """Probability a positive outranks a negative, ties counting 0.5."""
    pos, neg = _scores(pos, neg)
    return _win_rates(pos, neg, [neg.size])[0]


def partial_auc(pos, neg, fpr_max: float) -> float:
    """One-way partial AUC against the hardest fpr_max fraction of negatives."""
    pos, neg = _scores(pos, neg)
    return _win_rates(pos, neg, [_keep_count(neg.size, fpr_max)])[0]


def auc_and_partial_aucs(pos, neg, fprs) -> tuple[float, dict[float, float]]:
    """auc(pos, neg) and {f: partial_auc(pos, neg, f) for f in fprs}, sorting once."""
    pos, neg = _scores(pos, neg)
    rates = _win_rates(pos, neg, [neg.size] + [_keep_count(neg.size, f) for f in fprs])
    return rates[0], dict(zip(fprs, rates[1:]))
