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

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScoredEval:
    pos_scores: np.ndarray
    neg_scores: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos_scores", np.asarray(self.pos_scores, dtype=float))
        object.__setattr__(self, "neg_scores", np.asarray(self.neg_scores, dtype=float))


def _check_nonempty(ev: ScoredEval) -> None:
    if ev.pos_scores.size == 0 or ev.neg_scores.size == 0:
        raise ValueError("both score sides must be nonempty")


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


def _win_rates(ev: ScoredEval, keeps) -> list[float]:
    """Win rate of the positives against the top ``keep`` negatives, for
    each keep, from one sort: the top keep of the ascending negatives are
    the suffix past off = Q - keep, so a positive's wins there are its
    wins overall less off, floored at 0."""
    if np.isnan(ev.pos_scores).any() or np.isnan(ev.neg_scores).any():
        return [float("nan")] * len(keeps)  # a NaN score has no rank
    neg = np.sort(ev.neg_scores)
    left = np.searchsorted(neg, ev.pos_scores, side="left")  # strict wins
    right = np.searchsorted(neg, ev.pos_scores, side="right")  # wins + ties
    rates = []
    for keep in keeps:
        off = neg.size - keep
        below = np.maximum(left - off, 0).sum()
        not_above = np.maximum(right - off, 0).sum()
        # Integer and half-integer counts are exact in floating point.
        wins = below + 0.5 * (not_above - below)
        rates.append(float(wins / (ev.pos_scores.size * keep)))
    return rates


def auc(ev: ScoredEval) -> float:
    """Probability a positive outranks a negative, ties counting 0.5."""
    _check_nonempty(ev)
    return _win_rates(ev, [ev.neg_scores.size])[0]


def partial_auc(ev: ScoredEval, fpr_max: float) -> float:
    """One-way partial AUC against the hardest fpr_max fraction of negatives."""
    _check_nonempty(ev)
    return _win_rates(ev, [_keep_count(ev.neg_scores.size, fpr_max)])[0]


def auc_and_partial_aucs(ev: ScoredEval, fprs) -> tuple[float, dict[float, float]]:
    """auc(ev) and {f: partial_auc(ev, f) for f in fprs}, sorting once."""
    _check_nonempty(ev)
    q = ev.neg_scores.size
    rates = _win_rates(ev, [q] + [_keep_count(q, f) for f in fprs])
    return rates[0], dict(zip(fprs, rates[1:]))
