"""Pairwise losses, outer functions, and exact oracles.

The objective being optimized everywhere in this package is

    (1/|S1|) * sum_{z in S1} f( (1/|S2|) * sum_{z' in S2} loss(h(w,z), h(w,z')) )

with S1 the positive set, S2 the negative set, h the scorer, f the outer
function. ``exact_oracle`` evaluates it and its gradient exactly, over every
pair, in one pass: each set is scored once, the positives are swept in row
blocks of about 2^15 pairs (each block takes the loss and its slope from one
exp and adds into per-score weights, so nothing of size |S1| x |S2| is
held), and each side's pullback of its weights ends it. ``exact_objective``
and ``exact_grad`` are its two halves; each runs the whole sweep, so a
caller that needs both calls ``exact_oracle``. They are the ground truth the
stochastic estimators are tested against.

Only ``kl_opauc`` has inert pairs: where b + 1 <= a its loss is exactly 1
and its slope exactly 0. For it the sweep sorts both sides once, counts
each positive's inert pairs with one searchsorted, and computes a block of
consecutive positives only from its first row's count on; the skipped
pairs enter each row's sum as a count. ``psm_sigmoid`` and ``square`` sweep
every pair in the given order.

For ``kl_opauc`` with ``kl_log`` (the KL-DRO form of one-way partial AUC)
the sweep works in the log domain, with f = lambda * logsumexp and softmax
weights for f' * dloss/db, so the oracle is finite wherever the objective
is, although exp(m^2/lambda) of a single pair may overflow. There the k
skipped pairs of a row add k * exp(-t_max) to its sum of exp(t - t_max).

Losses, each evaluated with its slope dl/db (= -dl/da) from one exp by
:func:`loss_and_slope`, whose value half is :func:`loss`:

* ``psm_sigmoid``: 1 / (1 + exp(a - b)).  Symmetric: loss(a,b) + loss(b,a) = 1.
  It is ``expit(b - a)``, with :func:`expit` the logistic sigmoid defined
  here (local_sgd's update uses it too).
* ``kl_opauc``: exp(((b + 1 - a)_+)^2 / lambda), paired with the ``kl_log``
  outer f(s) = lambda * log(s) for partial-AUC surrogate optimization.
  Values are always >= 1.
* ``square``: (1 - (a - b))^2, the convex baseline.  The squared-hinge
  derivative of kl_opauc at its kink is 0 (both one-sided limits agree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import check_numbers
from .model import ScorerSpec, score_grad_many

LOSS_KINDS = ("psm_sigmoid", "kl_opauc", "square")
OUTER_KINDS = ("identity", "kl_log")
# kl_log's clamp for f and f' near 0.
U_FLOOR = 1e-8


@dataclass(frozen=True)
class PairwiseLossSpec:
    kind: str
    lam: float = 1.0  # kl_opauc only

    def __post_init__(self) -> None:
        # Each message starts with the field's config key name.
        check_numbers(self)
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.kind == "kl_opauc" and self.lam <= 0:
            raise ValueError("lambda must be positive for kl_opauc")


@dataclass(frozen=True)
class OuterFnSpec:
    kind: str
    lam: float = 1.0  # kl_log only

    def __post_init__(self) -> None:
        check_numbers(self)
        if self.kind not in OUTER_KINDS:
            raise ValueError(f"kind must be one of {OUTER_KINDS}, got {self.kind!r}")
        if self.kind == "kl_log" and self.lam <= 0:
            raise ValueError("lambda must be positive for kl_log")


IDENTITY_OUTER = OuterFnSpec("identity")


def expit(x):
    """The logistic sigmoid 1 / (1 + exp(-x)), elementwise.

    Below about -709.78, exp(-x) overflows to inf and the result saturates
    to exactly 0.0 without a warning; +inf gives 1.0 and NaN stays NaN.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def loss_and_slope(spec: PairwiseLossSpec, a, b):
    """Loss l(a, b) of a positive-side score a against negative-side b, and
    its slope dl/db (= -dl/da for all three losses), sharing one exp.

    a and b are scalars or arrays that broadcast; scalars give 0-d arrays.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if spec.kind == "psm_sigmoid":
        s = expit(b - a)  # 1/(1+exp(a-b)), saturating at the 0/1 limits
        return s, s * (1.0 - s)
    if spec.kind == "kl_opauc":
        m = np.maximum(b + 1.0 - a, 0.0)
        e = np.exp(m * m / spec.lam)
        return e, e * (2.0 * m / spec.lam)
    d = 1.0 - (a - b)  # square
    return np.square(d), 2.0 * d


def loss(spec: PairwiseLossSpec, a, b):
    """The value of :func:`loss_and_slope`; a float for scalars."""
    out, _ = loss_and_slope(spec, a, b)
    return float(out) if out.ndim == 0 else out


def outer_value(spec: OuterFnSpec, s):
    """f(s): identity, or lambda * log(max(s, U_FLOOR))."""
    s = np.asarray(s, dtype=float)
    if spec.kind == "identity":
        out = s
    else:
        out = spec.lam * np.log(np.maximum(s, U_FLOOR))
    return float(out) if out.ndim == 0 else out


def outer_deriv(spec: OuterFnSpec, s):
    """f'(s): 1, or lambda / max(s, U_FLOOR)."""
    s = np.asarray(s, dtype=float)
    if spec.kind == "identity":
        out = np.ones_like(s)
    else:
        out = spec.lam / np.maximum(s, U_FLOOR)
    return float(out) if out.ndim == 0 else out


# Pairs per row block of the oracle sweep; a block holds
# max(1, _BLOCK_PAIRS // width) positives against its ``width`` columns.
_BLOCK_PAIRS = 2**15


def _kl_log_block(loss_spec, outer, a, b1, inert):
    """kl_opauc + kl_log on one row block, in the log domain.

    a holds ascending positives; b1 holds the ascending negatives + 1 past
    the ``inert`` columns the block skips, whose pairs have m = 0. With
    t = m^2/lambda_loss, log g_p = max_q t + log(mean_q exp(t - max_q t)),
    so f(g_p) = lambda_outer * log g_p and f'(g_p) * dl/db = lambda_outer *
    exp(t - log g_p) * 2m/lambda_loss: finite wherever the objective is,
    though exp(t) alone may overflow. A skipped pair adds exp(0 - max_q t)
    to the mean, and nothing to the slopes. No clamp at U_FLOOR: every
    kl_opauc loss is at least 1, so g_p is.
    """
    m = np.maximum(b1[None, :] - a[:, None], 0.0)
    t = np.multiply(m, m)
    t /= loss_spec.lam
    t_max = t[:, -1].copy()  # m, hence t, never decreases along a row
    t -= t_max[:, None]
    e = np.exp(t, out=t)
    total = e.sum(axis=1) + inert * np.exp(-t_max)
    log_g = t_max + np.log(total / (inert + b1.shape[0]))
    # exp(t - log g_p) * 2m/lambda_loss = [exp(t_max - log g_p) * 2/lambda_loss] * e * m
    scale = outer.lam * np.exp(t_max - log_g) * (2.0 / loss_spec.lam)
    e *= m
    return outer.lam * log_g, scale, e


def _direct_block(loss_spec, outer, a, b, inert):
    """Any other pair on one row block: f(g_p), f'(g_p) and dl/db, the
    ``inert`` skipped kl_opauc pairs each adding a loss of exactly 1."""
    lmat, slope = loss_and_slope(loss_spec, a[:, None], b[None, :])
    g = (lmat.sum(axis=1) + inert) / (inert + b.shape[0])
    return outer_value(outer, g), outer_deriv(outer, g), slope


def _sweep(loss_spec, outer, a, b):
    """f(g_p) for every positive and the per-score weights.

    Returns (f, pos_w, neg_w) with pos_w[p] = sum_q f'(g_p) dl/da and
    neg_w[q] = sum_p f'(g_p) dl/db, so that the gradient is the two sides'
    pullbacks of them, divided by PQ. Positives are swept in row blocks of
    about _BLOCK_PAIRS pairs; nothing of size P x Q is held.

    For kl_opauc both sides are sorted first, and a block computes only the
    columns past its first row's count of inert pairs. The count stops at
    Q - 1, so every row keeps its largest margin and a NaN score still
    reaches the sums.
    """
    P, Q = a.shape[0], b.shape[0]
    kl = loss_spec.kind == "kl_opauc"
    log_domain = kl and outer.kind == "kl_log"
    block = _kl_log_block if log_domain else _direct_block
    inert = np.zeros(P, dtype=np.intp)
    if kl:
        pos_order = np.argsort(a, kind="stable")
        neg_order = np.argsort(b, kind="stable")
        a, b = a[pos_order], b[neg_order]
        b1 = b + 1.0  # the first sum of b + 1.0 - a, so b1 - a keeps its bits
        inert = np.minimum(np.searchsorted(b1, a, side="right"), Q - 1)
        if log_domain:
            b = b1
    f = np.empty(P)
    pos_w = np.empty(P)
    neg_w = np.zeros(Q)
    lo = 0
    while lo < P:
        k = int(inert[lo])
        hi = min(lo + max(1, _BLOCK_PAIRS // (Q - k)), P)
        f[lo:hi], scale, slope = block(loss_spec, outer, a[lo:hi], b[k:], k)
        pos_w[lo:hi] = scale * -slope.sum(axis=1)  # dl/da = -dl/db
        neg_w[k:] += scale @ slope
        lo = hi
    if kl:  # back to the given order
        f[pos_order] = f.copy()
        pos_w[pos_order] = pos_w.copy()
        neg_w[neg_order] = neg_w.copy()
    return f, pos_w, neg_w


def exact_oracle(
    loss_spec: PairwiseLossSpec,
    outer: OuterFnSpec,
    scorer: ScorerSpec,
    w: np.ndarray,
    pos_X: np.ndarray,
    neg_X: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Exact objective and gradient from one sweep over all pairs.

    gradient = (1/(PQ)) * sum_{p,q} f'(g_p) * [d1loss_pq * grad h(z_p) + d2loss_pq * grad h(z'_q)]

    This is the ground-truth oracle the stochastic estimators are tested
    against. Each set is scored in one forward pass, whose pullback
    turns that side's per-score weights into its gradient term at the end.
    """
    if pos_X.shape[0] == 0 or neg_X.shape[0] == 0:
        raise ValueError("positive and negative sets must both be nonempty")
    a, pos_pull = score_grad_many(scorer, w, pos_X)  # (P,)
    b, neg_pull = score_grad_many(scorer, w, neg_X)  # (Q,)
    f, pos_w, neg_w = _sweep(loss_spec, outer, a, b)
    grad = (pos_pull(pos_w) + neg_pull(neg_w)) / (a.shape[0] * b.shape[0])
    return float(np.mean(f)), grad


def exact_objective(
    loss_spec: PairwiseLossSpec,
    outer: OuterFnSpec,
    scorer: ScorerSpec,
    w: np.ndarray,
    pos_X: np.ndarray,
    neg_X: np.ndarray,
) -> float:
    """The objective of :func:`exact_oracle`."""
    return exact_oracle(loss_spec, outer, scorer, w, pos_X, neg_X)[0]


def exact_grad(
    loss_spec: PairwiseLossSpec,
    outer: OuterFnSpec,
    scorer: ScorerSpec,
    w: np.ndarray,
    pos_X: np.ndarray,
    neg_X: np.ndarray,
) -> np.ndarray:
    """The gradient of :func:`exact_oracle`."""
    return exact_oracle(loss_spec, outer, scorer, w, pos_X, neg_X)[1]
