"""Federated optimizers for compositional pairwise risks, their baselines,
and theory-driven hyperparameter schedules.

Two federated algorithms share one round structure (bootstrap exchange,
then R rounds of K local steps between exchanges):

* ``fedx1`` (linear outer function): each local step combines *active*
  factors (fresh scores of locally sampled data at the current local
  model, whose pullback turns per-sample weights into a gradient) with
  *lazy* factors (score records produced on all machines during the
  previous round, delivered via the server and read at positions drawn
  without replacement, :func:`~fedcpr.rng.buffer_positions`).
* ``fedx2`` (nonlinear outer function): adds a per-positive-sample moving
  average ``u`` tracking the inner pairwise mean, whose values travel in
  an array shaped like the positive-side scores (so each drawn position
  reads a score and the u-value of the same sample), and a momentum
  average of the gradient estimates; model and momentum are both averaged
  by the server.

Baselines: ``local_sgd`` (per-sample logistic loss, model averaging),
``local_pair`` (the same update rules with lazy factors replaced by fresh
local partner scores, no history exchange), and ``centralized`` (one worker
on the union dataset; all pairs of the two minibatches, with the
moving-average machinery when the outer function is nonlinear).

All five run through :func:`simulate`, each as the program
:data:`PROGRAMS` names. fedx1, fedx2 and local_pair are one
:class:`PairwiseProgram`; centralized subclasses it with its own local
step, local_sgd with its own local step and round state.

The round engine. A client's K local steps in round r read only its own
state and the round r-1 aggregate, so step k of every client is independent
work. The program holds the N clients' data and state stacked along a
leading client axis, as the dataset stacks each client as a row: models and
momenta as (N, d), u-tables as (N, n_pos). At the start of a round the
program's ``_prepare`` makes the round state of (K, N, n) arrays: the
update batches ``z1``/``z2`` and emission batches ``zh1``/``zh2``
(:func:`~fedcpr.rng.batches`); the lazy records
``lazy_neg``/``lazy_pos``/``lazy_u`` at each client's positions in the
aggregate (:func:`~fedcpr.rng.buffer_positions`); and the emitted records
``h1``/``h2``/``h1_u``, which step k fills at slice k. Each local step k is
one stacked call of the program's ``local_step``. It scores each batch in
one forward pass, whose pullback gives the gradient terms, and
:func:`fedx_estimate`, the one FedX estimator, is a function over the
client axis. The emitted records, transposed client-major to (N, K, n),
are the score blocks of the round's upload table. Stacked matmuls loop
the same BLAS calls over the client axis, so every value is bit for bit
what the clients would compute one after another.

Every random draw comes from a named substream (:mod:`fedcpr.rng`), so a
run's trace is byte-identical for a given (config, seed) on one numeric
profile: numpy's SIMD dispatch for exp and log, and the BLAS kernel for
matmuls.
The package's ``fingerprints.json`` pins the traces per profile; traces
that are the same on every profile are left to the ROADMAP item on portable
traces.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import FederatedDataset
from .federation import RoundDownload, RoundUpload, comm_cost, server_aggregate
from .fields import check_numbers
from .losses import (
    OuterFnSpec,
    PairwiseLossSpec,
    exact_oracle,
    expit,
    loss,
    loss_and_slope,
    outer_deriv,
)
from .metrics import auc_and_partial_aucs
from .model import ScorerSpec, _vecmat, initial_model, score_grad_many, score_many
from .rng import batches, buffer_positions

# The false-positive-rate caps of the held-out partial AUCs.
PAUC_FPRS = (0.3, 0.5)


@dataclass(frozen=True)
class HyperParams:
    eta: float = 0.1
    K: int = 32
    R: int = 30
    B1: int = 32
    B2: int = 32
    gamma: float = 0.1
    beta: float = 0.1
    lr_decay_every: int | None = None
    lr_decay_factor: float = 0.1
    seed: int = 0
    history_samples: str = "independent"  # or "reuse": history/u emission batches

    def __post_init__(self) -> None:
        # Each message starts with the field's config key name.
        check_numbers(self)
        # eta = 0 is legal: frozen-model protocols rely on it.
        if self.eta < 0:
            raise ValueError("eta must be >= 0")
        if self.lr_decay_factor <= 0:
            raise ValueError("lr_decay_factor must be positive")
        for name in ("K", "R", "B1", "B2"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("gamma", "beta"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0, 1]")
        if self.lr_decay_every is not None and self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1 or none")
        if self.history_samples not in ("independent", "reuse"):
            raise ValueError(
                f"history_samples must be independent or reuse, got {self.history_samples!r}"
            )
        if not -(2**63) <= self.seed < 2**63:
            raise ValueError("seed must be a signed 64-bit integer")

    def eta_at(self, local_iter: int) -> float:
        """Step size in effect at a client's lifetime local iteration."""
        if self.lr_decay_every is None:
            return self.eta
        return self.eta * self.lr_decay_factor ** (local_iter // self.lr_decay_every)


def _ceil(x: float) -> int:
    # Guard against float fuzz: values within 1e-9 of an integer round to it.
    return int(math.ceil(x - 1e-9))


def theory_schedule(
    kind: str,
    target_eps: float,
    n_clients: int,
    max_shard: int = 1,
) -> HyperParams:
    """Hyperparameters from the convergence-guarantee schedules.

    ``fedx1``: R = ceil(1/eps^3), eta = N*eps^2, K = max(1, ceil(1/(N*eps))).
    ``fedx2`` (M = largest positive shard): R = ceil(sqrt(M)/eps^3),
    eta = eps^2/M, gamma = eps^2, beta = eps^2/sqrt(M),
    K = max(1, ceil(sqrt(M)/eps)).
    """
    if not (0.0 < target_eps < 1.0):
        raise ValueError("target_eps must be in (0, 1)")
    for name, value in (("n_clients", n_clients), ("max_shard", max_shard)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    eps = target_eps
    if kind == "fedx1":
        return HyperParams(
            eta=n_clients * eps**2,
            K=max(1, _ceil(1.0 / (n_clients * eps))),
            R=max(1, _ceil(1.0 / eps**3)),
        )
    if kind == "fedx2":
        m = max_shard
        root_m = math.sqrt(m)
        return HyperParams(
            eta=eps**2 / m,
            K=max(1, _ceil(root_m / eps)),
            R=max(1, _ceil(root_m / eps**3)),
            gamma=eps**2,
            beta=eps**2 / root_m,
        )
    raise ValueError(f"unknown schedule kind: {kind!r}")


def momentum_update(momentum: np.ndarray, estimate: np.ndarray, beta: float) -> np.ndarray:
    """(1 - beta) * momentum + beta * estimate."""
    return (1.0 - beta) * momentum + beta * estimate


class UTable:
    """Per-positive-sample moving-average estimates of the inner pairwise
    mean, indexed by (client row, the sample's position in the client's
    positives), or by position alone for one client. Entries start at 0 and
    only change through :meth:`track`; ``touched`` marks the entries that
    ever did."""

    def __init__(self, shape: int | tuple[int, ...]) -> None:
        self.values = np.zeros(shape)
        self.touched = np.zeros(shape, dtype=bool)

    def track(self, index, inner: np.ndarray, gamma: float) -> np.ndarray:
        """Moving-average update of the tracked inner means (the tracker of
        SOX, Wang & Yang, ICML 2022):
        new = (1 - gamma) * old + gamma * inner at each indexed entry,
        reading the pre-update values; returns the new means. Positions
        come from a without-replacement batch, so none repeats."""
        new = (1.0 - gamma) * self.values[index] + gamma * inner
        self.values[index] = new
        self.touched[index] = True
        return new

    def emission(self, index, fallback: np.ndarray) -> np.ndarray:
        """Stored values where the entry was ever updated, else ``fallback``.

        Never-updated entries hold the initial 0, which would blow up the
        clamped outer derivative downstream; the fallback is the same
        full-replacement estimate the round-0 bootstrap uses.
        """
        return np.where(self.touched[index], self.values[index], fallback)


@dataclass(frozen=True)
class RunSettings:
    algorithm: str
    scorer: ScorerSpec
    loss: PairwiseLossSpec
    outer: OuterFnSpec
    hyper: HyperParams

    @property
    def seed(self) -> int:
        return self.hyper.seed


@dataclass
class RoundRecord:
    round: int
    wall_seconds: float
    objective: float | None
    grad_norm_sq: float | None
    auc: float | None
    pauc: dict[float, float] | None
    uplink_floats: int
    downlink_floats: int
    buffer_wraps: int


@dataclass
class RunTrace:
    rounds: list[RoundRecord] = field(default_factory=list)
    final_model: np.ndarray | None = None
    # Floats sent over the run: every client, both directions, every round.
    total_floats: int = 0

    def final_round(self) -> RoundRecord:
        return self.rounds[-1]


def fedx_estimate(outer: OuterFnSpec, pull1, pull2, d1, d2, u1=None, lazy_u=None) -> np.ndarray:
    """FedX gradient estimates (N, d) for a stack of N clients.

    ``pull1``/``pull2`` are the score pullbacks (:func:`score_grad_many`)
    of the sampled positives and negatives at the clients' models, the
    active factors. ``d1``/``d2`` (N, n1)/(N, n2) are the pair-loss slopes
    they pull back: dl/da of each positive against its lazy negative score
    and dl/db of each negative against its lazy positive score. With
    tracked means (FedX2), the positive-sample term weights each pair by
    the outer derivative at ``u1``, the just-updated tracked inner means of
    the sampled positives, and the negative-sample term by the outer
    derivative at the lazy u-value ``lazy_u`` paired (same provenance) with
    the lazy positive score. Without them the outer function is linear
    (FedX1). The pullbacks reject slopes shaped unlike their scores.
    """
    if lazy_u is not None and d2.shape != lazy_u.shape:
        raise ValueError("each negative sample needs one lazy score and u-value")
    if u1 is not None:
        d1 = outer_deriv(outer, u1) * d1
        d2 = outer_deriv(outer, lazy_u) * d2
    return pull1(d1) / d1.shape[-1] + pull2(d2) / d2.shape[-1]


# What ``local_step`` returns: loss estimates, u-values or None, gradients.
StepResult = tuple[np.ndarray, np.ndarray | None, np.ndarray]


def _cycle(batch: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` entries of each client's batch, cycling when the
    batch is shorter: one partner per sample of an n-sized batch."""
    return batch[..., np.arange(n) % batch.shape[-1]]


class PairwiseProgram:
    """The round engine, with the pairwise local step of fedx1, fedx2 and
    local_pair; the two other baselines replace the step. It holds every
    client's data and state stacked along a leading client axis of length
    N, so every client's step k is one stacked operation.

    Two values read from the settings tell the three algorithms apart:

    * ``lazy`` (fedx1, fedx2): partner scores are the previous round's
      records at :func:`~fedcpr.rng.buffer_positions`, and each step's fresh
      scores go out for the next round. Otherwise (local_pair) they are
      the cycled opposite-side local batch.
    * ``nonlinear`` (an outer function other than identity): the u-tracker
      and the momentum, and :func:`fedx_estimate` weights its terms by the
      outer derivative at the tracked means; otherwise it takes the linear
      outer function.

    The round state, made at the start of each round (round 0: the
    bootstrap's records), is (K, N, n) arrays that step k reads at slice k:
    update positions ``z1``/``z2`` and emission positions ``zh1``/``zh2``
    (the same arrays unless fedx2 draws its emission batches apart); lazy
    records ``lazy_neg``/``lazy_pos``/``lazy_u`` read at ``neg_at`` and
    ``pos_at`` in the aggregate; emitted values ``h1``/``h2``/``h1_u``,
    which :meth:`uploads` hands over client-major; and local_sgd's batch
    rows ``x`` and labels ``y``. Arrays a program does not make stay None.
    """

    # What each local step checks for non-finite entries, in this order.
    WATCHED = ("pair-loss estimate", "u-value", "gradient estimate", "emitted u-value", "model")

    def __init__(self, settings: RunSettings, dataset: FederatedDataset) -> None:
        self.settings = settings
        self.pos_ids, self.pos_X, self.neg_ids, self.neg_X = self._data(dataset)
        self.n_clients, self.n_pos = self.pos_ids.shape
        self.n_neg = self.neg_ids.shape[1]
        self.rows = np.arange(self.n_clients)[:, None]  # pairs with (N, n) positions
        self.model = np.tile(initial_model(settings.scorer, settings.seed), (self.n_clients, 1))
        self.lazy = settings.algorithm in ("fedx1", "fedx2")
        self.nonlinear = settings.outer.kind != "identity"
        # fedx2's records score emission batches of their own unless "reuse".
        self.separate = self.lazy and self.nonlinear and settings.hyper.history_samples != "reuse"
        self.momentum = np.zeros_like(self.model) if self.nonlinear else None
        self.u_table = UTable((self.n_clients, self.n_pos)) if self.nonlinear else None
        self.z1 = self.z2 = self.zh1 = self.zh2 = None
        self.neg_at = self.pos_at = self.lazy_neg = self.lazy_pos = self.lazy_u = None
        self.h1 = self.h2 = self.h1_u = self.x = self.y = None

    def _data(self, dataset: FederatedDataset) -> tuple[np.ndarray, ...]:
        """The stacked (pos_ids, pos_X, neg_ids, neg_X), row i client i's."""
        return dataset.pos_ids, dataset.pos_X, dataset.neg_ids, dataset.neg_X

    def sampled(self, k: int, emission: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Step k's positive and negative rows, (N, n1, input_dim) and (N,
        n2, input_dim), of the update batches or the emission batches."""
        z1, z2 = (self.zh1, self.zh2) if emission else (self.z1, self.z2)
        return self.pos_X[self.rows, z1[k]], self.neg_X[self.rows, z2[k]]

    def descend(self, grad: np.ndarray, eta: float) -> None:
        """One model step along ``grad``, through the momentum if any."""
        if self.momentum is None:
            self.model = self.model - eta * grad
        else:
            self.momentum = momentum_update(self.momentum, grad, self.settings.hyper.beta)
            self.model = self.model - eta * self.momentum

    def bootstrap_uploads(self) -> RoundUpload:
        """Round 0: models (and zero momenta) with, for the lazy programs,
        K batches per side scored at the initial model."""
        s, h = self.settings, self.settings.hyper
        if self.lazy:
            self.zh1, self.zh2 = batches(h.seed, [(self.n_pos, h.B1), (self.n_neg, h.B2)],
                                         h.K, self.n_clients, "bootstrap")
            a = self.h1 = score_many(s.scorer, self.model, self.pos_X[self.rows, self.zh1])
            b = self.h2 = score_many(s.scorer, self.model, self.neg_X[self.rows, self.zh2])
            # Full-replacement u-estimates so the first cross-client
            # u-draws are well away from the outer-derivative clamp.
            self.h1_u = loss(s.loss, a, _cycle(b, a.shape[-1])) if self.nonlinear else None
        return self.uploads()

    def begin_round(self, download: RoundDownload, round_idx: int) -> int:
        """Take the aggregate and make the round's state; returns the
        number of buffer wraps its draws took."""
        self.model = np.tile(download.model, (self.n_clients, 1))
        if self.momentum is not None:
            self.momentum = np.tile(download.momentum, (self.n_clients, 1))
        return self._prepare(download, round_idx)

    def _prepare(self, download: RoundDownload, round_idx: int) -> int:
        """Make the round state: the batches and, for the lazy programs,
        the lazy records at ``neg_at`` (K, N, n1) in r2 and ``pos_at`` (K,
        N, n2) in r1, and the emission arrays; returns wraps."""
        h = self.settings.hyper
        pair = [(self.n_pos, h.B1), (self.n_neg, h.B2)]
        # fedx2's separate emission batches are drawn after the update ones.
        drawn = batches(h.seed, pair + pair if self.separate else pair, h.K, self.n_clients,
                        "step", round_idx)
        (self.z1, self.z2), (self.zh1, self.zh2) = drawn[:2], drawn[-2:]
        if not self.lazy:
            return 0
        N, n1, n2 = self.n_clients, self.z1.shape[-1], self.z2.shape[-1]
        self.neg_at, neg_wraps = buffer_positions(h.seed, "buffer-neg", round_idx, N,
                                                  len(download.r2), h.K, n1)
        self.pos_at, pos_wraps = buffer_positions(h.seed, "buffer-pos", round_idx, N,
                                                  len(download.r1), h.K, n2)
        self.lazy_neg = download.r2[self.neg_at]
        self.lazy_pos = download.r1[self.pos_at]
        self.h1, self.h2 = np.empty(self.zh1.shape), np.empty(self.zh2.shape)
        if self.nonlinear:
            # A drawn position reads a score and the u-value of one sample.
            self.lazy_u = download.r1_u[self.pos_at]
            self.h1_u = np.empty(self.zh1.shape)
        return neg_wraps + pos_wraps

    def local_step(self, k: int, eta: float) -> StepResult:
        """Step k of every client; returns their loss estimates, tracked
        u-values of the sampled positives (None without a tracker) and
        gradient estimates."""
        s = self.settings
        x1, x2 = self.sampled(k)
        (a, pull1), (b, pull2) = (score_grad_many(s.scorer, self.model, x) for x in (x1, x2))
        if self.lazy:
            part_b, part_a = self.lazy_neg[k], self.lazy_pos[k]
        else:  # m-th with m-th, cycling when the batch sizes differ
            part_b, part_a = _cycle(b, a.shape[-1]), _cycle(a, b.shape[-1])
        pair_loss, slope = loss_and_slope(s.loss, a, part_b)
        u1 = part_u = None
        if self.nonlinear:
            u1 = self.u_table.track((self.rows, self.z1[k]), pair_loss, s.hyper.gamma)
            part_u = self.lazy_u[k] if self.lazy else _cycle(u1, b.shape[-1])
        d2 = loss_and_slope(s.loss, part_a, b)[1]
        grad = fedx_estimate(s.outer, pull1, pull2, -slope, d2, u1, part_u)
        if self.lazy:
            # Scores for the next round, taken at the pre-step model: the
            # emission batches, or the update ones (fedx1, "reuse" mode).
            if self.separate:
                a, b = (score_many(s.scorer, self.model, x) for x in self.sampled(k, emission=True))
            self.h1[k], self.h2[k] = a, b
            if self.nonlinear:
                # The emission batch has the update batch's size, so part_b
                # gives one partner each (on the update batch: pair_loss).
                inner = loss(s.loss, a, part_b) if self.separate else pair_loss
                self.h1_u[k] = self.u_table.emission((self.rows, self.zh1[k]), inner)
        self.descend(grad, eta)
        return pair_loss.mean(axis=-1), u1, grad

    def step(self, k: int, eta: float) -> tuple[np.ndarray, np.ndarray]:
        """Local step k of every client. Returns the loss estimates and, per
        client, the index in :attr:`WATCHED` of the first quantity with a
        non-finite entry (``len(WATCHED)`` where there is none), both in
        client order."""
        loss_est, u, grad = self.local_step(k, eta)
        emitted_u = None if self.h1_u is None else self.h1_u[k]
        first = np.full(self.n_clients, len(self.WATCHED))
        watched = enumerate((loss_est, u, grad, emitted_u, self.model))
        for q, value in reversed(list(watched)):  # the earliest one wins
            if value is not None and not np.isfinite(value).all():
                first[~np.isfinite(value.reshape(self.n_clients, -1)).all(axis=1)] = q
        return loss_est, first

    def uploads(self) -> RoundUpload:
        """The round's upload table: the client models (and momenta), and
        the emitted scores (and u-values) client-major, entry [i, k, m] of
        a block client i's for the m-th sample of its iteration-k emission
        batch; None where the program emits none. The arrays are views of
        this round's state, which no later round writes."""
        h1, h2, h1_u = (None if a is None else a.transpose(1, 0, 2)
                        for a in (self.h1, self.h2, self.h1_u))
        return RoundUpload(self.model, h1, h2, h1_u, self.momentum)


class LocalSGDProgram(PairwiseProgram):
    """Per-sample logistic loss on local data, model averaging each round.
    The configured pairwise loss and outer function are used only for
    objective reporting."""

    def __init__(self, settings: RunSettings, dataset: FederatedDataset) -> None:
        super().__init__(settings, dataset)
        # The logistic update has no outer function: no tracker, no momentum.
        self.nonlinear, self.momentum, self.u_table = False, None, None
        # Each client's samples, positives then negatives, and their ±1 labels.
        self.union = np.concatenate([self.pos_X, self.neg_X], axis=1)
        self.labels = np.concatenate([np.ones(self.n_pos), -np.ones(self.n_neg)])

    def _prepare(self, download: RoundDownload, round_idx: int) -> int:
        h = self.settings.hyper
        (idx,) = batches(h.seed, [(self.n_pos + self.n_neg, h.B1 + h.B2)], h.K, self.n_clients,
                         "step", round_idx)
        self.x, self.y = self.union[self.rows, idx], self.labels[idx]
        return 0

    def local_step(self, k: int, eta: float) -> StepResult:
        s = self.settings
        xb, yb = self.x[k], self.y[k]
        scores, pullback = score_grad_many(s.scorer, self.model, xb)
        margin = -yb * scores
        grad = pullback(-yb * expit(margin)) / xb.shape[-2]
        self.descend(grad, eta)
        return np.logaddexp(0.0, margin).mean(axis=-1), None, grad


class CentralizedProgram(PairwiseProgram):
    """Single worker over the union dataset; every pair of the two
    minibatches contributes. Nonlinear outer is the moving-average tracker
    algorithm with fresh same-iteration negative scores and momentum."""

    def _data(self, dataset: FederatedDataset) -> tuple[np.ndarray, ...]:
        # The union as a stack of one client.
        return tuple(a[None] for a in (*dataset.pos_union(), *dataset.neg_union()))

    def local_step(self, k: int, eta: float) -> StepResult:
        s = self.settings
        x1, x2 = self.sampled(k)
        (a, pull1), (b, pull2) = (score_grad_many(s.scorer, self.model, x) for x in (x1, x2))
        a, b = a[..., :, None], b[..., None, :]  # (1, n1, n2) pairs
        n_pairs = a.shape[-2] * b.shape[-1]
        lmat, slope = loss_and_slope(s.loss, a, b)
        d1 = (-slope).sum(axis=-1)
        u = None
        if self.nonlinear:
            u = self.u_table.track((self.rows, self.z1[k]), lmat.mean(axis=-1), s.hyper.gamma)
            fpu = outer_deriv(s.outer, u)
            grad = (pull1(fpu * d1) + pull2(_vecmat(fpu, slope))) / n_pairs
        else:
            grad = (pull1(d1) + pull2(slope.sum(axis=-2))) / n_pairs
        self.descend(grad, eta)
        return lmat.mean(axis=(-2, -1)), u, grad


PROGRAMS = {
    "fedx1": PairwiseProgram,
    "fedx2": PairwiseProgram,
    "local_sgd": LocalSGDProgram,
    "local_pair": PairwiseProgram,
    "centralized": CentralizedProgram,
}
ALGORITHMS = tuple(PROGRAMS)
# fedx1's estimator is the linear-outer one and fedx2's the nonlinear one;
# the baselines take either outer function and branch on it.
REQUIRED_OUTER = {"fedx1": "identity", "fedx2": "kl_log"}


def check_algorithm(algorithm: str, outer: OuterFnSpec) -> None:
    """Raise ValueError, its message starting with the config key at fault,
    unless ``algorithm`` is known and runs with ``outer``."""
    if algorithm not in PROGRAMS:
        raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    required = REQUIRED_OUTER.get(algorithm, outer.kind)
    if outer.kind != required:
        raise ValueError(f"outer.kind must be {required} for {algorithm}, got {outer.kind!r}")


def checked_oracle(loss_spec, outer, scorer, w, dataset: FederatedDataset, at: str):
    """:func:`~fedcpr.losses.exact_oracle` at ``w`` on ``dataset``, and the
    squared gradient norm; FloatingPointError naming ``at`` if non-finite."""
    with np.errstate(all="ignore"):  # the check below names a non-finite value
        objective, grad = exact_oracle(loss_spec, outer, scorer, w, dataset.pos_union()[1],
                                       dataset.neg_union()[1])
        grad_sq = float(np.dot(grad, grad))
    for name, value in (("objective", objective), ("grad_norm_sq", grad_sq)):
        if not math.isfinite(value):
            raise FloatingPointError(f"exact {name} is non-finite ({value}) at {at}")
    return objective, grad, grad_sq


def _due(round_idx: int, last_round: int, every: int) -> bool:
    if round_idx in (0, last_round):
        return True
    return every > 0 and round_idx % every == 0


def simulate(
    algorithm: str,
    dataset: FederatedDataset,
    scorer: ScorerSpec,
    loss_spec: PairwiseLossSpec,
    outer: OuterFnSpec,
    hyper: HyperParams,
    *,
    trace_sink=None,
    eval_every: int = 1,
    oracle_every: int = 1,
) -> RunTrace:
    """Run one of :data:`ALGORITHMS`: the bootstrap exchange, then ``hyper.R``
    rounds of ``hyper.K`` local steps per client.

    ``trace_sink`` sees each round's record (``on_round``), after that
    round's (K, N) loss estimates and K step sizes (``on_iteration``), which
    only the sink sees; the returned trace holds the round records, the
    final model and the run's :attr:`RunTrace.total_floats`.
    The exact oracle and the held-out metrics are taken at rounds 0 and R
    and every ``oracle_every``/``eval_every`` rounds (0 = never between).

    Raises ValueError for an unknown algorithm or one that does not run
    with ``outer`` (see :data:`REQUIRED_OUTER`) and for a held-out split
    with no positive row or too few negative rows for a cap of
    :data:`PAUC_FPRS`, before any work; and FloatingPointError at the first
    non-finite emitted u-value of the bootstrap, oracle value
    (:func:`checked_oracle`) or quantity of a local step
    (:attr:`PairwiseProgram.WATCHED`), whose numpy warnings are silenced.
    """
    check_algorithm(algorithm, outer)
    n_pos, n_neg = len(dataset.eval_pos_X), len(dataset.eval_neg_X)
    need = max(math.ceil(1 / f) for f in PAUC_FPRS)  # floor(f * n_neg) >= 1
    if n_pos < 1 or n_neg < need:
        raise ValueError(f"held-out split: {n_pos} positives and {n_neg} negatives, "
                         f"needs at least 1 and {need} (pAUC@{min(PAUC_FPRS)})")
    settings = RunSettings(algorithm, scorer, loss_spec, outer, hyper)
    program = PROGRAMS[algorithm](settings, dataset)
    trace = RunTrace()

    def emit_round(idx, t_start, download, table, wraps):
        up_floats, down_floats = comm_cost(table, download)
        trace.total_floats += len(table.models) * (up_floats + down_floats)
        objective = grad_sq = auc_val = pauc_val = None
        w = download.model
        if _due(idx, hyper.R, oracle_every):
            objective, _, grad_sq = checked_oracle(loss_spec, outer, scorer, w, dataset,
                                                   f"round {idx}")
        if _due(idx, hyper.R, eval_every):
            auc_val, pauc_val = auc_and_partial_aucs(score_many(scorer, w, dataset.eval_pos_X),
                                                     score_many(scorer, w, dataset.eval_neg_X),
                                                     PAUC_FPRS)
        rec = RoundRecord(
            round=idx,
            wall_seconds=time.perf_counter() - t_start,
            objective=objective,
            grad_norm_sq=grad_sq,
            auc=auc_val,
            pauc=pauc_val,
            uplink_floats=up_floats,
            downlink_floats=down_floats,
            buffer_wraps=wraps,
        )
        trace.rounds.append(rec)
        if trace_sink is not None:
            trace_sink.on_round(rec)

    def watch(r, bad):
        # bad[k, i]: the WATCHED index of client i's first non-finite quantity
        # at iteration k, len(WATCHED) if none. Running the clients one after
        # another meets the lowest-index one first, at its first such k.
        hit = bad < len(program.WATCHED)
        if hit.any():
            i = int(np.argmax(hit.any(axis=0)))
            k = int(np.argmax(hit[:, i]))
            raise FloatingPointError(f"diverged: non-finite {program.WATCHED[bad[k, i]]} "
                                     f"on client {i} at round {r}, iteration {k}")

    t_start = time.perf_counter()
    with np.errstate(all="ignore"):  # watched below
        table = program.bootstrap_uploads()
    if table.h1_u is not None:
        finite = np.isfinite(table.h1_u).all(axis=2).T  # (K, N)
        watch(0, np.where(finite, len(program.WATCHED), program.WATCHED.index("emitted u-value")))
    download = server_aggregate(table)
    emit_round(0, t_start, download, table, 0)

    n, K = program.n_clients, hyper.K
    for r in range(1, hyper.R + 1):
        t_start = time.perf_counter()
        wraps = program.begin_round(download, r)
        etas = [hyper.eta_at((r - 1) * K + k) for k in range(K)]
        estimates, bad = np.empty((K, n)), np.empty((K, n), dtype=int)
        with np.errstate(all="ignore"):  # the step watches its quantities
            for k, eta_k in enumerate(etas):
                estimates[k], bad[k] = program.step(k, eta_k)
        watch(r, bad)
        table = program.uploads()
        download = server_aggregate(table)
        if trace_sink is not None:
            trace_sink.on_iteration(r, estimates, etas)
        emit_round(r, t_start, download, table, wraps)

    trace.final_model = download.model.copy()
    return trace
